"""Index-set families that drive the higher-order expansion of composites.

For every partition of a multi-index alpha, the expansion needs one set of
cube indices per block (summed to form a direction) plus one set for the
base point.  The all-ones families are built once per dimension, as masks,
by a recursion on the last digit, and placed on the support of other
indices.  One mask-level core checks the structural conditions they must
satisfy: ``validate`` feeds it an ``ASetFamily``, and ``asets_to_json``
the cached masks themselves, named by their placements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .combinatorics import MultiIndex, Partition, _partition_rows, check_type, enumerate_partitions, mask_rank

#: condition names used in validation reports, in check order
CONDITIONS = ("disjoint", "anchored", "base-extras", "block-extras", "order-increase")


@dataclass
class ASetFamily:
    """One set of multi-indices per key; keys are the zero index plus the
    partition blocks.  Sets are stored as sorted tuples so serialization
    and iteration are canonical."""

    partition: Partition
    sets: dict[MultiIndex, tuple[MultiIndex, ...]]

    @property
    def zero(self) -> MultiIndex:
        return MultiIndex.zero(self.partition.target.dim)

    @property
    def base_set(self) -> tuple[MultiIndex, ...]:
        return self.sets[self.zero]

    def keys(self) -> tuple[MultiIndex, ...]:
        return (self.zero,) + self.partition.blocks

    def to_obj(self) -> dict:
        return {
            "partition": [str(b) for b in self.partition.blocks],
            "sets": {str(k): [str(m) for m in self.sets[k]] for k in self.keys()},
        }


@dataclass(frozen=True)
class ConditionReport:
    name: str
    ok: bool
    offenders: tuple[str, ...]


@dataclass(frozen=True)
class FamilyValidation:
    ok: bool
    conditions: tuple[ConditionReport, ...]

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": {c.name: {"ok": c.ok, "offenders": list(c.offenders)} for c in self.conditions},
        }


@lru_cache(maxsize=None)
def _ones_families(dim: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Families for the all-ones target of the given dimension, one per row
    of ``combinatorics._partition_rows(dim)``, each grown from its parent
    row's family: the row's block masks and one sorted tuple of masks per
    key, the zero index first and then the blocks."""
    if dim == 0:
        return (((), ((0,),)),)

    # Appending a digit to every member keeps a sorted set sorted, so the
    # 0-lift of a set is the set itself and its 1-lift sets the top bit.  The
    # sets of a family are disjoint, so a union is the merge of sorted runs
    # by the MultiIndex order (order, digit string), which one sort of their
    # concatenation does in linear time.
    top = 1 << (dim - 1)
    rank = mask_rank.__wrapped__(dim).__getitem__
    rows = _partition_rows(dim)
    out: list = [None] * len(rows)
    position = {(parent, child): r for r, (_, parent, child) in enumerate(rows)}
    for parent, (_, (base, *block_sets)) in enumerate(_ones_families(dim - 1)):
        # Each set's 1-lift, and its union with it, once for all children.
        lifted = [tuple([m | top for m in s]) for s in (base, *block_sets)]
        both = [tuple(sorted(s + t, key=rank)) for s, t in zip((base, *block_sets), lifted)]
        # Child 0: every block gains a 0 digit, and the new singleton block
        # takes the 1-lift of the base.
        children = [(base, *block_sets, lifted[0])]
        # Child i + 1: block i gains a 1 digit; blocks before it keep only
        # their 0-lift, blocks after it also absorb their 1-lift, and the
        # base absorbs both of its lifts plus the 0-lift of block i.
        children += [
            (tuple(sorted(both[0] + s, key=rank)), *block_sets[:i], lifted[i + 1], *both[i + 2 :])
            for i, s in enumerate(block_sets)
        ]
        for child, sets in enumerate(children):
            r = position[parent, child]
            out[r] = (rows[r][0], sets)
    return tuple(out)


def build_asets(alpha: MultiIndex) -> dict[Partition, ASetFamily]:
    """One family per partition of ``alpha``, keyed and ordered like
    ``enumerate_partitions(alpha)``: the all-ones families of alpha's
    order placed on its support.  Both follow the rows of
    ``combinatorics._partition_rows``, so family r belongs to partition r.
    """
    check_type("alpha", alpha, MultiIndex)
    placed = alpha.placements()
    built: dict[Partition, ASetFamily] = {}
    for partition, (_, mask_sets) in zip(enumerate_partitions(alpha), _ones_families(alpha.order)):
        keys = (placed[0],) + partition.blocks
        sets = {k: tuple(map(placed.__getitem__, ms)) for k, ms in zip(keys, mask_sets)}
        built[partition] = ASetFamily(partition, sets)
    return built


def _offenders(name, target: int, maxord: int, keys, sets) -> tuple[list[str], ...]:
    """Offenders of each condition, in ``CONDITIONS`` order: key ``keys[i]`` (the zero
    index first) has the member masks ``sets[i]``; ``name`` writes a mask as a digit string."""
    outside = ~target
    members = [m for s in sets for m in s]
    bad_disjoint = []
    if len(set(members)) < len(members):
        bad_disjoint = sorted(name(m) for m, c in Counter(members).items() if c > 1)

    # "Strictly below the target" and "other than the block itself" need no
    # test of their own: the target's order is at least maxord, and above it
    # unless the target is the only block; a block lies between itself and
    # the target, with order <= maxord.
    bad_base = [name(m) for m in sets[0] if m and (m & outside or m.bit_count() >= maxord)]
    bad_anchor, bad_block, bad_order = [], [], []
    for i, (k, s) in enumerate(zip(keys, sets)):
        prefix, order = name(k) + ":", k.bit_count()
        if k not in s:
            bad_anchor.append(f"{name(k)} missing from its own set")
        bad_anchor += [f"{prefix}{name(m)} not below target" for m in s if m & outside]
        if i:
            bad_block += [prefix + name(m) for m in s if k & ~m or m & outside or m.bit_count() > maxord]
        bad_order += [prefix + name(m) for m in s if m != k and m.bit_count() <= order]
    return bad_disjoint, bad_anchor, bad_base, bad_block, bad_order


def validate(family: ASetFamily) -> FamilyValidation:
    """Check the structural conditions one family must satisfy.

    disjoint        the sets are pairwise disjoint
    anchored        each key belongs to its own set, and every member lies
                    below the target
    base-extras     nonzero members of the base set lie strictly between the
                    zero index and the target and have order < maxord
    block-extras    members of a block set other than the block itself lie
                    strictly between the block and the target and have
                    order <= maxord
    order-increase  members of a key's set other than the key itself have
                    order strictly greater than the key

    A key without a set, or a member of another dimension than the
    target's, raises ``ValueError``.
    """
    check_type("family", family, ASetFamily)
    p = family.partition
    check_type("the family's partition", p, Partition)
    check_type("the family's sets", family.sets, dict)
    dim, target, mo = p.target.dim, p.target.mask, p.maxord
    keys = family.keys()
    sets = []
    for k in keys:
        try:
            s = family.sets[k]
        except KeyError:
            raise ValueError(f"the family has no set for key {k}") from None
        check_type(f"the set of key {k}", s, (tuple, list))
        masks = [m.mask for m in s if isinstance(m, MultiIndex) and m.dim == dim]
        if len(masks) != len(s):
            for m in s:
                check_type(f"a member of the set of key {k}", m, MultiIndex)
                if m.dim != dim:
                    raise ValueError(f"dimension mismatch: {m.dim} vs {dim}")
        sets.append(masks)
    offenders = _offenders(lambda m: str(MultiIndex(dim, m)), target, mo, [k.mask for k in keys], sets)
    conditions = tuple(ConditionReport(name, not bad, tuple(bad)) for name, bad in zip(CONDITIONS, offenders))
    return FamilyValidation(all(c.ok for c in conditions), conditions)


def _json_object(fields: Iterable[tuple[str, str]], depth: int) -> str:
    # An object whose closing brace sits at ``depth``, laid out as
    # json.dumps(..., indent=2, sort_keys=True) lays it out; ``fields`` are
    # (key, rendered value) pairs in sorted key order, copied by one join.
    pad = "\n" + "  " * (depth + 1)
    parts = ["{"]
    for k, v in fields:
        parts += (pad, f'"{k}": ', v, ",")
    parts[-1] = "\n" + "  " * depth + "}"
    return "".join(parts)


def _json_array(items: list[str], depth: int) -> str:
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "".join(("[", pad, ("," + pad).join(items), "\n", "  " * depth, "]"))


def asets_to_json(alpha: MultiIndex, include_validation: bool = False) -> str:
    """JSON dump of every family for ``alpha``, with validation status.

    Byte-identical to ``json.dumps(rows, indent=2, sort_keys=True)`` of the
    rows ``ASetFamily.to_obj`` and ``FamilyValidation.to_obj`` describe,
    written from the cached all-ones families without building them.
    """
    check_type("alpha", alpha, MultiIndex)
    # The all-ones families are validated against the all-ones target, and
    # mask c is named by its placement on alpha's support: placing is
    # injective and keeps <=, the order and the digit-string order, so every
    # condition and offender (the sorted disjoint list too) is unchanged.
    names = list(map(str, alpha.placements()))
    quoted = [f'"{n}"' for n in names]
    boolean = {True: "true", False: "false"}
    rows = []
    for blocks, mask_sets in _ones_families(alpha.order):
        keys = (0, *blocks)
        maxord = max((b.bit_count() for b in blocks), default=0)
        offenders = _offenders(names.__getitem__, (1 << alpha.order) - 1, maxord, keys, mask_sets)
        fields = []
        if include_validation:
            conditions = [
                (c, _json_object((("offenders", _json_array([f'"{o}"' for o in bad], 4)), ("ok", boolean[not bad])), 3))
                for c, bad in sorted(zip(CONDITIONS, offenders))
            ]
            fields.append(("conditions", _json_object(conditions, 2)))
        fields.append(("partition", _json_array([quoted[b] for b in keys[1:]], 2)))
        sets = sorted((names[k], _json_array([quoted[m] for m in ms], 3)) for k, ms in zip(keys, mask_sets))
        fields.append(("sets", _json_object(sets, 2)))
        fields.append(("valid", boolean[not any(offenders)]))
        rows.append(_json_object(fields, 1))
    return _json_array(rows, 0)
