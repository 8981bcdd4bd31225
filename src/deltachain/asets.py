"""Index-set families that drive the higher-order expansion of composites.

For every partition of a multi-index alpha, the expansion needs one set of
cube indices per block (summed to form a direction) plus one set for the
base point.  These families are built by a recursion on the last digit and
validated against the structural conditions they must satisfy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import MultiIndex, Partition, enumerate_partitions, refine

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

    def block_set(self, block: MultiIndex) -> tuple[MultiIndex, ...]:
        return self.sets[block]

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
def _ones_families(dim: int) -> tuple[tuple[Partition, tuple[tuple[int, ...], ...]], ...]:
    """Families for the all-ones target of the given dimension.

    Returned in refinement-lineage order: each family is its partition and
    one sorted tuple of masks per key, the zero index first and then the
    blocks.  ``build_asets`` turns them into ASetFamily objects.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1:
        one = MultiIndex(1, 1)
        return ((Partition(one, (one,)), ((0,), (1,))),)

    # Appending a digit to every member keeps a sorted set sorted, so the
    # 0-lift of a set is the set itself and its 1-lift sets the top bit.  A
    # union is sorted again by the MultiIndex order (order, digit string).
    top = 1 << (dim - 1)

    def lift(s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(m | top for m in s)

    def union(*groups: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(set().union(*groups), key=lambda m: (m.bit_count(), format(m, f"0{dim}b")[::-1])))

    out = []
    for parent, (base, *block_sets) in _ones_families(dim - 1):
        first, *rest = refine(parent)
        # Child 0: every block gains a 0 digit, and the new singleton block
        # takes the 1-lift of the base.
        out.append((first, (base, *block_sets, lift(base))))
        # Child i: block i gains a 1 digit; blocks before it keep only their
        # 0-lift, blocks after it also absorb their 1-lift, and the base
        # absorbs both of its lifts plus the 0-lift of block i.
        for i, child in enumerate(rest):
            sets = [union(base, lift(base), block_sets[i])]
            for j, s in enumerate(block_sets):
                sets.append(s if j < i else lift(s) if j == i else union(s, lift(s)))
            out.append((child, tuple(sets)))
    return tuple(out)


def build_asets(alpha: MultiIndex) -> dict[Partition, ASetFamily]:
    """One family per partition of ``alpha``, keyed and ordered like
    ``enumerate_partitions(alpha)``.

    Indices with zero digits are handled by building over the support and
    embedding the result back.
    """
    table = enumerate_partitions(alpha)
    if alpha.order == 0:
        return {table[0]: ASetFamily(table[0], {alpha: (alpha,)})}

    positions = alpha.support
    placed = [MultiIndex(alpha.order, m).embed(positions, alpha.dim) for m in range(1 << alpha.order)]
    built: dict[Partition, ASetFamily] = {}
    for small_partition, mask_sets in _ones_families(alpha.order):
        partition = Partition(alpha, tuple(placed[b.mask] for b in small_partition.blocks))
        # embedding keeps the blocks' order, so the keys line up with mask_sets
        keys = (placed[0],) + partition.blocks
        sets = {k: tuple(placed[m] for m in ms) for k, ms in zip(keys, mask_sets)}
        built[partition] = ASetFamily(partition, sets)

    if set(built) != set(table):
        raise AssertionError("refinement lineage disagrees with partition enumeration")
    return {p: built[p] for p in table}


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
    """
    p = family.partition
    alpha = p.target
    zero = family.zero
    mo = p.maxord

    counts: Counter[MultiIndex] = Counter()
    for k in family.keys():
        counts.update(family.sets[k])
    dup = sorted(str(m) for m, c in counts.items() if c > 1)
    c_disjoint = ConditionReport("disjoint", not dup, tuple(dup))

    bad_anchor = []
    for k in family.keys():
        s = family.sets[k]
        if k not in s:
            bad_anchor.append(f"{k} missing from its own set")
        for m in s:
            if not m <= alpha:
                bad_anchor.append(f"{k}:{m} not below target")
    c_anchor = ConditionReport("anchored", not bad_anchor, tuple(bad_anchor))

    bad_base = []
    for m in family.base_set:
        if m == zero:
            continue
        if not (zero < m < alpha) or m.order >= mo:
            bad_base.append(str(m))
    c_base = ConditionReport("base-extras", not bad_base, tuple(bad_base))

    bad_block = []
    for b in p.blocks:
        for m in family.block_set(b):
            if m == b:
                continue
            if not (b < m < alpha) or m.order > mo:
                bad_block.append(f"{b}:{m}")
    c_block = ConditionReport("block-extras", not bad_block, tuple(bad_block))

    bad_order = []
    for k in family.keys():
        for m in family.sets[k]:
            if m != k and m.order <= k.order:
                bad_order.append(f"{k}:{m}")
    c_order = ConditionReport("order-increase", not bad_order, tuple(bad_order))

    conditions = (c_disjoint, c_anchor, c_base, c_block, c_order)
    return FamilyValidation(all(c.ok for c in conditions), conditions)


def asets_to_json(alpha: MultiIndex, include_validation: bool = False) -> str:
    """JSON dump of every family for ``alpha``, with validation status."""
    rows = []
    for fam in build_asets(alpha).values():
        row = fam.to_obj()
        report = validate(fam)
        row["valid"] = report.ok
        if include_validation:
            row["conditions"] = report.to_obj()["conditions"]
        rows.append(row)
    return json.dumps(rows, indent=2, sort_keys=True)
