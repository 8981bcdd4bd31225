import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from deltachain import asets, combinatorics
from deltachain.asets import (
    ASetFamily,
    ConditionReport,
    FamilyValidation,
    _ones_families,
    asets_to_json,
    build_asets,
    validate,
)
from deltachain.combinatorics import (
    MultiIndex,
    Partition,
    _partition_rows,
    bell_number,
    enumerate_partitions,
)
from deltachain.symbolic import expand_chain, expand_tangent, main_part

import partition_reference


def mi(s: str) -> MultiIndex:
    return MultiIndex.from_string(s)


def family_for(alpha: str, blocks: tuple[str, ...]) -> ASetFamily:
    fams = build_asets(mi(alpha))
    key = Partition(mi(alpha), tuple(mi(b) for b in blocks))
    return fams[key]


# -- construction ---------------------------------------------------------------

def test_families_for_the_square():
    fams = build_asets(mi("11"))
    assert len(fams) == 2

    whole = family_for("11", ("11",))
    assert whole.base_set == (mi("00"), mi("01"), mi("10"))
    assert whole.sets[mi("11")] == (mi("11"),)

    pairs = family_for("11", ("10", "01"))
    assert pairs.base_set == (mi("00"),)
    assert pairs.sets[mi("10")] == (mi("10"),)
    assert pairs.sets[mi("01")] == (mi("01"),)


def test_family_keys_follow_the_partition_table():
    for alpha in ("11", "111", "1111"):
        fams = build_asets(mi(alpha))
        assert list(fams) == list(enumerate_partitions(mi(alpha)))


def test_known_family_of_the_cube():
    fam = family_for("111", ("100", "011"))
    assert fam.base_set == (mi("000"), mi("001"), mi("010"))
    assert fam.sets[mi("100")] == (mi("100"),)
    assert fam.sets[mi("011")] == (mi("011"),)


def test_family_counts_match_bell_numbers():
    for k in range(1, 7):
        fams = build_asets(MultiIndex.ones(k))
        assert len(fams) == bell_number(k)


def test_zero_target_family():
    fams = build_asets(mi("000"))
    assert len(fams) == 1
    (fam,) = fams.values()
    assert fam.base_set == (mi("000"),)
    assert fam.partition.blocks == ()


def test_cached_families_follow_the_partition_table():
    assert _ones_families(0) == (((), ((0,),)),)
    for d in range(1, 9):
        blocks = [b for b, _ in _ones_families(d)]
        assert blocks == [tuple(b.mask for b in p.blocks) for p in enumerate_partitions(MultiIndex.ones(d))]


@pytest.mark.parametrize("d", range(8))
def test_cached_families_equal_the_reference_recursion(d):
    assert partition_reference.family_differences(d) == []


def test_the_index_with_no_digits_has_one_family():
    e = MultiIndex.empty()
    (fam,) = build_asets(e).values()
    assert fam.partition == Partition(e, ())
    assert fam.zero == e
    assert fam.keys() == (e,)
    assert fam.base_set == (e,)
    assert validate(fam).ok
    unanchored = validate(ASetFamily(fam.partition, {e: ()}))
    assert [c.offenders for c in unanchored.conditions if not c.ok] == [(" missing from its own set",)]
    rows = json.loads(asets_to_json(e, include_validation=True))
    assert [(r["partition"], r["sets"], r["valid"]) for r in rows] == [([], {"": [""]}, True)]


def test_sparse_support_families_embed_the_dense_ones():
    sparse = build_asets(mi("101"))
    dense = build_asets(mi("11"))
    assert len(sparse) == len(dense)
    positions = (0, 2)
    for (sp, sfam), (dp, dfam) in zip(sparse.items(), dense.items()):
        assert sp.blocks == tuple(b.embed(positions, 3) for b in dp.blocks)
        for skey, dkey in zip(sfam.keys(), dfam.keys()):
            assert sfam.sets[skey] == tuple(
                m.embed(positions, 3) for m in dfam.sets[dkey]
            )


# -- validation ------------------------------------------------------------------

def test_small_families_satisfy_every_condition():
    for alpha in ("1", "11", "111"):
        for fam in build_asets(mi(alpha)).values():
            report = validate(fam)
            assert report.ok, report.to_obj()


def test_validation_catches_an_injected_target():
    fam = family_for("11", ("10", "01"))
    broken = ASetFamily(fam.partition, dict(fam.sets))
    broken.sets[mi("00")] = (mi("00"), mi("11"))
    report = validate(broken)
    assert not report.ok
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["base-extras"].ok
    assert "11" in by_name["base-extras"].offenders


def test_validation_catches_duplicates_across_sets():
    fam = family_for("11", ("10", "01"))
    broken = ASetFamily(fam.partition, dict(fam.sets))
    broken.sets[mi("10")] = (mi("10"), mi("01"))
    report = validate(broken)
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["disjoint"].ok
    assert by_name["disjoint"].offenders == ("01",)


def test_validation_catches_a_missing_anchor():
    fam = family_for("11", ("10", "01"))
    broken = ASetFamily(fam.partition, dict(fam.sets))
    broken.sets[mi("10")] = ()
    report = validate(broken)
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["anchored"].ok


def test_validation_catches_an_order_decrease():
    fam = family_for("111", ("110", "001"))
    broken = ASetFamily(fam.partition, dict(fam.sets))
    # put a first-order element into the set of the second-order block
    broken.sets[mi("110")] = (mi("110"), mi("100"))
    report = validate(broken)
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["order-increase"].ok


@pytest.mark.parametrize(
    "sets, message",
    [
        ({}, "no set for key 00"),
        ({mi("00"): (mi("00"),), mi("11"): (mi("11"), "00")}, "a member of the set of key 11 must be a MultiIndex, not '00'"),
        ({mi("00"): (mi("00"),), mi("11"): (mi("11"), mi("011"))}, "dimension mismatch: 3 vs 2"),
        ([], r"the family's sets must be a dict, not \[\]"),
        ({mi("00"): 5, mi("11"): (mi("11"),)}, "the set of key 00 must be a tuple or a list, not 5"),
        ({mi("00"): None, mi("11"): (mi("11"),)}, "the set of key 00 must be a tuple or a list, not None"),
        (ASetFamily("x", {}), "the family's partition must be a Partition, not 'x'"),
    ],
)
def test_validation_rejects_malformed_families(sets, message):
    # A whole family stands in for one whose partition is malformed.
    fam = sets if isinstance(sets, ASetFamily) else ASetFamily(family_for("11", ("11",)).partition, sets)
    with pytest.raises(ValueError, match=message):
        validate(fam)


def reference_validate(family: ASetFamily) -> FamilyValidation:
    """The conditions checked one MultiIndex at a time, as the definitions
    in ``validate``'s docstring read."""
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
        for m in family.sets[b]:
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


SMALL_TARGETS = [MultiIndex(d, m) for d in range(1, 6) for m in range(1 << d)]
PERTURBATIONS = ("drop", "duplicate", "target", "lower", "unanchor", "any")


@st.composite
def perturbed_families(draw) -> ASetFamily:
    """A built family with up to four members dropped or injected: a member
    of another set, the target, a member of order at most the key's, any
    index of the dimension, or the key itself removed."""
    alpha = draw(st.sampled_from(SMALL_TARGETS))
    fam = draw(st.sampled_from(list(build_asets(alpha).values())))
    keys = fam.keys()
    sets = {k: list(fam.sets[k]) for k in keys}
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(PERTURBATIONS))
        k = draw(st.sampled_from(keys))
        s = sets[k]
        if kind == "drop" or kind == "unanchor":
            doomed = [m for m in s if kind == "drop" or m == k]
            if doomed:
                s.remove(draw(st.sampled_from(doomed)))
            continue
        if kind == "duplicate":
            pool = [m for other in keys if other != k for m in sets[other]]
        elif kind == "target":
            pool = [alpha]
        elif kind == "lower":
            pool = [m for m in alpha.down_set() if m.order <= k.order]
        else:
            pool = [MultiIndex(alpha.dim, m) for m in range(1 << alpha.dim)]
        if pool:
            s.insert(draw(st.integers(0, len(s))), draw(st.sampled_from(pool)))
    return ASetFamily(fam.partition, {k: tuple(s) for k, s in sets.items()})


@settings(max_examples=400, deadline=None)
@given(perturbed_families())
def test_mask_validation_matches_the_multiindex_reference(fam):
    assert validate(fam) == reference_validate(fam)


def test_structural_conditions_hold_everywhere_small():
    """Disjointness, anchoring, and order increase hold for every family
    up to order six; the two order-bound conditions do not (see below)."""
    always = ("disjoint", "anchored", "order-increase")
    for k in range(1, 7):
        for fam in build_asets(MultiIndex.ones(k)).values():
            by_name = {c.name: c for c in validate(fam).conditions}
            for name in always:
                assert by_name[name].ok, (k, fam.partition, name)


def test_the_order_bound_conditions_fail_from_order_four():
    """The recursion provably violates the two maxord-bound conditions.

    First failing family: partition {1001, 0110} of 1111, reached from the
    parent partition {100, 011} of 111 by flipping the first block.  The
    base set picks up the parent's first-order extras with a digit
    appended (0011, 0101 — order 2, not < maxord 2), and the unflipped
    block's set picks up 0111 (order 3, not <= maxord 2).  The expansion
    identity itself is unaffected, which the numeric suites verify
    exactly; the bounds are a descriptive claim about the sets, not an
    ingredient of the formula's correctness.
    """
    fam = family_for("1111", ("1001", "0110"))
    assert fam.base_set == (
        mi("0000"),
        mi("0001"),
        mi("0010"),
        mi("0100"),
        mi("1000"),
        mi("0011"),
        mi("0101"),
    )
    assert fam.sets[mi("0110")] == (mi("0110"), mi("0111"))

    by_name = {c.name: c for c in validate(fam).conditions}
    assert by_name["disjoint"].ok
    assert by_name["anchored"].ok
    assert by_name["order-increase"].ok
    assert not by_name["base-extras"].ok
    assert set(by_name["base-extras"].offenders) == {"0011", "0101"}
    assert not by_name["block-extras"].ok
    assert by_name["block-extras"].offenders == ("0110:0111",)


# -- serialization ----------------------------------------------------------------

def test_json_dump_is_deterministic_and_well_formed():
    a = asets_to_json(mi("111"))
    b = asets_to_json(mi("111"))
    assert a == b
    rows = json.loads(a)
    assert len(rows) == 5
    assert all(set(r) == {"partition", "sets", "valid"} for r in rows)
    assert all(r["valid"] for r in rows)


def test_json_dump_with_validation_details():
    rows = json.loads(asets_to_json(mi("1111"), include_validation=True))
    assert len(rows) == bell_number(4)
    flagged = [r for r in rows if not r["valid"]]
    assert flagged, "the order-bound violations must be reported"
    for r in flagged:
        bad = [
            name
            for name, c in r["conditions"].items()
            if not c["ok"]
        ]
        assert set(bad) <= {"base-extras", "block-extras"}
        for name in bad:
            assert r["conditions"][name]["offenders"]


def reference_json(alpha: MultiIndex) -> dict[bool, str]:
    """json.dumps of the row objects, without and with validation details."""
    rows, detailed = [], []
    for fam in build_asets(alpha).values():
        report = validate(fam)
        row = {**fam.to_obj(), "valid": report.ok}
        rows.append(row)
        detailed.append({**row, "conditions": report.to_obj()["conditions"]})
    return {v: json.dumps(r, indent=2, sort_keys=True) for v, r in ((False, rows), (True, detailed))}


# every target of dimension 1 to 7, and the all-ones target of dimension 8
WRITER_TARGETS = {f"dim {d}": [MultiIndex(d, m) for m in range(1 << d)] for d in range(1, 8)}
WRITER_TARGETS["11111111"] = [MultiIndex.ones(8)]
WRITER_TARGETS["empty"] = [MultiIndex.empty()]


@pytest.mark.parametrize("alphas", WRITER_TARGETS.values(), ids=WRITER_TARGETS.keys())
def test_json_writer_matches_json_dumps(alphas):
    for alpha in alphas:
        want = reference_json(alpha)
        for include_validation in (False, True):
            assert asets_to_json(alpha, include_validation) == want[include_validation]


def test_the_writer_reads_only_the_cached_families(monkeypatch):
    alphas = [mi("1111"), mi("1101110"), mi("000"), MultiIndex.empty()]
    want = {alpha: reference_json(alpha) for alpha in alphas}

    def no_table(*args, **kwargs):
        raise AssertionError("asets_to_json built a partition table, an ASetFamily or a report")

    monkeypatch.setattr(asets, "build_asets", no_table)
    monkeypatch.setattr(asets, "validate", no_table)
    monkeypatch.setattr(asets, "enumerate_partitions", no_table)
    monkeypatch.setattr(combinatorics, "enumerate_partitions", no_table)
    monkeypatch.setattr(MultiIndex, "down_set", no_table)
    _ones_families.cache_clear()
    for alpha in alphas:
        for include_validation in (False, True):
            assert asets_to_json(alpha, include_validation) == want[alpha][include_validation]


def test_the_families_and_their_readers_build_no_partition(monkeypatch):
    alpha = MultiIndex.ones(6)
    want = (expand_chain(alpha), expand_tangent(alpha), main_part(alpha), asets_to_json(alpha, True))

    def no_partition(self):
        raise AssertionError("a Partition was built")

    monkeypatch.setattr(Partition, "__post_init__", no_partition)
    for cache in (expand_chain, expand_tangent, main_part, _ones_families, _partition_rows, enumerate_partitions):
        cache.cache_clear()
    assert expand_chain(alpha) is want[0]
    assert expand_tangent(alpha) is want[1]
    assert main_part(alpha) is want[2]
    assert asets_to_json(alpha, True) == want[3]
