import pytest
from hypothesis import given, strategies as st

import partition_reference
from deltachain.asets import asets_to_json, build_asets, validate
from deltachain.combinatorics import (
    MultiIndex,
    Partition,
    bell_number,
    enumerate_partitions,
    mask_rank,
    refine,
)
from deltachain.numeric import run_suite, verify_scaling, verify_smooth_chain
from deltachain.symbolic import parse

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=8)


def mi(s: str) -> MultiIndex:
    return MultiIndex.from_string(s)


# -- multi-index basics ------------------------------------------------------

def test_from_string_round_trip():
    assert str(mi("1011")) == "1011"
    assert mi("1011").bits == (1, 0, 1, 1)


def test_constructors():
    assert MultiIndex.zero(3) == mi("000")
    assert MultiIndex.ones(4) == mi("1111")
    assert MultiIndex.unit(4, 2) == mi("0010")


def test_rejects_non_binary_digits():
    with pytest.raises(ValueError):
        MultiIndex.from_bits((0, 2, 1))
    with pytest.raises(ValueError):
        MultiIndex.from_string("10x1")
    for dim, mask in [(2, 4), (2, -1), (True, 1), (2, True), (2.0, 1), (2, "1")]:
        with pytest.raises(ValueError):
            MultiIndex(dim, mask)


def test_the_index_with_no_digits_goes_through_the_constructor():
    e = MultiIndex(0, 0)
    assert MultiIndex.empty() == MultiIndex.from_string("") == MultiIndex.from_bits(()) == e
    assert MultiIndex.ones(0) == MultiIndex.zero(0) == e
    assert (str(e), e.bits, e.order, e.support) == ("", (), 0, ())
    assert mi("000").restrict(()) == e and e.embed((), 3) == mi("000")
    for dim, mask in [(-1, 0), (0, 1)]:
        with pytest.raises(ValueError):
            MultiIndex(dim, mask)


def test_order_mask_support():
    a = mi("0110")
    assert a.dim == 4
    assert a.order == 2
    assert a.support == (1, 2)
    # the mask packs digit i into bit i
    assert a.mask == 0b0110


@given(bits_lists)
def test_mask_matches_bit_packing(bits):
    a = MultiIndex.from_bits(bits)
    assert a.mask == sum(b << i for i, b in enumerate(bits))
    assert a.order == sum(bits)


# Every multi-index of dimension 1 to 8, as (dim, mask).
ALL_INDICES = [(d, m) for d in range(1, 9) for m in range(1 << d)]


def ref_bits(dim: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(dim))


def test_sort_key_orders_like_the_bits_tuple_across_dimensions():
    got = sorted((MultiIndex(d, m) for d, m in ALL_INDICES), key=lambda a: a.sort_key)
    want = sorted(ALL_INDICES, key=lambda x: (sum(ref_bits(*x)), ref_bits(*x)))
    assert [(a.dim, a.mask) for a in got] == want


@given(st.sampled_from(ALL_INDICES), st.sampled_from(ALL_INDICES), st.data())
def test_mask_encoding_matches_a_bits_reference(x, y, data):
    a, b = MultiIndex(*x), MultiIndex(*y)
    ba, bb = ref_bits(*x), ref_bits(*y)
    assert a.bits == ba
    assert a.order == sum(ba)
    assert a.support == tuple(i for i, v in enumerate(ba) if v)
    assert str(a) == "".join(str(v) for v in ba)
    assert MultiIndex.from_string(str(a)) == a == MultiIndex.from_bits(ba)
    assert a.diamond(0).bits == ba + (0,) and a.diamond(1).bits == ba + (1,)
    assert (a.sort_key < b.sort_key) == ((sum(ba), ba) < (sum(bb), bb))
    assert (a == b) == (ba == bb)
    if a.dim == b.dim:
        below = all(p <= q for p, q in zip(ba, bb))
        assert (a <= b) == below
        assert (a < b) == (below and ba != bb)
    else:
        with pytest.raises(ValueError):
            a <= b
    dim = a.dim + data.draw(st.integers(0, 3))
    positions = tuple(sorted(data.draw(st.permutations(range(dim)))[: a.dim]))
    placed = [0] * dim
    for v, p in zip(ba, positions):
        placed[p] = v
    assert a.embed(positions, dim).bits == tuple(placed)
    assert a.embed(positions, dim).restrict(positions) == a


def test_partial_order():
    assert mi("010") <= mi("011")
    assert mi("010") < mi("011")
    assert not mi("011") <= mi("010")
    assert not mi("100") <= mi("011")  # incomparable
    assert not mi("011") <= mi("100")
    assert mi("000") <= mi("101")


def test_partial_order_needs_equal_dims():
    with pytest.raises(ValueError):
        mi("01") <= mi("011")


def test_diamond_appends_digit():
    assert mi("10").diamond(1) == mi("101")
    assert mi("10").diamond(0) == mi("100")


@given(bits_lists)
def test_down_set_is_the_full_interval(bits):
    a = MultiIndex.from_bits(bits)
    down = a.down_set()
    assert len(down) == 2 ** a.order
    assert len(set(down)) == len(down)
    assert all(b <= a for b in down)
    assert down[0] == MultiIndex.zero(a.dim)
    assert down[-1] == a
    assert list(down) == sorted(down, key=lambda m: m.sort_key)


def test_placements_embed_each_index_of_the_support_cube():
    assert MultiIndex.empty().placements() == (MultiIndex.empty(),)
    assert MultiIndex.empty().down_set() == (MultiIndex.empty(),)
    for dim in range(1, 9):
        for mask in range(1 << dim):
            a = MultiIndex(dim, mask)
            want = [MultiIndex(a.order, c).embed(a.support, dim) for c in range(1, 1 << a.order)]
            assert a.placements() == (MultiIndex.zero(dim), *want)


def test_mask_rank_is_the_position_in_sort_key_order():
    assert mask_rank(0) == (0,)
    for dim in range(1, 9):
        ordered = sorted((MultiIndex(dim, m) for m in range(1 << dim)), key=lambda a: a.sort_key)
        assert mask_rank(dim) == tuple(ordered.index(MultiIndex(dim, m)) for m in range(1 << dim))


def test_restrict_embed_round_trip():
    a = mi("01011")
    positions = (1, 3, 4)
    assert a.restrict(positions) == mi("111")
    assert a.restrict(positions).embed(positions, 5) == a
    with pytest.raises(ValueError):
        mi("10011").restrict(positions)  # support not contained
    for bad in [(1, 5), (-1, 3), (1, 1)]:
        with pytest.raises(ValueError):
            mi("01010").restrict(bad)
        with pytest.raises(ValueError):
            mi("10").embed(bad, 5)
    with pytest.raises(ValueError, match="position must be an int"):
        mi("111").restrict((True, 1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_asets("11"),
        lambda: asets_to_json("11"),
        lambda: verify_scaling(1, "11"),
        lambda: verify_smooth_chain("11", 1),
        lambda: run_suite("scaling", 1, alpha="11"),
        lambda: validate("x"),
        lambda: parse("u_1", dim="3"),
        lambda: parse("f(x)", dim="3"),
        lambda: enumerate_partitions("11"),
        lambda: enumerate_partitions(None),
        lambda: enumerate_partitions([1]),
        lambda: refine("x"),
        lambda: refine(MultiIndex.ones(2)),
        lambda: Partition("11", ()),
        lambda: Partition(MultiIndex.ones(2), ["11"]),
        lambda: Partition(MultiIndex.ones(2), 5),
        lambda: parse(5),
        lambda: parse(None),
        lambda: parse(b"x"),
        lambda: parse(5, "json"),
        lambda: MultiIndex.ones("3"),
        lambda: MultiIndex.ones(-1),
        lambda: MultiIndex.unit("2", 0),
        lambda: MultiIndex.from_string(5),
        lambda: MultiIndex.from_bits(5),
        lambda: mask_rank("3"),
        lambda: mask_rank(-1),
        lambda: mask_rank([1]),
        lambda: bell_number("3"),
        lambda: bell_number(True),
        lambda: bell_number([1]),
        lambda: mi("111").restrict(("x",)),
        lambda: mi("101").restrict((0.0, 2)),
        lambda: mi("111").restrict(5),
        lambda: mi("111").restrict((True, 1, 2)),
        lambda: mi("101").embed((0, "a", 2), 4),
        lambda: mi("101").embed((0, 1, 2), "x"),
        lambda: mi("11") <= 3,
        lambda: mi("11") < "x",
    ],
    ids=[
        "build-asets", "asets-to-json", "scaling", "smooth-chain", "run-suite", "validate", "parse-u1", "parse-fx",
        "partitions-str", "partitions-none", "partitions-list", "refine-str", "refine-index", "partition-str-target",
        "partition-str-block", "partition-int-blocks", "parse-int", "parse-none", "parse-bytes", "parse-json-int",
        "ones-str", "ones-negative", "unit-str", "from-string-int", "from-bits-int", "mask-rank-str",
        "mask-rank-negative", "mask-rank-list", "bell-str", "bell-bool", "bell-list", "restrict-str", "restrict-float",
        "restrict-int",
        "restrict-bool", "embed-str-position", "embed-str-dim", "le-int", "lt-str",
    ],
)
def test_entry_points_reject_a_stray_argument_with_value_error(call):
    with pytest.raises(ValueError):
        call()


@given(bits_lists)
def test_restrict_to_own_support_gives_all_ones(bits):
    a = MultiIndex.from_bits(bits)
    if a.order == 0:
        return
    core = a.restrict(a.support)
    assert core == MultiIndex.ones(a.order)
    assert core.embed(a.support, a.dim) == a


# -- partitions ---------------------------------------------------------------

def test_partition_blocks_are_canonically_ordered():
    p = Partition(mi("111"), (mi("011"), mi("100")))
    assert p.blocks == (mi("100"), mi("011"))
    assert p.size == 2
    assert p.maxord == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(mi("110"), (mi("100"), mi("011")))  # exceeds target
    with pytest.raises(ValueError):
        Partition(mi("111"), (mi("110"), mi("011")))  # overlap
    with pytest.raises(ValueError):
        Partition(mi("111"), (mi("100"),))  # does not cover
    with pytest.raises(ValueError):
        Partition(mi("111"), (mi("100"), mi("011"), mi("000")))  # zero block
    with pytest.raises(ValueError):
        Partition(mi("11"), (mi("10"), mi("010")))  # dim mismatch


def test_zero_target_has_the_empty_partition():
    p = Partition(mi("000"), ())
    assert p.blocks == ()
    assert p.size == 0
    assert p.maxord == 0
    with pytest.raises(ValueError):
        Partition(mi("000"), (mi("000"),))


def test_enumerate_partitions_small_tables():
    table = enumerate_partitions(mi("11"))
    assert [p.blocks for p in table] == [
        (mi("11"),),
        (mi("10"), mi("01")),
    ]
    table3 = enumerate_partitions(mi("111"))
    assert [p.blocks for p in table3] == [
        (mi("111"),),
        (mi("100"), mi("011")),
        (mi("101"), mi("010")),
        (mi("110"), mi("001")),
        (mi("100"), mi("010"), mi("001")),
    ]


def test_enumerate_partitions_of_zero():
    table = enumerate_partitions(mi("00"))
    assert len(table) == 1
    assert table[0].blocks == ()


def test_partitions_respect_sparse_support():
    table = enumerate_partitions(mi("101"))
    assert len(table) == 2
    for p in table:
        for b in p.blocks:
            assert b <= mi("101")


@given(st.integers(1, 6), st.data())
def test_partition_structure(dim, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    a = MultiIndex.from_bits(bits)
    for p in enumerate_partitions(a):
        seen = 0
        for b in p.blocks:
            assert b.order > 0
            assert seen & b.mask == 0
            seen |= b.mask
        assert seen == a.mask


def test_partition_counts_match_bell_numbers():
    for k in range(0, 7):
        a = MultiIndex.ones(k) if k else mi("0")
        assert len(enumerate_partitions(a)) == bell_number(k if k else 0)


def test_bell_number_frozen_values():
    assert [bell_number(n) for n in range(10)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147,
    ]


# -- refinement ---------------------------------------------------------------

def test_refine_shapes():
    p = Partition(mi("11"), (mi("10"), mi("01")))
    children = refine(p)
    # one child appends a fresh singleton block, then one child per block flip
    assert [c.size for c in children] == [3, 2, 2]
    assert children[0].blocks == (mi("100"), mi("010"), mi("001"))
    assert children[1].blocks == (mi("101"), mi("010"))
    assert children[2].blocks == (mi("100"), mi("011"))
    assert all(c.target == mi("111") for c in children)


def test_refine_of_empty_partition():
    children = refine(Partition(mi("0"), ()))
    assert len(children) == 1
    assert children[0].blocks == (mi("01"),)


@pytest.mark.parametrize("k", range(1, 6))
def test_refinements_exhaust_the_next_level_disjointly(k):
    """Every partition with a trailing 1-digit arises from exactly one parent."""
    parent = MultiIndex.ones(k)
    got = []
    for p in enumerate_partitions(parent):
        got.extend(refine(p))
    expected = {
        q.blocks
        for q in enumerate_partitions(MultiIndex.ones(k + 1))
    }
    assert len(got) == len(expected)
    assert {c.blocks for c in got} == expected


# -- the reference enumeration --------------------------------------------------

@pytest.mark.parametrize("dim", range(0, 8))
def test_partition_table_matches_the_reference_enumeration(dim):
    alphas = [MultiIndex(dim, m) for m in range(1 << dim)] if dim else [MultiIndex.empty()]
    for alpha in alphas:
        assert partition_reference.table_differences(alpha) == []


@pytest.mark.parametrize("k", range(1, 7))
def test_refine_covers_the_reference_partitions_once(k):
    assert partition_reference.cover_differences(k) == []
