import copy
import dataclasses
import gc
import json
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import expansion_reference as expref
import parse_reference
import reference_formulas as ref
from json_reference import expr_to_obj
from deltachain import asets, combinatorics, symbolic
from deltachain.combinatorics import MultiIndex, bell_number
from deltachain.cuboid import Cuboid, discrete_tangent
from deltachain.numeric import EvaluationError, RandomRationalMap, eval_expr, evaluate_delta
from deltachain.symbolic import (
    App,
    ComponentSym,
    DeltaTerm,
    PointSym,
    Sum,
    VecSym,
    canonicalize,
    expand_chain,
    expand_tangent,
    expr_from_obj,
    main_part,
    order_of,
    parse,
    render,
    sort_key,
    substitute_components,
)

mi = MultiIndex.from_string


# -- expression strategy ------------------------------------------------------

names = st.sampled_from(["f", "g", "h"])
points = st.sampled_from(["x", "y"])
vec_names = st.sampled_from(["v_1", "v_2", "v_3", "w_1"])
indices = st.sampled_from(["0", "1", "01", "10", "11", "101", "110"]).map(mi)


def exprs(depth: int = 3):
    leaves = st.one_of(
        points.map(PointSym),
        vec_names.map(VecSym),
        st.tuples(st.sampled_from(["u", "w"]), indices).map(
            lambda t: ComponentSym(*t)
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(names, children).map(lambda t: App(*t)),
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 2), children), min_size=1, max_size=3
                ),
                names,
                children,
            ).map(
                # Each direction is listed as many times as its drawn multiplicity.
                lambda t: DeltaTerm(
                    tuple(d for a, d in t[0] for _ in range(a)),
                    t[1],
                    t[2],
                )
            ),
            st.lists(children, min_size=1, max_size=4).map(
                lambda ts: Sum(tuple(ts))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 4)


# -- orders ---------------------------------------------------------------------

def test_order_of_each_node_kind():
    assert order_of(PointSym("x")) == 0
    assert order_of(VecSym("v_1")) == 1
    assert order_of(ComponentSym("u", mi("101"))) == 2
    assert order_of(App("f", VecSym("v_1"))) == 0
    term = DeltaTerm((VecSym("v_1"), VecSym("v_1"), ComponentSym("u", mi("11"))), "f", PointSym("x"))
    assert order_of(term) == 1 + 1 + 2
    assert order_of(Sum((VecSym("v_1"), ComponentSym("u", mi("11"))))) == 1


def test_sort_key_orders_components_by_order_then_position():
    comps = [ComponentSym("u", mi(s)) for s in ("11", "10", "00", "01")]
    ordered = sorted(comps, key=sort_key)
    assert [str(c.index) for c in ordered] == ["00", "01", "10", "11"]


# -- canonicalization -------------------------------------------------------------

def test_canonicalize_flattens_and_sorts_sums():
    e = Sum((Sum((VecSym("v_2"), VecSym("v_1"))), PointSym("x")))
    assert canonicalize(e) == Sum((PointSym("x"), VecSym("v_1"), VecSym("v_2")))


def test_canonicalize_collapses_trivial_nodes():
    assert canonicalize(Sum((VecSym("v_1"),))) == VecSym("v_1")
    empty = DeltaTerm((), "f", PointSym("x"))
    assert canonicalize(empty) == App("f", PointSym("x"))


@settings(max_examples=300)
@given(exprs())
def test_canonicalize_is_idempotent(e):
    c = canonicalize(e)
    assert canonicalize(c) == c


@settings(max_examples=300)
@given(exprs())
def test_canonicalize_preserves_order(e):
    assert order_of(canonicalize(e)) == order_of(e)


# -- generated expansions ----------------------------------------------------------

def test_tangent_expansion_of_the_square():
    assert expand_tangent(mi("11")) == canonicalize(ref.TANGENT_11)


def test_tangent_expansion_of_the_cube():
    got = expand_tangent(mi("111"))
    assert got == canonicalize(ref.TANGENT_111)
    assert len(got.terms) == 5


def test_chain_expansion_of_the_square():
    assert expand_chain(mi("11")) == canonicalize(ref.CHAIN_11)


def test_chain_expansion_of_the_cube():
    got = expand_chain(mi("111"))
    assert got == canonicalize(ref.CHAIN_111)
    assert len(got.terms) == 5


def test_main_part_keeps_one_term_per_partition_at_base_order():
    assert main_part(mi("11")) == canonicalize(ref.MAIN_11)
    assert main_part(mi("111")) == canonicalize(ref.MAIN_111)


@pytest.mark.parametrize("k", range(1, 6))
def test_expansions_have_one_term_per_partition(k):
    alpha = MultiIndex.ones(k)
    tangent = expand_tangent(alpha)
    chain = expand_chain(alpha)
    n = bell_number(k)
    if n == 1:
        tangent, chain = Sum((tangent,)), Sum((chain,))
    assert len(tangent.terms) == n
    assert len(chain.terms) == n


@pytest.mark.parametrize("k", range(1, 6))
def test_chain_terms_are_homogeneous_of_full_order(k):
    """Every term of the composite expansion has order exactly k: each
    direction sum is dominated by its lowest-order member, which is the
    block itself, and block orders add up to k."""
    alpha = MultiIndex.ones(k)
    chain = expand_chain(alpha)
    terms = chain.terms if isinstance(chain, Sum) else (chain,)
    for t in terms:
        assert order_of(t) == k
    main = main_part(alpha)
    main_terms = main.terms if isinstance(main, Sum) else (main,)
    for t in main_terms:
        assert order_of(t) == k


def test_expansion_handles_sparse_multi_indices():
    sparse = expand_tangent(mi("101"))
    assert len(sparse.terms) == bell_number(2)
    for term in sparse.terms:
        for d in term.directions:
            comps = d.terms if isinstance(d, Sum) else (d,)
            for c in comps:
                assert c.index <= mi("101")


# Every alpha of dimension 1..5; at 1000000001 and 0100000001 the inner
# differences list v_10, which sorts before v_2 by name.
_EXPANSION_ALPHAS = [
    *(MultiIndex.from_bits(bits) for dim in range(1, 6) for bits in product((0, 1), repeat=dim)),
    mi("1111111"),
    mi("1000000001"),
    mi("0100000001"),
]


@pytest.mark.parametrize("alpha", _EXPANSION_ALPHAS, ids=str)
def test_expansions_are_the_reference_nodes_and_canonical(alpha):
    # expand_tangent, expand_chain and main_part each return the reference
    # pipeline's node itself, and canonicalize returns it unchanged.
    assert expref.differences(alpha) == []


def test_inner_differences_list_their_vectors_in_name_order():
    chain = render(expand_chain(mi("0100000001")))
    assert "Δ^2_{v_10, v_2} g(x)" in chain


def test_main_part_of_the_index_with_no_digits_is_the_reference_node():
    e = MultiIndex.empty()
    chain = App("f", App("g", PointSym("x")))
    tangent = App("f", ComponentSym("u", e))
    assert expand_chain(e) is main_part(e) is chain
    assert expand_tangent(e) is tangent
    assert expref.differences(e) == []

    f = RandomRationalMap(5, 2, 2)
    g = RandomRationalMap(6, 2, 2)
    x = (Fraction(1, 3), Fraction(-2, 7))
    want = evaluate_delta(lambda p: f(g(p)), x, [])
    assert eval_expr(expand_chain(e), {"f": f, "g": g, "x": x}) == want
    assert eval_expr(main_part(e), {"f": f, "g": g, "x": x}) == want
    c = Cuboid(0, (x,))
    assert eval_expr(tangent, {"f": f, "u": c}) == discrete_tangent(f, c).component(e)


def test_a_json_component_with_the_empty_index_round_trips():
    root = {"node": "component", "cuboid": "u", "index": ""}
    u_0 = parse(json.dumps({"version": 1, "root": root}), "json")
    assert u_0 is ComponentSym("u", MultiIndex.empty())
    tangent = expand_tangent(MultiIndex.empty())
    assert parse(render(tangent, "json"), "json") is tangent
    assert parse(render(tangent), dim=0) is tangent


def test_expansions_are_built_without_canonicalize_or_substitution(monkeypatch):
    alphas = [MultiIndex.empty(), mi("000"), mi("0110"), *map(MultiIndex.ones, range(1, 6))]
    want = {
        alpha: (
            expref.expand_tangent_reference(alpha),
            expref.expand_chain_reference(alpha),
            expref.main_part_reference(alpha),
        )
        for alpha in alphas
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("an expansion generator walked its result again")

    def no_table(*args, **kwargs):
        raise AssertionError("an expansion generator read a partition table or an ASetFamily")

    monkeypatch.setattr(symbolic, "canonicalize", forbidden)
    monkeypatch.setattr(symbolic, "substitute_components", forbidden)
    monkeypatch.setattr(asets, "build_asets", no_table)
    monkeypatch.setattr(asets, "enumerate_partitions", no_table)
    monkeypatch.setattr(combinatorics, "enumerate_partitions", no_table)
    for cache in (expand_tangent, expand_chain, main_part, symbolic._row_terms, asets._ones_families, combinatorics.mask_rank):
        cache.cache_clear()
    for i, alpha in enumerate(alphas):
        tangent, chain, main = want[alpha]
        assert expand_chain(alpha) is chain
        assert main_part(alpha) is main
        # expand_chain no longer builds, or caches, the tangent expansion.
        assert expand_tangent.cache_info().currsize == i
        assert expand_tangent(alpha) is tangent


_EXPANSIONS = {"tangent": expand_tangent, "chain": expand_chain, "main": main_part}


@pytest.mark.parametrize("kind", _EXPANSIONS)
@pytest.mark.parametrize("dim", range(7))
def test_row_r_of_an_expansion_is_the_term_of_partition_r(kind, dim):
    # Every alpha of dimension dim, zero digits included: row r has one
    # direction per block of partition r, is the reference's term r built
    # from family r of build_asets (partition r's blocks for the main part),
    # and the rows sorted are the expansion.
    for bits in product((0, 1), repeat=dim):
        alpha = MultiIndex.from_bits(bits)
        rows = symbolic._row_terms(alpha, kind)
        partitions = combinatorics.enumerate_partitions(alpha)
        assert len(rows) == len(partitions) == bell_number(alpha.order)
        assert [len(t.directions) if isinstance(t, DeltaTerm) else 0 for t in rows] == [len(p.blocks) for p in partitions]
        assert list(rows) == expref.reference_rows(alpha, kind)
        want = rows[0] if len(rows) == 1 else Sum(tuple(sorted(rows, key=sort_key)))
        assert _EXPANSIONS[kind](alpha) is want


@pytest.mark.parametrize(
    "call",
    [
        lambda: expand_tangent("11"),
        lambda: expand_chain("11"),
        lambda: main_part("11"),
        lambda: expand_chain(2),
    ],
    ids=["tangent-str", "chain-str", "main-str", "chain-int"],
)
def test_generators_reject_malformed_input_with_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_substitute_components():
    e = Sum((ComponentSym("u", mi("10")), App("f", ComponentSym("u", mi("01")))))
    out = substitute_components(e, lambda c: VecSym(f"s_{c.index.mask}"))
    assert out == Sum((VecSym("s_1"), App("f", VecSym("s_2"))))


# -- rendering ---------------------------------------------------------------------

def test_text_rendering_of_the_square_formulas():
    assert (
        render(expand_tangent(mi("11")))
        == "Δ_{u_{1,2}} f(u_0 + u_2 + u_1) + Δ^2_{u_2, u_1} f(u_0)"
    )
    assert render(expand_chain(mi("11"))) == (
        "Δ_{Δ^2_{v_1, v_2} g(x)} f(g(x) + Δ_{v_1} g(x) + Δ_{v_2} g(x))"
        " + Δ^2_{Δ_{v_1} g(x), Δ_{v_2} g(x)} f(g(x))"
    )


def test_latex_rendering_of_the_square_formula():
    assert render(expand_tangent(mi("11")), "latex") == (
        "\\Delta_{u_{1,2}} f(u_0 + u_2 + u_1)"
        " + \\Delta^{2}_{u_2, u_1} f(u_0)"
    )


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(PointSym("x"), "html")


def test_json_rendering_has_a_versioned_envelope():
    doc = json.loads(render(expand_chain(mi("11")), "json"))
    assert doc["version"] == 1
    assert doc["root"]["node"] == "sum"


# -- serialization round trips -------------------------------------------------------

@settings(max_examples=300)
@given(exprs())
def test_object_round_trip(e):
    assert expr_from_obj(expr_to_obj(e)) == e


@settings(max_examples=300)
@given(exprs())
def test_json_round_trip_of_random_expressions(e):
    assert parse(render(e, "json"), "json") == e


numerals = st.integers(0, 10**25).map(str)


def grammar_texts():
    # Strings of the text grammar with arbitrary numerals, so generated
    # inputs reach past the tokenizer and into every parser rule.
    leaves = st.one_of(
        st.sampled_from(["x", "y", "v_1", "w", "0"]),
        numerals.map(lambda n: f"u_{n}"),
        st.lists(numerals, min_size=1, max_size=3).map(lambda ns: "u_{" + ",".join(ns) + "}"),
    )

    def extend(children):
        return st.one_of(
            st.tuples(names, children).map(lambda t: f"{t[0]}({t[1]})"),
            st.lists(children, min_size=1, max_size=3).map(" + ".join),
            st.tuples(numerals, st.lists(children, min_size=1, max_size=3), names, children).map(
                lambda t: f"Δ^{t[0]}_{{{', '.join(t[1])}}} {t[2]}({t[3]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def edited(draw, texts):
    # One slice of a string replaced by arbitrary text.
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(st.text(max_size=3)) + text[j:]


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)


json_values = st.recursive(
    json_leaves, lambda c: st.lists(c, max_size=4) | st.dictionaries(st.text(max_size=5), c, max_size=4)
)


def node_values():
    # Dicts shaped like expression nodes with any JSON in their fields.
    def extend(children):
        subtree = children | json_values
        return st.fixed_dictionaries(
            {"node": st.sampled_from(["point", "vector", "component", "apply", "delta", "sum", "other"]) | json_leaves},
            optional={
                "name": json_leaves,
                "cuboid": json_leaves,
                "index": st.text("01", max_size=4) | json_leaves,
                "func": json_leaves,
                "alpha": st.lists(st.integers(-1, 3) | json_leaves, max_size=3) | json_leaves,
                "arg": subtree,
                "base": subtree,
                "directions": st.lists(subtree, max_size=3) | subtree,
                "terms": st.lists(subtree, max_size=3) | subtree,
            },
        )

    return st.recursive(json_leaves, extend, max_leaves=12)


def parses_or_raises_value_error(text: str, fmt: str) -> None:
    try:
        parse(text, fmt)
    except ValueError:
        pass


@settings(max_examples=500)
@given(st.text() | grammar_texts() | edited(grammar_texts()))
def test_any_text_parses_or_raises_value_error(text):
    parses_or_raises_value_error(text, "text")


@settings(max_examples=500)
@given(json_values | node_values().map(lambda root: {"version": 1, "root": root}))
def test_any_json_value_parses_or_raises_value_error(value):
    parses_or_raises_value_error(json.dumps(value), "json")


@pytest.mark.parametrize("k", range(1, 5))
def test_json_round_trip_of_generated_formulas(k):
    alpha = MultiIndex.ones(k)
    for e in (expand_tangent(alpha), expand_chain(alpha), main_part(alpha)):
        assert parse(render(e, "json"), "json") == e


@pytest.mark.parametrize("k", range(1, 4))
def test_text_round_trip_of_generated_formulas(k):
    alpha = MultiIndex.ones(k)
    for e in (expand_tangent(alpha), expand_chain(alpha)):
        assert parse(render(e, "text"), dim=k) == e


@pytest.mark.parametrize("k", range(1, 6))
def test_parsing_a_rendered_expansion_returns_the_expansion_itself(k):
    # Every nonzero alpha of dimension k, sparse ones included.
    for mask in range(1, 1 << k):
        alpha = MultiIndex(k, mask)
        for e in (expand_tangent(alpha), expand_chain(alpha), main_part(alpha)):
            assert parse(render(e), dim=k) is e
            assert parse(render(e, "json"), "json") is e


@st.composite
def shared_exprs(draw):
    # Expressions built from reused subterms, so that equal subtrees repeat.
    pool = draw(st.lists(exprs(2), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 4))):
        pick = st.sampled_from(pool)
        pool.append(
            draw(
                st.one_of(
                    st.tuples(names, pick).map(lambda t: App(*t)),
                    st.lists(pick, min_size=1, max_size=4).map(lambda ts: Sum(tuple(ts))),
                    st.tuples(st.lists(pick, min_size=1, max_size=3), names, pick).map(
                        lambda t: DeltaTerm(tuple(t[0]), t[1], t[2])
                    ),
                )
            )
        )
    return pool[-1]


@settings(max_examples=300)
@given(shared_exprs())
def test_json_parse_of_shared_subtrees_returns_the_expression_itself(e):
    assert parse(render(e, "json"), "json") is e


# Text that repeats a span, so that the readers' lookups of repeated terms run.
shared_texts = shared_exprs().map(render)
reader_inputs = st.one_of(
    st.text(),
    grammar_texts(),
    edited(grammar_texts()),
    edited(edited(grammar_texts())),
    shared_texts,
    edited(shared_texts),
)
reader_dims = (None, 0, 1, 2, 3, 5)


@settings(max_examples=500)
@given(reader_inputs, st.sampled_from(reader_dims))
def test_the_text_reader_matches_the_reference_reader(text, dim):
    # Only a numeral over 4,300 digits reads differently: the library
    # rejects it by its length, the reference passes it to int.
    assume(not re.search(r"\d{4301}", text))
    assert parse_reference.reader_difference(text, dim) is None


@pytest.mark.parametrize(
    "text",
    [
        "Δ^100000_{u_{1u_{65537})",
        "1u_70000",
        "0u_70000",
        "a1u_3",
        "u_٣",
        "٣u_2",
        "Δ ^ { 2 } _ { v_1 , v_2 } f ( x )",
        "f(x) + f(x",
        "f(x) + f(x))",
        "Δ_{f(x)} g(f(x)",
        "f(x}",
        "v + v_",
        "v + vv_",
        "v + v (x)",
        "a + ab(f(x))",
        "g(x) + g(x)(y)",
        "v_1 + v_12",
        "u_{1,2} + u_{1,2",
        "Δ_{v} f(x) + Δ_{v} f(x",
        "Δ^2_{v, w} f(x) + Δ^{2}_{v, w} f(x)",
        "f(g(x)) + f(g(x)",
    ],
    ids=[
        "cuboid-after-a-number-in-an-open-subscript",
        "cuboid-after-a-number",
        "cuboid-after-zero",
        "cuboid-letter-inside-a-name",
        "non-ascii-digit-subscript",
        "non-ascii-digit-before-the-cuboid",
        "spaces-between-all-tokens",
        "unclosed-application",
        "extra-closing-parenthesis",
        "unclosed-difference-base",
        "brace-closing-a-parenthesis",
        "symbol-again-before-an-open-subscript",
        "symbol-as-the-head-of-a-longer-name",
        "symbol-again-before-a-parenthesis",
        "symbol-as-the-head-of-a-nested-application",
        "application-again-before-a-parenthesis",
        "subscript-again-with-more-digits",
        "component-again-unclosed",
        "difference-again-unclosed",
        "difference-again-with-a-braced-exponent",
        "nested-application-again-unclosed",
    ],
)
def test_the_text_reader_matches_the_reference_reader_on(text):
    for dim in reader_dims:
        assert parse_reference.reader_difference(text, dim) is None


@pytest.mark.parametrize(
    "text, dim",
    [("u_0", 10**20), ("u_1", 2**40), ("x", combinatorics.MAX_DIM + 1)],
    ids=["u_0-at-1e20", "u_1-at-2^40", "x-one-past-the-limit"],
)
def test_a_dim_above_the_limit_is_rejected_before_any_text_is_read(text, dim):
    limit = combinatorics.MAX_DIM
    with pytest.raises(ValueError, match="^" + re.escape(f"dim must be an int in [0, {limit}], not {dim!r}") + "$"):
        parse(text, dim=dim)
    assert parse("u_1", dim=limit) is ComponentSym("u", MultiIndex(limit, 1))


@pytest.mark.parametrize("digits", [4301, 10**6], ids=["4301", "1e6"])
@pytest.mark.parametrize("int_limit", [None, 0], ids=["default-limit", "no-limit"])
def test_a_numeral_over_4300_digits_is_rejected_by_its_length(digits, int_limit):
    n = "1" * digits
    texts = [
        (f"u_{n}", None),
        (f"u_{n}", 3),
        (f"u_{{1,{n}}}", 3),
        (f"Δ^{n}_{{v}} f(x)", None),
        (f"Δ^{{{n}}}_{{v}} f(x)", None),
    ]
    limit = sys.get_int_max_str_digits()
    if int_limit is not None:
        sys.set_int_max_str_digits(int_limit)
    try:
        for text, dim in texts:
            with pytest.raises(ValueError, match=f"^number too long: {digits} digits$"):
                parse(text, dim=dim)
        # One digit fewer keeps the message a number of that size gets.
        with pytest.raises(ValueError, match=f"^component position 1{{4300}} outside dimension 3$"):
            parse("u_" + "1" * 4300, dim=3)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("wrap", ["{}", "f({})"], ids=["bare", "argument"])
def test_a_numeral_where_a_term_starts_is_named_by_its_length_past_4300_digits(wrap):
    with pytest.raises(ValueError, match="^number too long: 100000 digits$"):
        parse(wrap.format("1" * 100000))
    with pytest.raises(ValueError, match="^unexpected number '1{4300}'$"):
        parse(wrap.format("1" * 4300))


def test_equal_text_in_different_positions_parses_to_one_node():
    e = parse("f(g(x)) + Δ^2_{f(g(x)), f( g (x) )} h(f(g(x)) + v_1) + Δ^2_{f(g(x)), f( g (x) )} h(f(g(x)) + v_1)")
    inner = e.terms[0]
    assert inner == App("f", App("g", PointSym("x")))
    assert e.terms[1] is e.terms[2]
    assert e.terms[1].directions == (inner, inner)
    assert e.terms[1].base.terms[0] is inner
    components = parse("u_{1,3} + Δ_{u_{1,3}} f(u_{1,3} + u_0)", dim=3)
    assert components.terms[0] is components.terms[1].directions[0] is components.terms[1].base.terms[0]


@pytest.mark.parametrize(
    "text, message",
    [
        ("f(x) + f(x", "expected rparen, got None (None) at token 8"),
        ("f(x) + f(x))", "trailing input from token 9"),
        ("Δ_{f(x)} g(f(x)", "expected rparen, got None (None) at token 14"),
        ("f(x}", "expected rparen, got rbrace ('}') at token 3"),
    ],
)
def test_unbalanced_brackets_raise_the_parser_error(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_text_parse_needs_dim_when_no_component_has_a_position():
    with pytest.raises(ValueError, match="cannot infer the dimension of u_0.*pass dim"):
        parse("u_0")
    with pytest.raises(ValueError, match="cannot infer the dimension of u_0.*pass dim"):
        parse("Δ_{v_1} f(u_0)")
    assert parse("u_0", dim=2) is ComponentSym("u", MultiIndex.zero(2))
    assert parse("f(x)") is App("f", PointSym("x"))


def test_text_parse_infers_the_dimension():
    e = expand_tangent(mi("111"))
    assert parse(render(e)) == e


def test_text_parse_rejects_mismatched_exponent():
    with pytest.raises(ValueError):
        parse("Δ^3_{v_1, v_2} g(x)", dim=2)


def test_text_parse_rejects_trailing_garbage():
    with pytest.raises(ValueError):
        parse("f(x) )", dim=1)


def test_json_parse_rejects_bad_envelope():
    with pytest.raises(ValueError):
        parse(json.dumps({"root": {"node": "point", "name": "x"}}), "json")
    with pytest.raises(ValueError):
        parse(json.dumps({"version": 2, "root": {}}), "json")


_POINT = {"node": "point", "name": "x"}


_MALFORMED_NODES = pytest.mark.parametrize(
    "root, message",
    [
        ({"node": "point"}, "point node lacks the field 'name'"),
        ({"node": "vector", "name": 3}, "vector node has a field of the wrong type"),
        ({"node": "component", "cuboid": "u"}, "component node lacks the field 'index'"),
        ({"node": "component", "cuboid": "u", "index": 101}, "component node has a field of the wrong type"),
        ({"node": "apply", "func": "f"}, "apply node lacks the field 'arg'"),
        ({"node": "apply", "func": "f", "arg": "x"}, "malformed expression node: 'x'"),
        ({"node": "apply", "func": "f", "arg": [_POINT]}, "malformed expression node: [{'node': 'point', 'name': 'x'}]"),
        ({"node": "sum"}, "sum node lacks the field 'terms'"),
        ({"node": "sum", "terms": _POINT}, "sum node has a field of the wrong type"),
        ({"node": "sum", "terms": [_POINT, None]}, "malformed expression node: None"),
        (
            {"node": "delta", "alpha": [True], "directions": [_POINT], "func": "f", "base": _POINT},
            "delta node has a field of the wrong type",
        ),
        (
            {"node": "delta", "alpha": [1.0], "directions": [_POINT], "func": "f", "base": _POINT},
            "alpha entries must be nonnegative integers",
        ),
        (
            {"node": "delta", "alpha": [-1], "directions": [_POINT], "func": "f", "base": _POINT},
            "alpha entries must be nonnegative integers",
        ),
        (
            {"node": "delta", "alpha": 1, "directions": [_POINT], "func": "f", "base": _POINT},
            "delta node has a field of the wrong type",
        ),
        (
            {"node": "delta", "alpha": [1, 1], "directions": [_POINT], "func": "f", "base": _POINT},
            "alpha and directions must have equal length",
        ),
        (
            {"node": "delta", "alpha": [1 << 15, 1 + (1 << 15)], "directions": [_POINT, _POINT], "func": "f", "base": _POINT},
            "a difference along more than 65536 directions",
        ),
        ({"node": "delta", "alpha": [1], "func": "f", "base": _POINT}, "delta node lacks the field 'directions'"),
        ({"node": "delta", "alpha": [1], "directions": [_POINT], "base": _POINT}, "delta node lacks the field 'func'"),
        ({"node": "delta", "alpha": [1], "directions": [_POINT], "func": "f"}, "delta node lacks the field 'base'"),
        (
            {"node": "delta", "alpha": [1], "directions": [_POINT], "func": ["f"], "base": _POINT},
            "delta node has a field of the wrong type",
        ),
    ],
    ids=[
        "point-without-name",
        "integer-name",
        "component-without-index",
        "integer-index",
        "apply-without-arg",
        "string-arg",
        "list-arg",
        "sum-without-terms",
        "terms-not-a-list",
        "null-term",
        "boolean-alpha",
        "float-alpha",
        "negative-alpha",
        "alpha-not-a-list",
        "alpha-longer-than-directions",
        "alpha-summing-above-the-limit",
        "delta-without-directions",
        "delta-without-func",
        "delta-without-base",
        "list-func",
    ],
)


@_MALFORMED_NODES
def test_json_parse_rejects_malformed_nodes(root, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(json.dumps({"version": 1, "root": root}), "json")


@_MALFORMED_NODES
def test_expr_from_obj_rejects_malformed_nodes_as_parse_does(root, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        expr_from_obj(root)


@pytest.mark.parametrize(
    "extra",
    [{"a": 1}, {"node": "bogus"}, {"version": 1, "root": 0}, [{"b": None}]],
    ids=["object", "node-shaped-object", "envelope-shaped-object", "list-of-objects"],
)
def test_a_node_with_an_extra_field_holding_an_object_parses_to_its_node(extra):
    node = dict(_POINT, meta=extra)
    for root, want in ((node, PointSym("x")), ({"node": "apply", "func": "f", "arg": node}, App("f", PointSym("x")))):
        assert parse(json.dumps({"version": 1, "root": root}), "json") is want
        assert expr_from_obj(root) is want


def test_json_alpha_lists_each_direction_that_many_times():
    v_1, v_2, v_3 = ({"node": "vector", "name": f"v_{i}"} for i in (1, 2, 3))

    def delta(alpha, directions):
        root = {"node": "delta", "alpha": alpha, "directions": directions, "func": "f", "base": _POINT}
        return parse(json.dumps({"version": 1, "root": root}), "json")

    a = delta([2, 0, 1], [v_3, v_2, v_1])
    b = delta([1, 1, 1], [v_3, v_3, v_1])
    assert a is b
    assert render(a) == "Δ^3_{v_3, v_3, v_1} f(x)"
    assert order_of(a) == 3
    assert render(canonicalize(a)) == "Δ^3_{v_1, v_3, v_3} f(x)"


def test_an_envelope_with_a_node_key_parses_to_its_root():
    doc = {"version": 1, "root": _POINT, "node": "point", "name": "y"}
    assert parse(json.dumps(doc), "json") is PointSym("x")
    # A node carrying a root field is not taken for an envelope either.
    doc = {"version": 1, "root": {"node": "apply", "func": "f", "arg": dict(_POINT, root=0)}}
    assert parse(json.dumps(doc), "json") is App("f", PointSym("x"))


@pytest.mark.parametrize("bad_alpha", [[True], [1.0]], ids=["boolean", "float"])
@pytest.mark.parametrize("bad_first", [False, True], ids=["after", "before"])
def test_json_parse_never_merges_equal_values_of_other_types(bad_alpha, bad_first):
    good = {"node": "delta", "alpha": [1], "directions": [_POINT], "func": "f", "base": _POINT}
    terms = [good, dict(good, alpha=bad_alpha)]
    if bad_first:
        terms.reverse()
    with pytest.raises(ValueError):
        parse(json.dumps({"version": 1, "root": {"node": "sum", "terms": terms}}), "json")


def _nested_apply_envelope(depth: int) -> str:
    # Built as text: json.dumps itself cannot encode this depth.
    opening = '{"node": "apply", "func": "f", "arg": ' * depth
    return '{"version": 1, "root": ' + opening + '{"node": "vector", "name": "v"}' + "}" * depth + "}"


@pytest.mark.parametrize(
    "text, fmt",
    [
        ("f(" * 2000 + "x" + ")" * 2000, "text"),
        (_nested_apply_envelope(1200), "json"),
        ("[" * 100000 + "]" * 100000, "json"),
    ],
    ids=["text-parentheses", "json-apply-nodes", "json-arrays"],
)
def test_parse_rejects_too_deep_nesting_with_value_error(text, fmt):
    with pytest.raises(ValueError, match="^nesting too deep$"):
        parse(text, fmt)


def test_expr_from_obj_rejects_too_deep_nesting_with_value_error():
    root = {"node": "vector", "name": "v"}
    for _ in range(5000):
        root = {"node": "apply", "func": "f", "arg": root}
    with pytest.raises(ValueError, match="^nesting too deep$"):
        expr_from_obj(root)


def test_a_field_error_900_levels_down_is_reported_by_both_readers():
    # One frame per level: a helper between levels would say "nesting too deep".
    text = _nested_apply_envelope(900).replace('{"node": "vector", "name": "v"}', '{"node": "point"}')
    with pytest.raises(ValueError, match="^point node lacks the field 'name'$"):
        parse(text, "json")
    with pytest.raises(ValueError, match="^point node lacks the field 'name'$"):
        expr_from_obj(json.loads(text)["root"])


def test_json_nesting_within_the_recursion_limit_still_parses():
    e = parse(_nested_apply_envelope(900), "json")
    depth = 0
    while isinstance(e, App):
        e, depth = e.arg, depth + 1
    assert depth == 900 and e == VecSym("v")


def test_every_pass_handles_900_deep_nesting():
    e = parse(_nested_apply_envelope(900), "json")
    text = "f(" * 900 + "v" + ")" * 900
    assert canonicalize(e) is e
    assert sort_key(e)[:2] == (3, "f")
    assert order_of(e) == 0
    assert substitute_components(e, lambda c: c) is e
    assert eval_expr(e, {"f": lambda p: p, "v": (Fraction(1),)}) == (Fraction(1),)
    assert render(e) == text
    assert render(e, "latex") == text
    assert parse(render(e, "json"), "json") is e
    deep_text = "g(" * 900 + "x" + ")" * 900
    assert render(parse(deep_text)) == deep_text


def _deep_app(depth: int):
    e = VecSym("v")
    for _ in range(depth):
        e = App("f", e)
    return e


def _deep_sum(depth: int):
    e = VecSym("v")
    for _ in range(depth):
        e = Sum((e,))
    return e


def _deep_delta(depth: int):
    e = PointSym("x")
    for _ in range(depth):
        e = DeltaTerm((VecSym("v"),), "f", e)
    return e


def test_canonicalize_of_operands_equal_far_down_raises_nesting_too_deep():
    # Sorting compares the keys of the two 5,000-deep chains, nested tuples
    # that differ only at the bottom, recursively.
    v, w = VecSym("v"), VecSym("w")
    for _ in range(5000):
        v, w = App("f", v), App("f", w)
    with pytest.raises(ValueError, match="^nesting too deep$"):
        canonicalize(Sum((w, v)))


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


@pytest.mark.parametrize(
    "build, depth, order, text",
    [
        (_deep_app, 5000, 0, "f(" * 5000 + "v" + ")" * 5000),
        (_deep_sum, 5000, 1, "v"),
        (_deep_delta, 3000, 1, "Δ_{v} f(" * 3000 + "x" + ")" * 3000),
    ],
    ids=["app-chain", "nested-sum", "delta-base-chain"],
)
def test_every_pass_walks_nesting_far_beyond_the_recursion_limit(build, depth, order, text):
    e = build(depth)
    assert order_of(e) == order
    assert sort_key(e)[0] == sort_key(build(1))[0]
    assert canonicalize(canonicalize(e)) is canonicalize(e)
    assert substitute_components(e, lambda c: c) is e
    assert render(e) == text
    assert render(e, "latex") == text.replace("Δ", "\\Delta")
    one = (Fraction(1),)
    assert eval_expr(e, {"f": lambda p: p, "v": one, "x": one}) == one
    # Only the recursive object form keeps the limit, as its documented error.
    with pytest.raises(ValueError, match="^nesting too deep$"):
        expr_to_obj(e)
    # Indented JSON grows with the square of the depth (about 100 MB for the
    # 5,000-deep chain), so it is rendered 300 deep under a recursion limit
    # that a pass taking one frame per level would exceed.
    shallow = build(300)
    want = json.dumps({"version": 1, "root": expr_to_obj(shallow)}, indent=2, sort_keys=True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    tracemalloc.start()
    try:
        got = render(shallow, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    assert got == want
    # Each level's text is dropped once its parent holds it; keeping every
    # level's would take about depth / 2 times the output.
    assert peak < 8 * len(got)


@pytest.mark.parametrize(
    "build, bad",
    [(lambda: App("f", 3), 3), (lambda: Sum(([1],)), [1])],
    ids=["int-arg", "list-term"],
)
def test_every_pass_rejects_a_child_that_is_not_an_expression(build, bad):
    # A node over a non-expression is never built, so a pass meets one only
    # as the root it is given.
    with pytest.raises(ValueError, match=f"^not an expression: {re.escape(repr(bad))}$"):
        build()
    passes = [
        order_of,
        sort_key,
        canonicalize,
        lambda e: substitute_components(e, lambda c: c),
        render,
        lambda e: render(e, "latex"),
        lambda e: render(e, "json"),
    ]
    for run in passes:
        with pytest.raises(TypeError, match="^not an expression: "):
            run(bad)
    with pytest.raises(EvaluationError, match="^not an expression: "):
        eval_expr(bad, {"f": lambda p: p})

    def broken(p):
        raise TypeError("inside the map")

    # Only the walk's own TypeError becomes an EvaluationError.
    with pytest.raises(TypeError, match="^inside the map$"):
        eval_expr(App("f", PointSym("x")), {"f": broken, "x": (Fraction(1),)})


# -- hash-consing -------------------------------------------------------------------

def _fresh(name: str) -> str:
    # An equal string that is another object.
    return "".join(list(name))


def _build(obj: dict):
    # Construct the node of an object form directly, from fresh field values.
    kind = obj["node"]
    if kind == "point":
        return PointSym(_fresh(obj["name"]))
    if kind == "vector":
        return VecSym(_fresh(obj["name"]))
    if kind == "component":
        return ComponentSym(_fresh(obj["cuboid"]), mi(obj["index"]))
    if kind == "apply":
        return App(_fresh(obj["func"]), _build(obj["arg"]))
    if kind == "delta":
        return DeltaTerm([_build(d) for d in obj["directions"]], _fresh(obj["func"]), _build(obj["base"]))
    return Sum([_build(t) for t in obj["terms"]])


@settings(max_examples=300)
@given(exprs())
def test_independent_constructions_of_one_expression_are_one_object(e):
    obj = expr_to_obj(e)
    assert _build(obj) is _build(obj) is e


def test_copies_and_pickles_return_the_interned_node():
    e = expand_chain(mi("111"))
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e.terms[0].base) is e.terms[0].base


@pytest.mark.parametrize(
    "build",
    [
        lambda: DeltaTerm((VecSym("v_1"),), 1, PointSym("x")),
        lambda: DeltaTerm(5, "f", PointSym("x")),
        lambda: DeltaTerm(VecSym("v_1"), "f", PointSym("x")),
        lambda: Sum(5),
        lambda: Sum("xy"),
        lambda: PointSym(1),
        lambda: VecSym(None),
        lambda: ComponentSym(b"u", mi("1")),
        lambda: ComponentSym("u", "1"),
        lambda: App(("f",), PointSym("x")),
        lambda: DeltaTerm((3,), "f", PointSym("x")),
        lambda: DeltaTerm((VecSym("v_1"),), "f", "x"),
    ],
    ids=[
        "int-func",
        "int-directions",
        "node-directions",
        "int-terms",
        "str-terms",
        "int-name",
        "none-name",
        "bytes-cuboid",
        "str-index",
        "tuple-func",
        "int-direction",
        "str-base",
    ],
)
def test_fields_of_the_wrong_type_raise_value_error(build):
    # Built after a valid node with == fields, so a merge would hide the error.
    keep = DeltaTerm((VecSym("v_1"),), "f", PointSym("x"))
    with pytest.raises(ValueError):
        build()
    assert keep.directions == (VecSym("v_1"),)


def test_nodes_with_a_non_expression_child_are_not_merged():
    # 1 == True == 1.0, but none of them is a node: each is rejected where
    # its parent is built, so none is ever merged into another.
    for child in (1, True, 1.0):
        with pytest.raises(ValueError, match=f"^not an expression: {child!r}$"):
            App("f", child)
        with pytest.raises(ValueError, match=f"^not an expression: {child!r}$"):
            Sum((PointSym("x"), child))


# -- the sort key, set at the interning point -------------------------------------

def test_an_interned_node_carries_its_sort_key(monkeypatch):
    e = expand_chain(MultiIndex.ones(5))
    want = expref.reference_sort_key(e)

    def walk(root):
        raise AssertionError("sort_key walked the expression")

    monkeypatch.setattr(symbolic, "_postorder", walk)
    assert sort_key(e) == want


def test_a_key_is_made_once_per_newly_interned_node(monkeypatch):
    calls = []
    key_of = symbolic._key_of

    def counted(n):
        calls.append(n)
        return key_of(n)

    for cached in (expand_chain, expand_tangent, main_part, symbolic._row_terms):
        cached.cache_clear()
    gc.collect()
    before = set(symbolic._NODES.keys())
    monkeypatch.setattr(symbolic, "_key_of", counted)
    e = expand_chain(MultiIndex.ones(5))
    new = set(symbolic._NODES.keys()) - before
    assert new and len(calls) == len(new)
    assert {(type(n), *(getattr(n, f.name) for f in dataclasses.fields(n))) for n in calls} == new
    calls.clear()
    assert canonicalize(e) is e
    assert calls == []


def test_a_node_over_a_non_expression_is_neither_interned_nor_keyed(monkeypatch):
    keyed = []
    key_of = symbolic._key_of
    monkeypatch.setattr(symbolic, "_key_of", lambda n: keyed.append(n) or key_of(n))
    with pytest.raises(ValueError, match="^not an expression: 3$"):
        App("f", App("g", 3))
    assert keyed == []
    assert not any(3 in table_key for table_key in list(symbolic._NODES.keys()))
    for run in (sort_key, canonicalize, order_of, render):
        with pytest.raises(TypeError, match="^not an expression: 3$"):
            run(3)


def test_a_node_reduces_to_its_field_values_only():
    e = expand_chain(mi("11"))
    x = PointSym("x")
    assert e.__reduce__() == (Sum, (e.terms,))
    assert e.terms[0].__reduce__() == (DeltaTerm, (e.terms[0].directions, "f", e.terms[0].base))
    assert App("g", x).__reduce__() == (App, ("g", x))
    assert x.__reduce__() == (PointSym, ("x",))
    assert ComponentSym("u", mi("10")).__reduce__() == (ComponentSym, ("u", mi("10")))


@settings(max_examples=300)
@given(exprs())
def test_sort_key_equals_the_reference_key(e):
    assert sort_key(e) == expref.reference_sort_key(e)


def _interned_with(name: str) -> int:
    return sum(name in key[1:] for key in list(symbolic._NODES.keys()))


def test_threads_building_one_expansion_from_cold_get_one_node():
    # No other test builds the vectors v_14 to v_17, so the build starts
    # from a cold intern table.
    alpha = MultiIndex(17, 0b1111 << 13)
    gc.collect()
    assert _interned_with("v_17") == 0
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i: int) -> None:
        start.wait()
        results[i] = expand_chain.__wrapped__(alpha)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results[0] is not None
    assert all(r is results[0] for r in results)
    assert expand_chain.__wrapped__(alpha) is results[0]


def test_the_intern_lock_lets_one_builder_store_a_node(monkeypatch):
    # A table that looks the key up and then waits for the other thread to
    # miss too before storing.  Under the lock the other thread cannot get
    # in, so the wait times out and the second builder finds the node.
    first_missed, second_missed = threading.Event(), threading.Event()

    class RacyTable(weakref.WeakValueDictionary):
        def setdefault(self, key, default):
            found = self.get(key)
            if found is not None:
                return found
            if first_missed.is_set():
                second_missed.set()
            else:
                first_missed.set()
                second_missed.wait(timeout=1.0)
            self[key] = default
            return default

    monkeypatch.setattr(symbolic, "_NODES", RacyTable())
    start = threading.Barrier(2)
    results = [None, None]

    def work(i: int) -> None:
        start.wait()
        results[i] = PointSym(_fresh("xlock"))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert results[0] is not None
    assert results[0] is results[1]
    assert not second_missed.is_set()


def test_the_intern_table_forgets_dropped_nodes():
    e = App("hweak", DeltaTerm((VecSym("vweak"),), "hweak", PointSym("x")))
    assert _interned_with("hweak") == 2
    del e
    gc.collect()
    assert _interned_with("hweak") == 0
    assert _interned_with("vweak") == 0


def test_importing_the_package_builds_no_node():
    code = "import deltachain, deltachain.cli; from deltachain import symbolic; print(len(symbolic._NODES))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


# -- the JSON emitter ----------------------------------------------------------------

awkward_names = st.text(max_size=4) | st.sampled_from(['"', "\\", 'a"b\\c', "é", "Δx", "\n\t", "\u2028", "😀"])


def awkward_exprs():
    leaves = st.one_of(
        awkward_names.map(PointSym),
        awkward_names.map(VecSym),
        st.tuples(awkward_names, indices).map(lambda t: ComponentSym(*t)),
        st.builds(Sum, st.just(())),
    )

    def extend(children):
        return st.one_of(
            st.tuples(awkward_names, children).map(lambda t: App(*t)),
            st.tuples(
                st.lists(st.tuples(st.integers(0, 2), children), max_size=3),
                awkward_names,
                children,
            ).map(lambda t: DeltaTerm(tuple(d for a, d in t[0] for _ in range(a)), t[1], t[2])),
            st.lists(children, max_size=4).map(lambda ts: Sum(tuple(ts))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def shared_awkward_exprs(draw):
    # Each new node takes its children from every node drawn before it, so one
    # subtree is printed at several depths, and sums and differences may be empty.
    pool = draw(st.lists(awkward_exprs(), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        pick = st.sampled_from(pool)
        pool.append(
            draw(
                st.one_of(
                    st.tuples(awkward_names, pick).map(lambda t: App(*t)),
                    st.lists(pick, max_size=4).map(lambda ts: Sum(tuple(ts))),
                    st.tuples(st.lists(pick, max_size=3), awkward_names, pick).map(
                        lambda t: DeltaTerm(tuple(t[0]), t[1], t[2])
                    ),
                )
            )
        )
    return pool[-1]


def _deep_mixed_chain(depth: int):
    # Mostly applications, and every 20th level a difference along a vector
    # that every such level shares, a one-term sum or a difference with no
    # directions.  Indented JSON grows with the square of the depth: 17 MB here.
    v = VecSym("v")
    e = PointSym("x")
    for i in range(depth):
        e = (DeltaTerm((v,), "g", e), Sum((e,)), DeltaTerm((), "h", e))[i % 3] if i % 20 == 0 else App("f", e)
    return e


@settings(max_examples=500)
@given(awkward_exprs() | shared_awkward_exprs())
def test_json_rendering_is_json_dumps_of_the_object_form(e):
    reference = json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2, sort_keys=True)
    assert render(e, "json") == reference
    assert parse(reference, "json") is e


def test_json_rendering_of_a_chain_2000_levels_deep_is_json_dumps_of_the_object_form():
    e = _deep_mixed_chain(2000)
    # The recursive reference and json.dumps take a frame or two a level.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        reference = json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2, sort_keys=True)
    finally:
        sys.setrecursionlimit(limit)
    assert render(e, "json") == reference


@pytest.mark.parametrize("k", range(7))
def test_json_rendering_of_every_expansion_is_json_dumps_of_the_object_form(k):
    for mask in range(1 << k):
        alpha = MultiIndex(k, mask)
        for e in (expand_tangent(alpha), expand_chain(alpha), main_part(alpha)):
            assert render(e, "json") == json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2, sort_keys=True)


@pytest.mark.parametrize("expand", [expand_chain, expand_tangent], ids=["chain", "tangent"])
def test_json_rendering_of_an_order_7_expansion_holds_about_its_own_size(expand):
    e = expand(MultiIndex.ones(7))  # built before tracing
    tracemalloc.start()
    try:
        got = render(e, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Text joined at every level would hold the output about three times over.
    assert peak <= 1.7 * sys.getsizeof(got)
    assert got == json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2, sort_keys=True)

