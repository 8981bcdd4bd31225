"""The error contract for arguments: every argument a public entry point
checks is of its kind, and every count, dimension, index and exponent an
``int`` (a ``bool`` is not one) within its bounds, or the call raises
``ValueError("{name} must be {noun}, not {value}")``, written by
``combinatorics.malformed`` with the value's repr cut to 80 characters.
One row per integer argument: (id, the call, the argument's name, low,
high), with ``None`` for an open end; and one row per argument of another
kind: (id, the call, the name, the noun, the kinds the call accepts)."""

import contextlib
import io
import random
import re
from collections.abc import Callable, Iterable, Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from deltachain.asets import ASetFamily, asets_to_json, build_asets, validate
from deltachain.cli import main
from deltachain.combinatorics import (
    MAX_BELL_N,
    MAX_DIM,
    MAX_RANK_DIM,
    MultiIndex,
    Partition,
    bell_number,
    enumerate_partitions,
    mask_rank,
    refine,
)
from deltachain.cuboid import (
    Cuboid,
    PointedDirections,
    corners,
    delta,
    delta_inv,
    discrete_tangent,
    inject,
    pair,
    pointwise,
    split,
    vector_add,
    vector_neg,
    vector_sub,
    vector_sum,
)
from deltachain.numeric import (
    SUITE_NAMES,
    EvaluationError,
    RandomRationalMap,
    eval_expr,
    evaluate_delta,
    identity_suite,
    run_suite,
    scaling_slope,
    verify_chain_expansion,
    verify_scaling,
    verify_smooth_chain,
    verify_tangent_expansion,
)
from deltachain.polynomials import (
    MAX_LIFT_VARIABLES,
    Poly,
    PolynomialMap,
    _Series,
    compose,
    d_alpha,
    directional_derivative,
    iterated_directional,
    iterated_tangent_lift,
    random_polynomial_map,
    series_valuation,
    tangent_lift,
)
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
)

_TABLE = [
    ("multi-index-dim", lambda v: MultiIndex(v, 0), "dim", 0, MAX_DIM),
    ("unit-dim", lambda v: MultiIndex.unit(v, 0), "dim", 0, MAX_DIM),
    ("unit-position", lambda v: MultiIndex.unit(3, v), "position", 0, 2),
    ("ones", lambda v: MultiIndex.ones(v), "dim", 0, MAX_DIM),
    ("embed", lambda v: MultiIndex.ones(1).embed((0,), v), "dim", 0, MAX_DIM),
    ("restrict-position", lambda v: MultiIndex.zero(3).restrict((0, v)), "position", 0, 2),
    ("mask-rank", lambda v: mask_rank(v), "dim", 0, MAX_RANK_DIM),
    ("bell-number", lambda v: bell_number(v), "n", 0, MAX_BELL_N),
    ("cuboid", lambda v: Cuboid(v, ((1,), (2,))), "dim", 0, None),
    ("cuboid-build", lambda v: Cuboid.build(v, lambda m: (1,)), "dim", 0, None),
    ("from-flat-dim", lambda v: Cuboid.from_flat(v, 1, []), "dim", 0, None),
    ("from-flat-space", lambda v: Cuboid.from_flat(0, v, []), "space", 1, None),
    ("map-seed", lambda v: RandomRationalMap(v, 2, 2), "seed", None, None),
    ("map-domain", lambda v: RandomRationalMap(1, v, 2), "domain_dim", 0, None),
    ("map-codomain", lambda v: RandomRationalMap(1, 2, v), "codomain_dim", 0, None),
    ("trials", lambda v: identity_suite(1, trials=v), "trials", 1, None),
    ("chain-trials", lambda v: verify_chain_expansion(1, trials=v, kmax=2), "trials", 1, None),
    ("chain-kmax", lambda v: verify_chain_expansion(1, trials=1, kmax=v), "kmax", 1, None),
    ("tangent-trials", lambda v: verify_tangent_expansion(1, trials=v, kmax=2), "trials", 1, None),
    ("tangent-kmax", lambda v: verify_tangent_expansion(1, trials=1, kmax=v), "kmax", 1, None),
    ("suite-trials", lambda v: run_suite("theorem-b", 1, trials=v), "trials", 1, None),
    ("suite-kmax", lambda v: run_suite("smooth-chain", 1, kmax=v), "kmax", 1, None),
    ("suite-seed", lambda v: run_suite("identities", v, trials=1), "seed", None, None),
    ("identity-seed", lambda v: identity_suite(v, trials=1), "seed", None, None),
    ("variable-nvars", lambda v: Poly.variable(v, 0), "nvars", 0, MAX_LIFT_VARIABLES),
    ("variable-index", lambda v: Poly.variable(2, v), "variable index", 0, 1),
    ("partial", lambda v: Poly.variable(2, 0).partial(v), "variable index", 0, 1),
    ("poly-embed", lambda v: Poly.variable(1, 0).embed(v), "nvars", 0, MAX_LIFT_VARIABLES),
    ("make-nvars", lambda v: Poly.make(v, {}), "nvars", 0, None),
    ("constant-nvars", lambda v: Poly.constant(v, 1), "nvars", 0, None),
    ("make-exponent", lambda v: Poly.make(2, {(1, v): 1}), "exponent", 0, None),
    ("poly-power", lambda v: Poly.variable(2, 0) ** v, "exponent", 0, None),
    ("series-power", lambda v: _Series.epsilon(3) ** v, "exponent", 0, None),
    ("polynomial-map", lambda v: PolynomialMap(v, ()), "domain_dim", 0, None),
    ("tangent-lift", lambda v: iterated_tangent_lift(PolynomialMap(1, ()), v), "k", 0, None),
    ("random-map-domain", lambda v: random_polynomial_map(random.Random(1), v, 2, 2), "domain_dim", 0, None),
    ("random-map-codomain", lambda v: random_polynomial_map(random.Random(1), 2, v, 2), "codomain_dim", 0, None),
    ("random-map-degree", lambda v: random_polynomial_map(random.Random(1), 2, 2, v), "degree", 0, None),
    ("parse-dim", lambda v: parse("u_1", dim=v), "dim", 0, MAX_DIM),
]


def _cases():
    for row_id, call, name, low, high in _TABLE:
        bad = [("bool", True), ("float", 1.5), ("str", "3")]
        if low is not None:
            bad.append(("below", low - 1))
        if high is not None:
            bad.append(("above", high + 1))
        for bad_id, value in bad:
            yield pytest.param(call, name, low, high, value, id=f"{row_id}-{bad_id}")


@pytest.mark.parametrize("call, name, low, high, value", _cases())
def test_a_malformed_integer_argument_raises_one_message(call, name, low, high, value):
    bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be an int{bounds}, not {value!r}") + "$"):
        call(value)


_LIMITED = [row for row in _TABLE if row[4] is not None]


@pytest.mark.parametrize("call, high", [row[1::3] for row in _LIMITED], ids=[row[0] for row in _LIMITED])
def test_an_upper_bound_is_itself_accepted(call, high):
    call(high)


def test_bell_number_at_its_limit():
    # Touchard's congruence: B(n + p) = B(n) + B(n + 1) mod a prime p.
    assert bell_number(MAX_BELL_N) % 997 == (bell_number(3) + bell_number(4)) % 997
    with pytest.raises(ValueError, match=r"^n must be an int in \[0, 1000\], not 1001$"):
        bell_number(MAX_BELL_N + 1)


# Every public entry point that takes an alpha, through one check; the
# cached ones run it before the cache, which cannot hash a list.
_ALPHA_TAKERS = [
    ("enumerate-partitions", enumerate_partitions),
    ("expand-tangent", expand_tangent),
    ("expand-chain", expand_chain),
    ("main-part", main_part),
    ("build-asets", build_asets),
    ("asets-to-json", asets_to_json),
    ("verify-scaling", lambda a: verify_scaling(1, a)),
    ("verify-smooth-chain", lambda a: verify_smooth_chain(a, 1)),
    ("run-suite", lambda a: run_suite("scaling", 1, alpha=a)),
    ("d-alpha", lambda a: d_alpha(PolynomialMap(2, ()), [(1, 0)], a)),
    ("scaling-slope", lambda a: scaling_slope(PolynomialMap(2, ()), PolynomialMap(2, ()), (0, 0), [], a)),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{row_id}-{value_id}")
        for row_id, call in _ALPHA_TAKERS
        for value_id, value in (("list", [1, 1]), ("str", "11"), ("int", 3))
    ],
)
def test_an_alpha_that_is_not_a_multi_index_raises_one_message(call, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"alpha must be a MultiIndex, not {value!r}") + "$"):
        call(value)


class _Other:
    """An argument of a class no entry point takes."""

    def __repr__(self) -> str:
        return "<other>"


_INPUTS = (("none", None), ("str", "3"), ("list", [None]), ("bytes", b"x"), ("other", _Other()))
_ONE = Cuboid(0, ((1,),))
_TWO = Cuboid(1, ((1,), (2,)))
_P11 = Partition(MultiIndex.ones(2), (MultiIndex.ones(2),))
_ZERO = MultiIndex.zero(2)
_PLANE = PolynomialMap(2, (Poly.variable(2, 0), Poly.variable(2, 1)))
_X = PointSym("x")
_SEQUENCE = (tuple, list)

_KINDS = [
    ("from-bits", MultiIndex.from_bits, "bits", "an Iterable", Iterable),
    ("from-string", MultiIndex.from_string, "s", "a str", str),
    ("le", lambda v: MultiIndex.ones(1) <= v, "other", "a MultiIndex", MultiIndex),
    ("restrict", lambda v: MultiIndex.ones(1).restrict(v), "positions", "a tuple or a list", _SEQUENCE),
    ("embed", lambda v: MultiIndex.ones(1).embed(v, 2), "positions", "a tuple or a list", _SEQUENCE),
    ("partition-target", lambda v: Partition(v, ()), "target", "a MultiIndex", MultiIndex),
    ("partition-blocks", lambda v: Partition(MultiIndex.ones(1), v), "blocks", "a tuple or a list", _SEQUENCE),
    ("partition-block", lambda v: Partition(MultiIndex.ones(1), (v,)), "block", "a MultiIndex", MultiIndex),
    ("refine", refine, "p", "a Partition", Partition),
    ("vector-neg", vector_neg, "a", "a vector", bytes),
    ("vector-sum", vector_sum, "vectors", "a nonempty sequence", Sequence),
    ("corners", lambda v: corners((1,), v), "dirs", "a sequence of vectors", Sequence),
    ("pointed-base", lambda v: PointedDirections(v, ()), "base", "a tuple or a list", _SEQUENCE),
    ("pointed-vectors", lambda v: PointedDirections((1,), v), "vectors", "a tuple or a list", _SEQUENCE),
    ("pointed-vector", lambda v: PointedDirections((1,), (v,)), "each direction vector", "a tuple or a list", _SEQUENCE),
    ("cuboid-components", lambda v: Cuboid(0, v), "components", "a tuple or a list", _SEQUENCE),
    ("cuboid-component", lambda v: Cuboid(0, (v,)), "each component", "a tuple or a list", _SEQUENCE),
    ("cuboid-build", lambda v: Cuboid.build(1, v), "fn", "a Callable", Callable),
    ("component", _TWO.component, "index", "a MultiIndex", MultiIndex),
    ("from-flat", lambda v: Cuboid.from_flat(0, 1, v), "values", "a tuple or a list", _SEQUENCE),
    ("from-json", Cuboid.from_json, "text", "a str", str),
    ("delta", delta, "c", "a Cuboid", Cuboid),
    ("delta-inv", delta_inv, "c", "a Cuboid", Cuboid),
    ("pair-u", lambda v: pair(v, _ONE), "u", "a Cuboid", Cuboid),
    ("pair-v", lambda v: pair(_ONE, v), "v", "a Cuboid", Cuboid),
    ("split", split, "w", "a Cuboid", Cuboid),
    ("inject", inject, "p", "a PointedDirections", PointedDirections),
    ("pointwise-f", lambda v: pointwise(v, _ONE), "f", "a Callable", Callable),
    ("pointwise-c", lambda v: pointwise(tuple, v), "c", "a Cuboid", Cuboid),
    ("discrete-tangent-f", lambda v: discrete_tangent(v, _ONE), "f", "a Callable", Callable),
    ("discrete-tangent-c", lambda v: discrete_tangent(tuple, v), "c", "a Cuboid", Cuboid),
    ("validate", validate, "family", "an ASetFamily", ASetFamily),
    ("validate-partition", lambda v: validate(ASetFamily(v, {})), "the family's partition", "a Partition", Partition),
    ("validate-sets", lambda v: validate(ASetFamily(_P11, v)), "the family's sets", "a dict", dict),
    ("validate-set", lambda v: validate(ASetFamily(_P11, {_ZERO: v})), "the set of key 00", "a tuple or a list", _SEQUENCE),
    ("validate-member", lambda v: validate(ASetFamily(_P11, {_ZERO: (v,)})), "a member of the set of key 00", "a MultiIndex", MultiIndex),
    ("evaluate-delta-f", lambda v: evaluate_delta(v, (1,), []), "F", "a Callable", Callable),
    ("evaluate-delta-base", lambda v: evaluate_delta(tuple, v, []), "base", "a tuple or a list", _SEQUENCE),
    ("evaluate-delta-directions", lambda v: evaluate_delta(tuple, (1,), v), "directions", "a tuple or a list", _SEQUENCE),
    ("evaluate-delta-direction", lambda v: evaluate_delta(tuple, (1,), [v]), "each direction", "a tuple or a list", _SEQUENCE),
    ("eval-expr", lambda v: eval_expr(_X, v), "bindings", "a Mapping", Mapping),
    ("map-point", lambda v: RandomRationalMap(1, 1, 1)(v), "point", "a tuple or a list", _SEQUENCE),
    ("map-coordinate", lambda v: RandomRationalMap(1, 1, 1)((v,)), "a point coordinate", "a rational", str),
    ("scaling-slope-f", lambda v: scaling_slope(v, _PLANE, (0, 0), [], MultiIndex.empty()), "f", "a PolynomialMap", PolynomialMap),
    ("scaling-slope-g", lambda v: scaling_slope(_PLANE, v, (0, 0), [], MultiIndex.empty()), "g", "a PolynomialMap", PolynomialMap),
    ("scaling-slope-x", lambda v: scaling_slope(_PLANE, _PLANE, v, [], MultiIndex.empty()), "x", "a tuple or a list", _SEQUENCE),
    ("scaling-slope-ws", lambda v: scaling_slope(_PLANE, _PLANE, (0, 0), v, MultiIndex.empty()), "ws", "a tuple or a list", _SEQUENCE),
    ("make-coeffs", lambda v: Poly.make(2, v), "coeffs", "a Mapping", Mapping),
    ("make-key", lambda v: Poly.make(1, {v: 1}), "a monomial key", "a sequence of exponents", Iterable),
    ("make-coefficient", lambda v: Poly.make(1, {(1,): v}), "a coefficient", "a rational", str),
    ("constant", lambda v: Poly.constant(1, v), "a constant", "a rational", str),
    ("poly-call", Poly.variable(1, 0), "arguments", "a sequence", Sequence),
    ("directional", Poly.variable(1, 0).directional, "u", "a sequence", Sequence),
    ("directional-entry", lambda v: Poly.variable(1, 0).directional((v,)), "a direction entry", "a rational", str),
    ("map-components", lambda v: PolynomialMap(1, v), "components", "an Iterable", Iterable),
    ("map-component", lambda v: PolynomialMap(1, (v,)), "each component", "a Poly", Poly),
    ("compose-outer", lambda v: compose(v, _PLANE), "outer", "a PolynomialMap", PolynomialMap),
    ("compose-inner", lambda v: compose(_PLANE, v), "inner", "a PolynomialMap", PolynomialMap),
    ("directional-derivative", lambda v: directional_derivative(v, (1, 0)), "f", "a PolynomialMap", PolynomialMap),
    ("iterated-directional-f", lambda v: iterated_directional(v, []), "f", "a PolynomialMap", PolynomialMap),
    ("iterated-directional-vectors", lambda v: iterated_directional(_PLANE, v), "vectors", "a tuple or a list", _SEQUENCE),
    ("d-alpha-vectors", lambda v: d_alpha(_PLANE, v, MultiIndex.ones(1)), "vectors", "a tuple or a list", _SEQUENCE),
    ("tangent-lift", tangent_lift, "f", "a PolynomialMap", PolynomialMap),
    ("iterated-tangent-lift", lambda v: iterated_tangent_lift(v, 1), "f", "a PolynomialMap", PolynomialMap),
    ("series-valuation-lhs", lambda v: series_valuation(v, ()), "lhs", "a tuple or a list", _SEQUENCE),
    ("series-valuation-rhs", lambda v: series_valuation((), v), "rhs", "a tuple or a list", _SEQUENCE),
    ("random-map-rng", lambda v: random_polynomial_map(v, 2, 2, 2), "rng", "a Random", random.Random),
    ("point-name", PointSym, "name", "a str", str),
    ("vector-name", VecSym, "name", "a str", str),
    ("component-cuboid", lambda v: ComponentSym(v, _ZERO), "cuboid", "a str", str),
    ("component-index", lambda v: ComponentSym("u", v), "index", "a MultiIndex", MultiIndex),
    ("app-func", lambda v: App(v, _X), "func", "a str", str),
    ("delta-term-directions", lambda v: DeltaTerm(v, "f", _X), "directions", "a tuple or a list", _SEQUENCE),
    ("delta-term-func", lambda v: DeltaTerm((), v, _X), "func", "a str", str),
    ("sum-terms", Sum, "terms", "a tuple or a list", _SEQUENCE),
    ("parse", parse, "s", "a str", str),
]


@pytest.mark.parametrize(
    "call, name, noun, value",
    [
        pytest.param(call, name, noun, value, id=f"{row_id}-{value_id}")
        for row_id, call, name, noun, accepted in _KINDS
        for value_id, value in _INPUTS
        if not isinstance(value, accepted)
    ],
)
def test_an_argument_of_the_wrong_kind_raises_one_message(call, name, noun, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {noun}, not {value!r}") + "$"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vector_add("3", [None]), "cannot add '3' and [None] as vectors"),
        (lambda: vector_add(None, (1,)), "cannot add None and (1,) as vectors"),
        (lambda: vector_sub((), MultiIndex.ones(2)), "cannot subtract MultiIndex(dim=2, mask=3) from () as vectors"),
        (lambda: pointwise(None, _ONE), "f must be a Callable, not None"),
        (lambda: discrete_tangent(None, _ONE), "f must be a Callable, not None"),
        (lambda: eval_expr(expand_chain(MultiIndex.ones(1)), None), "bindings must be a Mapping, not None"),
        (lambda: eval_expr(expand_chain(MultiIndex.ones(1)), [1]), "bindings must be a Mapping, not [1]"),
        (lambda: vector_sum([]), "vectors must be a nonempty sequence, not []"),
        (lambda: MultiIndex(1, 2), "mask must be an int in [0, 2**1 - 1], not 2"),
        (lambda: MultiIndex.from_bits((1, 2)), "bits must be an Iterable of 0s and 1s, not (1, 2)"),
        (lambda: MultiIndex.from_string("102"), "s must be a bitstring, not '102'"),
        (lambda: MultiIndex.ones(2).diamond(2), "digit must be 0 or 1, not 2"),
        (lambda: MultiIndex.ones(3).restrict((1, 1)), "positions must be distinct, not (1, 1)"),
        (lambda: evaluate_delta(lambda p: None, (1, 2), [(1, 0)]), "a map returned None, not a vector"),
        (lambda: pointwise(lambda p: None, _ONE), "a map returned None, not a vector"),
        (lambda: discrete_tangent(lambda p: 3, _ONE), "a map returned 3, not a vector"),
    ],
    ids=[
        "vector-add-str", "vector-add-none", "vector-sub-index", "pointwise", "discrete-tangent", "eval-expr-none",
        "eval-expr-list", "vector-sum-empty", "mask-above", "bits-digit", "string-digit", "diamond-digit",
        "repeated-position", "evaluate-delta-map-value", "pointwise-map-value", "discrete-tangent-map-value",
    ],
)
def test_an_argument_of_another_kind_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize(
    "expr, bindings",
    [
        (expand_tangent(MultiIndex.ones(1)), {"f": lambda p: None, "u": _TWO}),
        (main_part(MultiIndex.ones(1)), {"f": RandomRationalMap(1, 2, 2), "g": lambda p: None, "x": (1, 2), "v_1": (0, 1)}),
    ],
    ids=["differenced", "applied"],
)
def test_a_map_value_with_no_items_is_an_evaluation_error(expr, bindings):
    with pytest.raises(EvaluationError, match="^a map returned None, not a vector$"):
        eval_expr(expr, bindings)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: evaluate_delta(f, (1, 2), [(1, 0)]),
        lambda f: pointwise(f, _ONE),
        lambda f: eval_expr(expand_tangent(MultiIndex.ones(1)), {"f": f, "u": _TWO}),
    ],
    ids=["evaluate-delta", "pointwise", "eval-expr"],
)
def test_a_type_error_inside_a_map_reaches_the_caller(call):
    with pytest.raises(TypeError, match="^object of type 'NoneType' has no len\\(\\)$"):
        call(lambda p: len(None))


_LONG = list(range(100000))
_HUGE = 10**5000  # more digits than CPython's str() of an int allows by default
_NAME = "x" * 100000
_ONE_TERM = expand_chain(MultiIndex.ones(1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate(_LONG), f"family must be an ASetFamily, not {repr(_LONG)[:77]}..."),
        (lambda: validate(ASetFamily(_P11, _LONG)), f"the family's sets must be a dict, not {repr(_LONG)[:77]}..."),
        (lambda: Sum(set(_LONG)), f"terms must be a tuple or a list, not {repr(set(_LONG))[:77]}..."),
        (lambda: mask_rank(_HUGE), "dim must be an int in [0, 16], not an int of 16610 bits"),
        (lambda: MultiIndex.unit(2, _HUGE), "position must be an int in [0, 1], not an int of 16610 bits"),
        (lambda: MultiIndex(2, _HUGE), "mask must be an int in [0, 2**2 - 1], not an int of 16610 bits"),
        (lambda: validate([_HUGE]), "family must be an ASetFamily, not a list that cannot be printed"),
        (lambda: vector_add(_LONG, None), f"cannot add {repr(_LONG)[:77]}... and None as vectors"),
        (lambda: vector_sub(_LONG, None), f"cannot subtract None from {repr(_LONG)[:77]}... as vectors"),
        (lambda: App("f", _LONG), f"not an expression: {repr(_LONG)[:77]}..."),
        (lambda: run_suite(_NAME, 1), f"unknown suite: {repr(_NAME)[:77]}..."),
        (lambda: render(_ONE_TERM, _NAME), f"unknown format: {repr(_NAME)[:77]}..."),
        (lambda: parse("x", _NAME), f"unknown format: {repr(_NAME)[:77]}..."),
        (lambda: expr_from_obj(_LONG), f"malformed expression node: {repr(_LONG)[:77]}..."),
        (lambda: expr_from_obj({"node": _NAME}), f"unknown node kind: {repr(_NAME)[:77]}..."),
        (lambda: vector_add(2**250, (1,)), f"cannot add {2**250} and (1,) as vectors"),
        (lambda: MultiIndex.unit(2, 10**79), f"position must be an int in [0, 1], not {10**79}"),
        (lambda: MultiIndex.unit(2, -(10**79)), "position must be an int in [0, 1], not an int of 263 bits"),
        (lambda: MultiIndex.unit(2, 2**266), "position must be an int in [0, 1], not an int of 267 bits"),
    ],
    ids=[
        "long-list", "long-sets", "long-set", "huge-dim", "huge-position", "huge-mask", "unprintable", "vector-add",
        "vector-sub", "app-argument", "suite-name", "render-format", "parse-format", "json-node", "json-node-kind",
        "int-of-76-digits", "int-of-80-characters", "int-of-81-characters", "int-of-267-bits",
    ],
)
def test_a_message_quotes_a_bounded_part_of_the_argument(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert len(message) < 200


@pytest.mark.parametrize("call", [sort_key, order_of, canonicalize], ids=["sort-key", "order-of", "canonicalize"])
def test_a_walk_of_a_value_that_is_not_a_node_quotes_a_bounded_part_of_it(call):
    # sort_key, and every pass that walks an expression's nodes, raise
    # TypeError for a root that is not a node.
    with pytest.raises(TypeError) as info:
        call(_LONG)
    assert str(info.value) == f"not an expression: {repr(_LONG)[:77]}..."
    assert len(str(info.value)) < 200


# Each subcommand's flags, with values that are well formed and values that
# are not; `verify` always gets a --trials of at most 2 and a --kmax of at
# most 3, as its defaults run for seconds.
_FLAGS = {
    "expand": [("--order", ["1", "4", "0", "9", "x"]), ("--alpha", ["101", "2", "", "1111"]), ("--format", ["text", "json", "latex", "tex"])],
    "asets": [("--order", ["1", "3", "-1"]), ("--alpha", ["1011", "0", "a"]), ("--validate", None)],
    "verify": [
        ("--suite", [*SUITE_NAMES, "bogus"]),
        ("--seed", ["1", "-3", "x"]),
        ("--alpha", ["11", "1011", "0", "", "2"]),
        ("--eps-pow-max", ["5"]),
    ],
}
_FLAGS["chain"] = _FLAGS["expand"]


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=3, unique_by=lambda f: f[0])):
        argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    if command == "verify":
        argv += ["--trials", draw(st.sampled_from(["1", "2", "0", "x"])), "--kmax", draw(st.sampled_from(["1", "3", "0", "9", "x"]))]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_the_command_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
