"""The error contract for integer and multi-index arguments: every count,
dimension, index and exponent a public entry point takes is an ``int`` (a
``bool`` is not one) within its bounds, and every ``alpha`` is a
``MultiIndex``, or the call raises ``ValueError`` with one message shape.
One row per integer argument: (id, the call, the argument's name, low,
high), with ``None`` for an open end.  An argument of another kind where a
vector, a map or bindings belong raises ``ValueError`` naming it too."""

import re

import pytest

from deltachain.asets import asets_to_json, build_asets
from deltachain.combinatorics import MAX_BELL_N, MAX_RANK_DIM, MultiIndex, bell_number, enumerate_partitions, mask_rank
from deltachain.cuboid import Cuboid, discrete_tangent, pointwise, vector_add, vector_sub
from deltachain.numeric import (
    RandomRationalMap,
    eval_expr,
    identity_suite,
    run_suite,
    verify_chain_expansion,
    verify_scaling,
    verify_smooth_chain,
    verify_tangent_expansion,
)
from deltachain.polynomials import MAX_LIFT_VARIABLES, Poly, PolynomialMap, _Series, d_alpha, iterated_tangent_lift
from deltachain.symbolic import expand_chain, expand_tangent, main_part, parse

_TABLE = [
    ("unit-dim", lambda v: MultiIndex.unit(v, 0), "dim", 0, None),
    ("unit-position", lambda v: MultiIndex.unit(3, v), "position", 0, 2),
    ("ones", lambda v: MultiIndex.ones(v), "dim", 0, None),
    ("embed", lambda v: MultiIndex.ones(1).embed((0,), v), "dim", 0, None),
    ("mask-rank", lambda v: mask_rank(v), "dim", 0, MAX_RANK_DIM),
    ("bell-number", lambda v: bell_number(v), "n", 0, MAX_BELL_N),
    ("cuboid", lambda v: Cuboid(v, ((1,), (2,))), "dim", 0, None),
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
    ("parse-dim", lambda v: parse("u_1", dim=v), "dim", 0, 1 << 16),
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
    with pytest.raises(ValueError, match="^" + re.escape(f"alpha must be a MultiIndex, not {type(value).__name__}") + "$"):
        call(value)


_ONE = Cuboid(0, ((1,),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vector_add("3", [None]), "cannot add '3' and [None] as vectors"),
        (lambda: vector_add(None, (1,)), "cannot add None and (1,) as vectors"),
        (lambda: vector_sub((), MultiIndex.ones(2)), "cannot subtract MultiIndex(dim=2, mask=3) from () as vectors"),
        (lambda: pointwise(None, _ONE), "f must be callable, not None"),
        (lambda: discrete_tangent(None, _ONE), "f must be callable, not None"),
        (lambda: eval_expr(expand_chain(MultiIndex.ones(1)), None), "bindings must be a Mapping, not None"),
        (lambda: eval_expr(expand_chain(MultiIndex.ones(1)), [1]), "bindings must be a Mapping, not [1]"),
    ],
    ids=[
        "vector-add-str", "vector-add-none", "vector-sub-index", "pointwise", "discrete-tangent", "eval-expr-none",
        "eval-expr-list",
    ],
)
def test_an_argument_of_another_kind_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
