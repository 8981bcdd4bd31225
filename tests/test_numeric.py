import hashlib
import itertools
import json
import os
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltachain import numeric
from deltachain.combinatorics import MultiIndex, enumerate_partitions
from deltachain.cuboid import Cuboid, vector_add
from deltachain.numeric import (
    DEFAULT_EPS_EXPONENTS,
    EvaluationError,
    Failure,
    RandomRationalMap,
    VerificationReport,
    derive_seed,
    eval_expr,
    evaluate_delta,
    identity_suite,
    random_cuboid,
    random_rational_vector,
    reports_to_json,
    run_suite,
    scaling_slope,
    verify_chain_expansion,
    verify_scaling,
    verify_smooth_chain,
    verify_tangent_expansion,
)
from deltachain.polynomials import Poly, PolynomialMap, random_polynomial_map
from deltachain.symbolic import App, DeltaTerm, PointSym, Sum, VecSym, expand_chain, expand_tangent, main_part, parse

import eval_reference
import remainder_verdicts as rv

mi = MultiIndex.from_string


# -- direct difference evaluation -------------------------------------------------

def square(p):
    return (p[0] * p[0],)


def test_evaluate_delta_with_no_directions_is_application():
    assert evaluate_delta(square, (Fraction(3),), []) == (9,)


def test_evaluate_delta_first_order():
    out = evaluate_delta(square, (Fraction(3),), [(Fraction(2),)])
    assert out == (25 - 9,)


def test_evaluate_delta_second_order_of_a_quadratic():
    # the second mixed difference of x^2 along u and v is exactly 2uv
    u, v = (Fraction(2),), (Fraction(5),)
    assert evaluate_delta(square, (Fraction(7),), [u, v]) == (2 * 2 * 5,)


def test_evaluate_delta_third_difference_of_a_quadratic_vanishes():
    dirs = [(Fraction(1),), (Fraction(2),), (Fraction(3),)]
    assert evaluate_delta(square, (Fraction(-4),), dirs) == (0,)


def test_evaluate_delta_repeats_directions_per_alpha():
    u, v = (Fraction(1),), (Fraction(2),)
    # a direction listed twice is differenced twice: Δ_u Δ_u x² = 2u²
    assert evaluate_delta(square, (Fraction(3),), [u, u]) == (2,)
    assert evaluate_delta(square, (Fraction(3),), [u, u, v]) == (0,)
    # a direction left out is skipped: Δ_v x² at 3 is 5² - 3²
    assert evaluate_delta(square, (Fraction(3),), [v]) == (16,)


# -- expression evaluation -----------------------------------------------------------

def test_eval_expr_full_pipeline_against_direct_difference():
    expr = expand_chain(mi("11"))
    f = RandomRationalMap(101, 2, 2)
    g = RandomRationalMap(102, 2, 2)
    x = (Fraction(1), Fraction(2))
    v1, v2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    got = eval_expr(expr, {"f": f, "g": g, "x": x, "v_1": v1, "v_2": v2})
    want = evaluate_delta(lambda p: f(g(p)), x, [v1, v2])
    assert got == want


exact_entries = st.one_of(st.integers(-10, 10), st.fractions(min_value=-10, max_value=10, max_denominator=8))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(exact_entries, exact_entries), min_size=1, max_size=12))
def test_eval_expr_sums_exact_vectors_like_pairwise_addition(vectors):
    """Value and coordinate types both match adding the terms pairwise."""
    names = [f"w_{i}" for i in range(len(vectors))]
    got = eval_expr(Sum(tuple(VecSym(n) for n in names)), dict(zip(names, vectors)))
    want = vectors[0]
    for v in vectors[1:]:
        want = vector_add(want, v)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("node", ["sum", "delta"])
def test_eval_expr_reports_a_dimension_mismatch_as_vector_add_does(node):
    x, w = PointSym("x"), VecSym("w")
    expr = Sum((x, w)) if node == "sum" else DeltaTerm((w,), "f", x)
    bindings = {"f": lambda p: p, "x": (Fraction(1, 2), 2), "w": (Fraction(1, 3),)}
    with pytest.raises(EvaluationError, match="^space dimension mismatch: 2 vs 1$"):
        eval_expr(expr, bindings)


def test_eval_expr_reports_unbound_names():
    expr = parse("f(x)", dim=1)
    with pytest.raises(EvaluationError):
        eval_expr(expr, {"f": square})


def test_eval_expr_rejects_wrong_cuboid_dimension():
    expr = parse("u_{1,2}", dim=2)
    one_dim = Cuboid.from_flat(1, 1, [Fraction(0), Fraction(1)])
    with pytest.raises(EvaluationError):
        eval_expr(expr, {"u": one_dim})


def _delta_terms(e, found):
    """Collect the distinct difference terms of a tree into ``found`` and
    return how many times a walk of the tree meets one."""
    if isinstance(e, DeltaTerm):
        found.add(e)
        return 1 + sum(_delta_terms(d, found) for d in e.directions) + _delta_terms(e.base, found)
    if isinstance(e, App):
        return _delta_terms(e.arg, found)
    if isinstance(e, Sum):
        return sum(_delta_terms(t, found) for t in e.terms)
    return 0


def _chain_bindings(k, seed):
    rng = random.Random(seed)
    f = RandomRationalMap(derive_seed(seed, "f"), 2, 2)
    g = RandomRationalMap(derive_seed(seed, "g"), 2, 2)
    x = random_rational_vector(rng, 2)
    vs = [random_rational_vector(rng, 2) for _ in range(k)]
    bindings = {"f": f, "g": g, "x": x}
    bindings.update({f"v_{i + 1}": v for i, v in enumerate(vs)})
    return bindings, lambda p: f(g(p)), x, vs


def test_eval_expr_evaluates_each_distinct_difference_once(monkeypatch):
    expr = expand_chain(MultiIndex.ones(4))
    distinct = set()
    visits = _delta_terms(expr, distinct)
    bindings, fg, x, vs = _chain_bindings(4, 5)
    want = evaluate_delta(fg, x, vs)
    calls = 0
    difference = numeric._difference

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return difference(*args, **kwargs)

    monkeypatch.setattr(numeric, "_difference", counting)
    assert eval_expr(expr, bindings) == want
    assert calls == len(distinct) < visits


def test_eval_expr_values_match_the_recorded_digest():
    # Recorded with the tuple evaluator that integer records replaced.
    h = hashlib.sha256()
    for k in range(1, 7):
        for s in range(5):
            rng = random.Random(s)
            f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
            g = RandomRationalMap(derive_seed(s, "g"), 2, 2)
            bindings = {"f": f, "g": g, "x": random_rational_vector(rng, 2)}
            bindings.update({f"v_{i + 1}": random_rational_vector(rng, 2) for i in range(k)})
            h.update(repr(eval_expr(expand_chain(MultiIndex.ones(k)), bindings)).encode())
            cub = random_cuboid(rng, k, 2)
            h.update(repr(eval_expr(expand_tangent(MultiIndex.ones(k)), {"f": f, "u": cub})).encode())
    assert h.hexdigest() == "87f1002c09d8febf9708df01f1b09db88110a2c0f43007d5ae401100b3af7a83"


def test_random_rational_map_values_match_the_recorded_digest():
    # Recorded when the memo was keyed by Fractions; the hashed text is unchanged.
    h = hashlib.sha256()
    for dim in range(4):
        f = RandomRationalMap(12345, dim, 3)
        for pt in itertools.product((0, 1, -2, Fraction(1, 3), Fraction(-7, 4), Fraction(5, 16)), repeat=dim):
            h.update(repr(f(pt)).encode())
    assert h.hexdigest() == "cf53869296e985dca29b71e8d2c3a73b7c08a6dc63e510ecaa45ad350b418d13"


@st.composite
def expansions_and_bindings(draw):
    """A chain or tangent expansion with k <= 5, leaves mixing ints and
    Fractions, and maps that are pseudorandom or other exact callables."""
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random", "type-following", "polynomial"]))
    if kind == "random":
        f, g = RandomRationalMap(derive_seed(seed, "f"), 2, 2), RandomRationalMap(derive_seed(seed, "g"), 2, 2)
    elif kind == "type-following":
        f = g = eval_reference.type_following_map
    else:
        rng = random.Random(seed)
        f, g = (random_polynomial_map(rng, 2, 2, degree=2) for _ in range(2))
    vector = st.tuples(exact_entries, exact_entries)
    if draw(st.booleans()):
        leaves = draw(st.lists(vector, min_size=k + 1, max_size=k + 1))
        bindings = {"f": f, "g": g, "x": leaves[0]}
        bindings.update({f"v_{i + 1}": v for i, v in enumerate(leaves[1:])})
        return expand_chain(MultiIndex.ones(k)), bindings
    leaves = draw(st.lists(vector, min_size=1 << k, max_size=1 << k))
    return expand_tangent(MultiIndex.ones(k)), {"f": f, "u": Cuboid(k, tuple(leaves))}


@settings(max_examples=40, deadline=None)
@given(expansions_and_bindings())
def test_eval_expr_matches_the_tuple_reference_in_value_and_type(case):
    expr, bindings = case
    got = eval_expr(expr, bindings)
    want = eval_reference.eval_expr_reference(expr, bindings)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_eval_expr_reports_an_unbound_name_in_a_shared_subtree():
    shared = DeltaTerm((VecSym("w"),), "g", PointSym("x"))
    expr = Sum((App("f", shared), DeltaTerm((shared,), "f", shared)))
    bindings = {"f": square, "g": square, "x": (Fraction(1),)}
    with pytest.raises(EvaluationError, match="unbound symbol 'w'"):
        eval_expr(expr, bindings)
    bindings["w"] = (Fraction(2),)
    inner = evaluate_delta(square, (Fraction(1),), [(Fraction(2),)])
    want = (square(inner)[0] + evaluate_delta(square, inner, [inner])[0],)
    assert eval_expr(expr, bindings) == want


def test_eval_expr_rejects_non_expressions_inside_a_tree():
    with pytest.raises(EvaluationError, match="not an expression"):
        eval_expr(Sum(([1],)), {})
    with pytest.raises(EvaluationError, match="not an expression"):
        eval_expr(App("f", 3), {"f": square})


@pytest.mark.parametrize("node", ["app", "delta"])
def test_eval_expr_reports_a_map_value_error_alike_under_every_node(node):
    f = RandomRationalMap(1, 2, 2)
    x = PointSym("x")
    expr = App("f", x) if node == "app" else DeltaTerm((VecSym("v"),), "f", x)
    with pytest.raises(EvaluationError, match="^need 2 coordinates, got 1$"):
        eval_expr(expr, {"f": f, "x": (Fraction(1),), "v": (Fraction(1),)})


def test_eval_expr_keeps_no_state_between_calls():
    expr = expand_chain(MultiIndex.ones(3))
    first, fg1, x1, vs1 = _chain_bindings(3, 11)
    second, fg2, x2, vs2 = _chain_bindings(3, 12)
    a = eval_expr(expr, first)
    b = eval_expr(expr, second)
    assert a == evaluate_delta(fg1, x1, vs1)
    assert b == evaluate_delta(fg2, x2, vs2)
    assert a != b
    assert eval_expr(expr, first) == a


# -- seeds and random sources ----------------------------------------------------------

def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_random_rational_map_is_deterministic_and_memoized():
    f = RandomRationalMap(7, 2, 3)
    g = RandomRationalMap(7, 2, 3)
    x = (Fraction(1, 3), Fraction(-2))
    assert f(x) == g(x)
    assert f(x) is f(x)  # memoized
    assert len(f(x)) == 3
    for c in f(x):
        assert -100 <= c.numerator <= 100 or 1 <= c.denominator <= 16


def test_random_rational_map_converts_non_fraction_coordinates():
    f = RandomRationalMap(7, 2, 2)
    want = f((Fraction(1), Fraction(1, 2)))
    assert f((1, Fraction(1, 2))) is want
    assert len(f._memo) == 1


def test_random_rational_map_checks_dimension():
    f = RandomRationalMap(7, 2, 1)
    with pytest.raises(ValueError):
        f((Fraction(1),))


def test_random_vector_and_cuboid_shapes():
    rng = random.Random(3)
    v = random_rational_vector(rng, 4, bound=2)
    assert len(v) == 4
    assert all(-2 <= c <= 2 for c in v)
    c = random_cuboid(random.Random(3), 3, 2)
    assert c.dim == 3 and c.space == 2


# -- reports -----------------------------------------------------------------------------

def test_report_serialization_shape():
    rep = VerificationReport("demo", 3, (Failure(9, "11", "boom"),), True)
    obj = rep.to_obj()
    assert set(obj) == {"identity", "trials", "failures", "exact"}
    assert obj["failures"][0] == {"seed": 9, "alpha": "11", "detail": "boom"}
    assert not rep.passed

    with_detail = VerificationReport("demo", 3, (), False, "slopes 2.9")
    obj2 = with_detail.to_obj()
    assert obj2["detail"] == "slopes 2.9"
    assert with_detail.passed


def test_reports_to_json_is_deterministic():
    reps = identity_suite(5, trials=2)
    assert reports_to_json(reps) == reports_to_json(identity_suite(5, trials=2))
    json.loads(reports_to_json(reps))


# -- verification suites -------------------------------------------------------------------

def test_chain_expansion_oracle_small():
    reports = verify_chain_expansion(seed=1, trials=3, kmax=3)
    assert [r.identity for r in reports] == [
        "chain-expansion-k1",
        "chain-expansion-k2",
        "chain-expansion-k3",
    ]
    assert all(r.passed and r.exact for r in reports)


def test_tangent_expansion_oracle_small():
    reports = verify_tangent_expansion(seed=1, trials=3, kmax=3)
    assert all(r.passed and r.exact for r in reports)


def test_chain_expansion_with_unequal_space_dimensions():
    # x in a line, g(x) in 3-space, f(g(x)) in the plane
    for seed, k in itertools.product((2, 3), range(1, 4)):
        rng = random.Random(derive_seed(seed, k))
        g = RandomRationalMap(derive_seed(seed, "g", k), 1, 3)
        f = RandomRationalMap(derive_seed(seed, "f", k), 3, 2)
        x = random_rational_vector(rng, 1)
        vs = [random_rational_vector(rng, 1) for _ in range(k)]
        got = eval_expr(expand_chain(MultiIndex.ones(k)), numeric._chain_bindings(f, g, x, vs))
        assert got == evaluate_delta(lambda p: f(g(p)), x, vs)


def test_identity_suite_names_and_exactness():
    reports = identity_suite(seed=11, trials=2)
    assert [r.identity for r in reports] == [
        "difference-additivity",
        "pair-sum-operator",
        "pair-difference-operator",
        "pair-tangent-map",
        "telescoping-expansion",
        "partition-refinement-cover",
        "main-term-remainder-order",
    ]
    assert all(r.passed and r.exact for r in reports)


# -- remainder scaling ----------------------------------------------------------------------

def test_scaling_slope_matches_the_expected_order():
    rng = random.Random(21)
    f = random_polynomial_map(rng, 2, 2, degree=3, dense=True)
    g = random_polynomial_map(rng, 2, 2, degree=3, dense=True)
    x = (Fraction(1), Fraction(0))
    ws = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))]
    result = scaling_slope(f, g, x, ws, mi("11"), DEFAULT_EPS_EXPONENTS)
    assert not result.degenerate
    assert result.slope >= 2.8
    assert len(result.norms) == len(DEFAULT_EPS_EXPONENTS)


def test_scaling_slope_flags_degenerate_remainders():
    # an affine outer map leaves no remainder beyond the main part
    f = PolynomialMap(
        2, (Poly.variable(2, 0) + Poly.variable(2, 1), Poly.variable(2, 1))
    )
    rng = random.Random(22)
    g = random_polynomial_map(rng, 2, 2, degree=2, dense=True)
    x = (Fraction(0), Fraction(1))
    ws = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    result = scaling_slope(f, g, x, ws, mi("11"), DEFAULT_EPS_EXPONENTS)
    assert result.degenerate
    assert result.slope is None


@pytest.mark.parametrize("grid", [(3, 400), (3, 1100), (398, 399, 400)])
def test_scaling_slope_fits_grids_past_float_underflow(grid):
    # At j = 400 the norm is near 2**-1200, below the smallest float; at
    # j = 1100 so is 2**-j.  The fit takes both logs from the exact values.
    alpha = mi("11")
    result = scaling_slope(*numeric.scaling_trial(5, alpha), alpha, grid)
    assert all(result.norms)
    assert result.slope == pytest.approx(3, abs=0.01)


@pytest.mark.parametrize("grid", [(), (1,), (4, 4), (-1, 2), (1.5, 3)])
def test_scaling_rejects_a_short_grid_or_a_bad_exponent(grid):
    rng = random.Random(23)
    f = random_polynomial_map(rng, 2, 2, degree=3, dense=True)
    g = random_polynomial_map(rng, 2, 2, degree=3, dense=True)
    x = (Fraction(1), Fraction(0))
    ws = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))]
    match = "at least two grid points|must be nonnegative integers"
    with pytest.raises(ValueError, match=match):
        scaling_slope(f, g, x, ws, mi("11"), grid)
    with pytest.raises(ValueError, match=match):
        verify_scaling(seed=1729, alpha=mi("11"), trials=1, eps_exponents=grid)


def test_verify_scaling_fails_a_low_remainder_valuation(monkeypatch):
    # A main part missing one term leaves a remainder of order |alpha|.
    alpha = mi("11")
    full = main_part(alpha)
    monkeypatch.setattr(numeric, "main_part", lambda a: Sum(full.terms[1:]))
    report = verify_scaling(seed=1729, alpha=alpha, trials=1)
    assert not report.passed
    (failure,) = report.failures
    assert failure.detail == "remainder valuation 2 below 3"
    assert failure.seed == derive_seed(1729, "scaling", "11", 0) and failure.alpha == "11"
    assert report.detail.startswith("threshold 2.800; trial 0: slope ")
    f, g, x, ws = numeric.scaling_trial(failure.seed, alpha)
    assert rv.full_remainder_valuation(f, g, x, ws, alpha) == 2


def test_verify_scaling_reports_a_missing_slope_without_failing(monkeypatch):
    # Zero at every scale but one: no slope to report, and the exact
    # valuation, not the slope, decides the verdict.
    no_slope = numeric.ScalingResult(None, False, (Fraction(0), Fraction(1, 8)))
    monkeypatch.setattr(numeric, "scaling_slope", lambda *args: no_slope)
    report = verify_scaling(seed=1729, alpha=mi("11"), trials=1)
    assert report.passed
    assert report.detail == "threshold 2.800; trial 0: no slope"


def test_main_term_check_matches_the_untruncated_reference(monkeypatch):
    # Criterion 6's first 200 trials; the script sweeps all 1000.
    seeds = [derive_seed(1729, "main-term-remainder-order", t) for t in range(200)]
    assert {s % 2 for s in seeds} == {0, 1}
    for s in seeds:
        assert numeric._check_main_term_remainder_order(s) == rv.main_term_reference(s)
    # Without its last partition the main part leaves a remainder of order |alpha|.
    for module in (numeric, rv):
        monkeypatch.setattr(module, "enumerate_partitions", lambda a: enumerate_partitions(a)[:-1])
    details = set()
    for s in seeds[:20]:
        details.add(rv.main_term_reference(s))
        assert numeric._check_main_term_remainder_order(s) == rv.main_term_reference(s)
    assert details - {None} == {"remainder valuation 2 below 3", "remainder valuation 3 below 4"}


@pytest.mark.parametrize("seed", [0, *rv.SCALING_SEEDS_FOUND])
@pytest.mark.parametrize("alpha", ["11", "111"])
def test_scaling_valuation_matches_the_untruncated_one(seed, alpha):
    for t in range(3):
        row = rv.scaling_side_by_side(seed, mi(alpha), t)
        assert row["valuation"] == row["expected"] and row["norms_match"], row


@pytest.mark.parametrize("seed", [*range(10), *rv.SCALING_SEEDS_FOUND])
@pytest.mark.parametrize("alpha", ["11", "111"])
def test_scaling_norms_and_valuation_match_the_per_point_reference(seed, alpha):
    # One series evaluation stands in for one exact evaluation per grid point.
    row = rv.scaling_side_by_side(seed, mi(alpha), 0)
    assert row["norms_match"] and row["valuation"] == row["expected"], row


def test_verify_scaling_passes_and_reports_slopes():
    report = verify_scaling(seed=1729, alpha=mi("11"), trials=2)
    assert report.passed
    assert not report.exact
    assert "slope" in report.detail or "degenerate" in report.detail


# -- smooth composition ------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_smooth_chain_suite(k):
    report = verify_smooth_chain(MultiIndex.ones(k), seed=1729, trials=2)
    assert report.passed, report.to_obj()


def test_smooth_chain_on_sparse_alpha():
    report = verify_smooth_chain(mi("101"), seed=5, trials=2)
    assert report.passed


# -- dispatch -----------------------------------------------------------------------------------

def test_run_suite_dispatch():
    assert len(run_suite("theorem-b", seed=1, trials=1, kmax=2)) == 2
    assert len(run_suite("eq9", seed=1, trials=1, kmax=2)) == 2
    assert len(run_suite("identities", seed=1, trials=1)) == 7
    assert len(run_suite("scaling", seed=1, trials=1)) == 2
    assert len(run_suite("smooth-chain", seed=1, trials=1, kmax=2)) == 2
    assert len(run_suite("smooth-chain", seed=1, trials=1, alpha=mi("11"))) == 1


def test_run_suite_all_forwards_overrides():
    reports = run_suite("all", seed=1, trials=1, kmax=1)
    assert all(r.trials == 1 for r in reports)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("theorem-b", {"trials": 0}),
        ("theorem-b", {"trials": -2}),
        ("identities", {"trials": 1.5}),
        ("scaling", {"trials": True}),
        ("smooth-chain", {"kmax": -1}),
        ("eq9", {"kmax": 0}),
        ("all", {"trials": 0}),
    ],
)
def test_run_suite_rejects_bad_trial_and_depth_counts(name, overrides):
    with pytest.raises(ValueError, match="must be None or an int >= 1"):
        run_suite(name, seed=1, **overrides)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: verify_chain_expansion(1, trials=n, kmax=2), "trials"),
        (lambda n: verify_tangent_expansion(1, trials=n, kmax=2), "trials"),
        (lambda n: identity_suite(1, trials=n), "trials"),
        (lambda n: verify_scaling(1, mi("11"), trials=n, eps_exponents=(1,)), "trials"),
        (lambda n: verify_scaling(1, mi("11"), trials=n), "trials"),
        (lambda n: verify_smooth_chain(MultiIndex.ones(2), 1, trials=n), "trials"),
        (lambda n: verify_chain_expansion(1, trials=1, kmax=n), "kmax"),
        (lambda n: verify_tangent_expansion(1, trials=1, kmax=n), "kmax"),
    ],
    ids=["theorem-b", "eq9", "identities", "scaling-one-point-grid", "scaling", "smooth-chain", "theorem-b-kmax", "eq9-kmax"],
)
@pytest.mark.parametrize("count", [0, -3, True, 1.5])
def test_suites_reject_a_count_that_checks_nothing(call, name, count):
    # Each of these once returned a passing report that checked nothing.
    with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
        call(count)


@pytest.mark.parametrize(
    "name, fake, suites, overrides, alphas, count, digest",
    [
        (
            "eval_expr",
            lambda e, b: ("wrong",),
            ("theorem-b", "eq9"),
            {"trials": 2, "kmax": 3},
            ["1", "11", "111"],
            12,
            "b8831c8f998785597ccf050b91d9af61dbb1ee3fb1b121f758540baa54b878c2",
        ),
        (
            "iterated_tangent_lift",
            lambda f, k: (lambda flat: flat),
            ("smooth-chain",),
            {"trials": 2, "kmax": 3},
            ["0", "00", "000"],
            6,
            "452b2a2618f3cabb324e05b72f8fe922c173cab12a433ba79b37789b3ecefcb0",
        ),
        (
            "series_valuation",
            lambda a, b: 1,
            ("identities", "scaling"),
            {"trials": 2},
            ["", "11", "111"],
            6,
            "bef602f85e19d7ed88a7d787863401b592c4e2e93be97366897d8fbd77ef186d",
        ),
    ],
    ids=["oracles", "smooth-chain-lift", "valuations"],
)
def test_forced_failures_are_recorded_byte_for_byte(monkeypatch, name, fake, suites, overrides, alphas, count, digest):
    # Seeds, alphas and details of every failure record, in report order; a
    # lift failure names the injected index it disagrees on, not alpha.
    monkeypatch.setattr(numeric, name, fake)
    reports = [r for s in suites for r in run_suite(s, seed=11, **overrides)]
    failures = [f for r in reports for f in r.failures]
    assert len(failures) == count
    assert sorted({f.alpha for f in failures}) == alphas
    assert hashlib.sha256(reports_to_json(reports).encode("utf-8")).hexdigest() == digest


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nope", seed=1)


# -- the trial pool ---------------------------------------------------------------

def counted_forks(monkeypatch) -> list[int]:
    """Count the caller's calls of ``os.fork``; each child returns at once."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", numeric.SUITE_NAMES)
def test_reports_are_identical_with_any_cpu_count(monkeypatch, name):
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(numeric, "_cpu_count", lambda: cpus)
        forks = counted_forks(monkeypatch)
        outputs.append(reports_to_json(run_suite(name, seed=11, trials=3, kmax=3)))
        assert len(forks) == cpus - 1  # one pool for every trial of the call
        assert_no_child_left()
    assert outputs[0] == outputs[1] == outputs[2]


def failing_at(seed: int, *trials: int, flag=None):
    """A check on labels ("x",) that raises at the given trial numbers.
    With a ``flag`` file, the caller is slow on trials 0-2, and a worker
    waits at trial 3 until trial 5 has raised: then the caller meets trial 5
    before any process raises at trial 3."""
    index, caller = {derive_seed(seed, "x", t): t for t in range(8)}, os.getpid()

    def check(s):
        t = index[s]
        if flag is not None and os.getpid() == caller and t < 3:
            time.sleep(0.05)
        if flag is not None and os.getpid() != caller and t == 3:
            deadline = time.monotonic() + 5
            while not flag.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        if t in trials:
            if t == 5 and flag is not None:
                flag.touch()
            raise ArithmeticError(f"trial {t}")
        return None

    return check


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_first_trial_to_raise_is_re_raised(monkeypatch, tmp_path, cpus):
    monkeypatch.setattr(numeric, "_cpu_count", lambda: cpus)
    for check in (failing_at(7, 3, 5), failing_at(7, 3, 5, flag=tmp_path / f"raised-{cpus}")):
        with pytest.raises(ArithmeticError, match="^trial 3$"):
            numeric._run_trials(7, [("x", ("x",), 8, check, True, None)])
        assert_no_child_left()
    (report,) = numeric._run_trials(7, [("x", ("x",), 8, failing_at(7), True, None)])
    assert report.passed and report.trials == 8
    assert_no_child_left()


def test_a_worker_that_dies_leaves_its_trials_to_the_caller(monkeypatch):
    caller = os.getpid()

    def check(s):
        if os.getpid() != caller:
            os._exit(3)
        return Failure(s, "", "odd") if s % 2 else None

    spec = [("x", ("x",), 40, check, True, None)]
    monkeypatch.setattr(numeric, "_cpu_count", lambda: 1)
    serial = numeric._run_trials(5, spec)
    monkeypatch.setattr(numeric, "_cpu_count", lambda: 3)
    forks = counted_forks(monkeypatch)
    assert numeric._run_trials(5, spec) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_an_interrupted_caller_reaps_its_workers(monkeypatch):
    caller = os.getpid()

    def check(s):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(0.005)

    monkeypatch.setattr(numeric, "_cpu_count", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        numeric._run_tasks([(check, t) for t in range(200)])
    assert_no_child_left()


def test_many_tasks_do_not_fill_a_pipe(monkeypatch):
    # 20,000 outcomes pickle to far more than a pipe holds, and the queue
    # holds at most 1,024 chunk numbers.  A pool that blocks on a full pipe
    # fails here after 60 s instead of hanging.
    def hung(*_):
        raise TimeoutError("the trial pool blocked")

    monkeypatch.setattr(numeric, "_cpu_count", lambda: 3)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert numeric._run_tasks([(lambda s: s, t) for t in range(20000)]) == list(range(20000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def test_one_cpu_or_one_task_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(numeric, "_cpu_count", lambda: 1)
    assert run_suite("identities", seed=1, trials=2)[0].trials == 2
    monkeypatch.setattr(numeric, "_cpu_count", lambda: 3)
    assert verify_scaling(seed=1729, alpha=mi("11"), trials=1).passed


def test_a_process_whose_parent_changed_takes_no_task():
    queue, feed = os.pipe()
    os.write(feed, (0).to_bytes(4, "little"))
    os.close(feed)
    done = {}
    try:
        assert numeric._take([(lambda s: s, 0)], 1, queue, os.getppid() + 1, done) is None
    finally:
        os.close(queue)
    assert done == {}
