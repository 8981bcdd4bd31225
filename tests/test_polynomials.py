import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import poly_reference
from deltachain import numeric, polynomials
from deltachain.combinatorics import MultiIndex
from deltachain.polynomials import (
    _LIMIT,
    MAX_LIFT_VARIABLES,
    Poly,
    PolynomialMap,
    _Series,
    _fields,
    _pack,
    _series,
    _unpack,
    compose,
    d_alpha,
    directional_derivative,
    iterated_directional,
    iterated_tangent_lift,
    random_polynomial_map,
    series_valuation,
    tangent_lift,
)

mi = MultiIndex.from_string

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(nvars: int, degree: int = 3):
    exps = st.tuples(*([st.integers(0, degree)] * nvars))
    return st.dictionaries(exps, rationals, max_size=5).map(
        lambda d: Poly.make(nvars, d)
    )


def pts(nvars: int):
    return st.tuples(*([rationals] * nvars))


# -- polynomial arithmetic ------------------------------------------------------

def test_make_normalizes_zero_coefficients():
    p = Poly.make(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == (((1, 0), 1),)
    assert Poly.make(2, {}).terms == ()


def test_degrees():
    p = Poly.make(2, {(2, 1): 1, (0, 1): 3})
    assert p.degree == 3
    assert min(sum(e) for e, _ in p.terms) == 1
    assert Poly.constant(2, 5).terms == (((0, 0), 5),)
    assert Poly.make(2, {}).degree == -1


def test_variable_and_constant():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x + 2 * y + 3
    assert p((Fraction(2), Fraction(5))) == 4 + 10 + 3


@given(polys(2), polys(2), pts(2))
def test_ring_laws_at_points(p, q, v):
    assert (p + q)(v) == p(v) + q(v)
    assert (p * q)(v) == p(v) * q(v)
    assert (p - q)(v) == p(v) - q(v)
    assert (-p)(v) == -(p(v))


@given(polys(1), st.integers(0, 4), pts(1))
def test_power_matches_repeated_product(p, n, v):
    assert (p ** n)(v) == p(v) ** n


def test_zero_poly_evaluates_to_exact_zero():
    z = Poly.make(2, {})
    out = z((Fraction(1), Fraction(2)))
    assert out == 0 and isinstance(out, Fraction)


@given(polys(2), polys(1), polys(1), pts(1))
def test_call_with_polynomials_is_composition(p, a, b, v):
    composed = p((a, b))
    if isinstance(composed, Poly):
        assert composed(v) == p((a(v), b(v)))
    else:
        assert composed == p((a(v), b(v)))


# -- agreement with a plain dict-of-Fraction reference -----------------------------
#
# The reference keeps every coefficient as a Fraction and is written out here,
# independent of Poly, so the int/Fraction coefficient handling is checked
# against arithmetic that never normalizes anything.

mixed = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


def raw_polys(nvars: int, degree: int = 3):
    exps = st.tuples(*([st.integers(0, degree)] * nvars))
    return st.dictionaries(exps, mixed, max_size=5)


def ref_of(raw):
    return {e: Fraction(c) for e, c in raw.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_scale(a, s):
    return {e: c * Fraction(s) for e, c in a.items() if c * Fraction(s)}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + c * e[i]
    return out


def ref_eval(a, v):
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for x, k in zip(v, e):
            term *= Fraction(x) ** k
        total += term
    return total


def ref_compose(a, inner, nvars):
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for q, k in zip(inner, e):
            term = ref_mul(term, ref_pow(q, k, nvars))
        out = ref_add(out, term)
    return out


def assert_matches(p, ref):
    assert dict(p.terms) == ref
    assert all(c and (type(c) is int or c.denominator > 1) for _, c in p.terms)
    same = Poly.make(p.nvars, ref)
    assert p == same and p.terms == same.terms and repr(p) == repr(same)
    assert hash(p) == hash(same)


def test_integral_coefficients_are_stored_as_int():
    a = Poly.make(1, {(1,): Fraction(4, 2)})
    b = Poly.make(1, {(1,): 2})
    assert a == b and a.terms == b.terms == (((1,), 2),) and hash(a) == hash(b)
    assert type(a.terms[0][1]) is int
    assert type((a * Fraction(1, 2)).terms[0][1]) is int


@given(raw_polys(2), raw_polys(2), mixed, st.integers(0, 5))
def test_arithmetic_matches_the_reference(a, b, s, n):
    p, q, ra, rb = Poly.make(2, a), Poly.make(2, b), ref_of(a), ref_of(b)
    assert_matches(p, ra)
    assert_matches(p + q, ref_add(ra, rb))
    assert_matches(p - q, ref_add(ra, ref_scale(rb, -1)))
    assert_matches(-p, ref_scale(ra, -1))
    assert_matches(p * q, ref_mul(ra, rb))
    assert_matches(p * s, ref_scale(ra, s))
    assert_matches(s * p, ref_scale(ra, s))
    assert_matches(p + s, ref_add(ra, ref_of({(0, 0): s})))
    assert_matches(s - p, ref_add(ref_of({(0, 0): s}), ref_scale(ra, -1)))
    assert_matches(p ** n, ref_pow(ra, n, 2))


@given(raw_polys(2), st.tuples(mixed, mixed))
def test_derivatives_and_embedding_match_the_reference(a, u):
    p, ra = Poly.make(2, a), ref_of(a)
    assert_matches(p.partial(0), ref_partial(ra, 0))
    assert_matches(p.partial(1), ref_partial(ra, 1))
    along = ref_add(ref_scale(ref_partial(ra, 0), u[0]), ref_scale(ref_partial(ra, 1), u[1]))
    assert_matches(p.directional(u), along)
    padded = {e + (0, 0): c for e, c in ra.items()}
    assert_matches(p.embed(4), padded)


@pytest.mark.parametrize("nvars", [3, 4])
@given(data=st.data())
def test_every_partial_matches_the_reference(nvars, data):
    a = data.draw(raw_polys(nvars))
    p, ra = Poly.make(nvars, a), ref_of(a)
    for i in range(nvars):
        assert_matches(p.partial(i), ref_partial(ra, i))


@given(raw_polys(2), st.tuples(mixed, mixed), raw_polys(1, 2), raw_polys(1, 2))
def test_evaluation_and_composition_match_the_reference(a, v, b, c):
    p, ra = Poly.make(2, a), ref_of(a)
    assert p(v) == ref_eval(ra, v)
    inner = (Poly.make(1, b), Poly.make(1, c))
    expected = ref_compose(ra, (ref_of(b), ref_of(c)), 1)
    assert_matches(Poly.constant(1, 0) + p(inner), expected)
    value = p(inner)
    if any(any(e) for e in ra):
        # a term with a polynomial factor makes the value a polynomial
        assert_matches(value, expected)
    else:
        assert not isinstance(value, Poly) and value == expected.get((0,), 0)
    # a polynomial and a rational argument together
    half = (inner[0], v[1])
    assert_matches(Poly.constant(1, 0) + p(half), ref_compose(ra, (ref_of(b), ref_of({(0,): v[1]})), 1))
    (composed,) = compose(PolynomialMap(2, (p,)), PolynomialMap(1, inner)).components
    assert_matches(composed, expected)


whole_fractions = st.integers(-6, 6).map(Fraction)


@given(raw_polys(2), st.tuples(*[st.one_of(mixed, whole_fractions)] * 2))
def test_evaluation_values_and_types_match_the_reference(a, v):
    # The value is the reference's.  Its type is int exactly when no Fraction
    # takes part: every coefficient is int and every argument that some
    # term raises to a positive power is int.  Otherwise it is a Fraction,
    # however integral the arguments; the zero polynomial gives Fraction(0).
    p = Poly.make(2, a)
    got = p(v)
    assert got == ref_eval(ref_of(a), v)
    used = {i for e, _ in p.terms for i, k in enumerate(e) if k}
    all_int = p.terms and all(type(c) is int for _, c in p.terms) and all(type(v[i]) is int for i in used)
    assert type(got) is (int if all_int else Fraction)


# -- truncated series ---------------------------------------------------------------
#
# The reference is Poly in one variable with every degree >= n dropped.

def series_and_poly(n):
    return st.lists(mixed, min_size=n, max_size=n).map(
        lambda cs: (_Series(cs), Poly.make(1, {(i,): c for i, c in enumerate(cs)}))
    )


def truncated(p, n):
    return tuple(Fraction(dict(p.terms).get((i,), 0)) for i in range(n))


def assert_series_matches(series, p, n):
    assert series.coeffs == truncated(p, n)
    assert all(type(c) is int or c.denominator > 1 for c in series.coeffs)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), series_and_poly(n), series_and_poly(n))),
       mixed, st.integers(0, 5))
def test_series_arithmetic_matches_truncated_polynomials(case, s, k):
    n, (a, p), (b, q) = case
    assert_series_matches(a, p, n)
    assert_series_matches(a + b, p + q, n)
    assert_series_matches(a - b, p - q, n)
    assert_series_matches(-a, -p, n)
    assert_series_matches(a * b, p * q, n)
    assert_series_matches(a + s, p + s, n)
    assert_series_matches(s + a, s + p, n)
    assert_series_matches(a - s, p - s, n)
    assert_series_matches(s - a, s - p, n)
    assert_series_matches(a * s, p * s, n)
    assert_series_matches(s * a, s * p, n)
    assert_series_matches(a ** k, p ** k, n)
    assert (a == b) == (truncated(p, n) == truncated(q, n))
    same = _Series(truncated(p, n))
    assert a == same and hash(a) == hash(same) and a != truncated(p, n)


def test_series_reject_mixed_orders_and_bad_exponents():
    eps = _Series.epsilon(3)
    assert eps.coeffs == (0, 1, 0)
    with pytest.raises(ValueError, match="truncation order"):
        eps * _Series.epsilon(2)
    with pytest.raises(ValueError, match="exponent must be an int >= 0, not -1"):
        eps ** -1


@given(raw_polys(2), raw_polys(1, 3), raw_polys(1, 3), st.integers(1, 5))
def test_series_evaluation_and_valuation_match_truncated_polynomials(a, b, c, n):
    p = Poly.make(2, a)
    t = Poly.variable(1, 0)
    u, w = Poly.make(1, b) * t, Poly.make(1, c) * t
    su, sw = _Series(truncated(u, n)), _Series(truncated(w, n))
    got = (p((su, _Series.epsilon(n) * 2)), p((sw, su)))
    want = (Poly.constant(1, 0) + p((u, t * 2)), Poly.constant(1, 0) + p((w, u)))
    for g, q in zip(got, want):
        assert (g.coeffs if isinstance(g, _Series) else (g,) + (0,) * (n - 1)) == truncated(q, n)
    lows = [min((sum(e) for e, _ in q.terms if sum(e) < n), default=None) for q in want]
    assert series_valuation(got, (0, 0)) == min((v for v in lows if v is not None), default=None)
    assert series_valuation(got, (got[0], 0)) == lows[1]
    assert series_valuation(got, got) is None


def test_series_valuation_is_the_lowest_nonzero_degree_over_components():
    e = _Series.epsilon(4)
    assert series_valuation((e ** 3, e, e ** 2), (0, 0, 0)) == 1
    assert series_valuation((e ** 3 + 1, e * 2), (1, e * 2)) == 3
    assert series_valuation((e ** 3, e ** 4), (0, 0)) == 3  # e^4 is 0 mod e^4
    assert series_valuation((e, Fraction(1, 2)), (e, 0)) == 0
    assert series_valuation((e ** 4, e), (0, e)) is None
    with pytest.raises(ValueError, match="dimension"):
        series_valuation((e,), (e, e))


# -- one-dict derivatives and lifts, against products of partials --------------------

def directional_by_partials(p, u):
    out = Poly.constant(p.nvars, 0)
    for j, uj in enumerate(u):
        if uj:
            out = out + p.partial(j) * Fraction(uj)
    return out


def tangent_lift_by_products(f):
    n = f.domain_dim
    fiber = []
    for p in f.components:
        acc = Poly.constant(2 * n, 0)
        for j in range(n):
            acc = acc + Poly.variable(2 * n, n + j) * p.partial(j).embed(2 * n)
        fiber.append(acc)
    return PolynomialMap(2 * n, tuple(p.embed(2 * n) for p in f.components) + tuple(fiber))


@given(raw_polys(3), st.tuples(*[st.one_of(mixed, whole_fractions)] * 3))
def test_directional_matches_the_sum_of_scaled_partials(a, u):
    p = Poly.make(3, a)
    want = directional_by_partials(p, u)
    got = p.directional(u)
    assert got == want and got.terms == want.terms


@given(st.lists(raw_polys(2), min_size=1, max_size=3), st.lists(raw_polys(3), min_size=1, max_size=2))
def test_tangent_lift_matches_products_of_partials(two, three):
    for f in (PolynomialMap(2, tuple(Poly.make(2, a) for a in two)), PolynomialMap(3, tuple(Poly.make(3, a) for a in three))):
        want = tangent_lift_by_products(f)
        got = tangent_lift(f)
        assert got == want and all(g.terms == w.terms for g, w in zip(got.components, want.components))


# -- derivatives -------------------------------------------------------------------

def test_partial_of_a_monomial():
    p = Poly.make(2, {(3, 2): 4})
    assert p.partial(0).terms == (((2, 2), 12),)
    assert p.partial(1).terms == (((3, 1), 8),)


@given(polys(2), pts(2), pts(2))
def test_directional_is_linear_in_the_direction(p, u, w):
    both = p.directional(tuple(a + b for a, b in zip(u, w)))
    assert both == p.directional(u) + p.directional(w)


def test_mixed_partials_commute():
    rng = random.Random(5)
    f = random_polynomial_map(rng, 2, 1, 4)
    u, w = (1, 2), (3, -1)
    assert iterated_directional(f, (u, w)) == iterated_directional(f, (w, u))


def test_d_alpha_selects_directions_by_support():
    rng = random.Random(7)
    f = random_polynomial_map(rng, 2, 1, 4)
    vectors = ((1, 0), (0, 1), (2, 3))
    assert d_alpha(f, vectors, mi("101")) == iterated_directional(
        f, ((1, 0), (2, 3))
    )
    with pytest.raises(ValueError):
        d_alpha(f, vectors[:2], mi("101"))


# -- polynomial maps ----------------------------------------------------------------

def test_map_validates_component_variable_count():
    with pytest.raises(ValueError):
        PolynomialMap(2, (Poly.variable(3, 0),))


def test_compose_evaluates_pointwise():
    rng = random.Random(3)
    f = random_polynomial_map(rng, 2, 2, 2)
    g = random_polynomial_map(rng, 2, 2, 2)
    fg = compose(f, g)
    for seed in range(5):
        r = random.Random(seed)
        x = tuple(Fraction(r.randint(-4, 4)) for _ in range(2))
        assert fg(x) == f(g(x))


def test_compose_checks_dimensions():
    rng = random.Random(3)
    f = random_polynomial_map(rng, 3, 1, 2)
    g = random_polynomial_map(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        compose(f, g)


def test_compose_handles_constant_components():
    f = PolynomialMap(1, (Poly.constant(1, 7),))
    g = PolynomialMap(1, (Poly.variable(1, 0),))
    assert compose(f, g)((Fraction(2),)) == (Fraction(7),)


# -- tangent lifts ------------------------------------------------------------------

def test_tangent_lift_layout():
    """The lift doubles the variables: value block first, derivative block
    second, matching the flattened two-component cuboid layout."""
    rng = random.Random(11)
    f = random_polynomial_map(rng, 2, 2, 3)
    lift = tangent_lift(f)
    assert lift.domain_dim == 4
    assert lift.codomain_dim == 4
    x = (Fraction(1), Fraction(-1))
    u = (Fraction(2), Fraction(3))
    out = lift(x + u)
    assert out[:2] == f(x)
    assert out[2:] == directional_derivative(f, u)(x)


def test_tangent_lift_is_functorial():
    rng = random.Random(13)
    f = random_polynomial_map(rng, 2, 2, 2)
    g = random_polynomial_map(rng, 2, 2, 2)
    assert tangent_lift(compose(f, g)) == compose(tangent_lift(f), tangent_lift(g))


def test_iterated_tangent_lift_is_functorial():
    rng = random.Random(17)
    f = random_polynomial_map(rng, 1, 1, 2)
    g = random_polynomial_map(rng, 1, 1, 2)
    assert iterated_tangent_lift(compose(f, g), 2) == compose(
        iterated_tangent_lift(f, 2), iterated_tangent_lift(g, 2)
    )


def test_directional_derivative_of_lift_direction():
    """Differentiating the lift along a fiber direction recovers the
    derivative of the underlying map in the value block."""
    rng = random.Random(19)
    f = random_polynomial_map(rng, 1, 1, 3)
    lift = tangent_lift(f)
    x, u = Fraction(2), Fraction(1)
    # the fiber component is linear in u by construction
    v0 = lift((x, Fraction(0)))
    v1 = lift((x, u))
    assert v0[0] == v1[0]


# -- random map generator -------------------------------------------------------------

def test_random_map_is_deterministic_per_seed():
    a = random_polynomial_map(random.Random(42), 2, 2, 3)
    b = random_polynomial_map(random.Random(42), 2, 2, 3)
    assert a == b


def test_random_map_respects_degree_and_shape():
    f = random_polynomial_map(random.Random(1), 3, 2, 2)
    assert f.domain_dim == 3
    assert f.codomain_dim == 2
    assert all(p.degree <= 2 for p in f.components)


def test_dense_random_map_has_every_monomial():
    f = random_polynomial_map(random.Random(1), 2, 1, 3, dense=True)
    (p,) = f.components
    assert len(p.terms) == 10  # all monomials with total degree <= 3


def test_scaling_substitution_gives_valuations():
    """Substituting t*direction for each variable turns a polynomial into a
    univariate polynomial in t whose minimum degree is the vanishing order."""
    t = Poly.variable(1, 0)
    p = Poly.make(2, {(1, 1): 1, (0, 3): 2})
    q = p((t * 1, t * 2))
    assert min(sum(e) for e, _ in q.terms) == 2
    assert q.degree == 3


# -- packed monomials and series against the representations they replaced -----------
#
# poly_reference keeps the exponent-tuple Poly and the coefficient-tuple
# _Series unchanged; every result must agree with theirs in value, in each
# coefficient's and value's type, and in terms, ==, hash and repr.

any_rational = st.one_of(mixed, whole_fractions)


def raw_in(nvars: int, coeffs=any_rational, degree: int = 4, size: int = 6):
    return st.dictionaries(st.tuples(*([st.integers(0, degree)] * nvars)), coeffs, max_size=size)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n), raw_in(n), raw_in(n), any_rational, st.integers(0, 4), st.tuples(*[any_rational] * n)
        )
    )
)
def test_packed_polynomials_match_the_reference(case):
    assert poly_reference.differences(poly_reference.arithmetic_cases(*case)) == []
    # the decoder lists each nonzero exponent with its field, variable 0's
    # field (nvars-1) first
    n, raw = case[0], case[1]
    p = Poly.make(n, raw)
    for key, (expts, _) in zip(sorted(p._coeffs), p.terms):
        assert _fields(key) == tuple((n - 1 - i, e) for i, e in enumerate(expts) if e)


def evaluation_case(integral: bool):
    coeffs = st.integers(-6, 6) if integral else any_rational
    return st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 5)).flatmap(
        lambda nmo: st.tuples(
            st.just(nmo[0]),
            raw_in(nmo[0], coeffs, 3),
            raw_in(nmo[0], coeffs, 3),
            st.lists(raw_in(nmo[1], coeffs, 2, 4), min_size=nmo[0], max_size=nmo[0]),
            st.just(nmo[1]),
            st.lists(st.lists(coeffs, min_size=nmo[2], max_size=nmo[2]), min_size=nmo[0], max_size=nmo[0]),
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(evaluation_case(True), evaluation_case(False)))
# at Poly points: scalar and Poly terms mixed, Poly terms that cancel to
# zero, and a constant polynomial, whose value is a rational
@example((2, {(0, 0): 3, (1, 0): Fraction(1, 2), (1, 1): -2}, {(0, 0): 1, (0, 2): 4},
          [{(1,): 1, (0,): 2}, {(2,): Fraction(1, 3)}], 1, [[1, 2], [3, 4]]))
@example((2, {(1, 0): 1, (0, 1): -1}, {(2, 0): 2, (0, 2): -2}, [{(1, 1): 2}, {(1, 1): 2}], 2, [[1], [2]]))
@example((2, {(0, 0): 7}, {(0, 0): Fraction(2, 3)}, [{(1,): 1}, {(0,): 5}], 1, [[1, 1], [0, 1]]))
def test_packed_evaluation_composition_and_lift_match_the_reference(case):
    # Integral data is evaluated at a point of series in packed integers.
    assert poly_reference.differences(poly_reference.evaluation_cases(*case)) == []


@pytest.mark.parametrize(
    "raw", [{(1, 1): 1}, {(0, 0): 1, (1, 0): 2, (0, 1): 3}], ids=["one-product", "separate-terms"]
)
def test_poly_points_of_unequal_variable_counts_raise(raw):
    # in one product, or in terms summed after a scalar one
    p, rp = poly_reference.polys(2, raw)
    x, rx = poly_reference.polys(1, {(1,): 1})
    y, ry = poly_reference.polys(2, {(0, 1): 1})
    for poly, args in ((p, [x, y]), (rp, [rx, ry])):
        with pytest.raises(ValueError, match="variable count mismatch"):
            poly(args)


def big_coefficients():
    # up to 2^200: products and powers of these widen the packed fields
    return st.one_of(st.integers(-(2**200), 2**200), st.integers(-3, 3), st.fractions(max_denominator=2**70))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.lists(st.one_of(any_rational, big_coefficients()), min_size=n, max_size=n),
            st.lists(st.one_of(any_rational, big_coefficients()), min_size=n, max_size=n),
            st.one_of(any_rational, big_coefficients()),
            st.integers(0, 5),
        )
    )
)
def test_packed_series_match_the_reference(case):
    assert poly_reference.differences(poly_reference.series_cases(*case)) == []


def signed_fields(width: int):
    """Digits of a signed field of ``width`` bits, half of them at an edge."""
    top = 1 << (width - 1)
    return st.one_of(st.sampled_from((-top, -top + 1, -1, 0, 1, top - 2, top - 1)), st.integers(-top, top - 1))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([64 << i for i in range(7)]).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(signed_fields(w), max_size=8))
    ),
    st.integers(-(2**70), 2**70),
)
def test_one_reader_reads_every_packed_layout(case, m):
    width, digits = case
    n = len(digits)
    num = _pack(digits, width)
    assert _unpack(num, width, n) == digits
    # the evaluator's fold, fused with scaling, above the low part _tag fills
    assert _unpack(numeric._pack(digits, 1, width) >> width + 8, width, n) == digits
    # a series is taken modulo 2^(width·n) where it is made
    series = _series(n, 1, num + (m << width * n), width, sum(map(abs, digits)))
    assert series == _series(n, 1, num, width, 0) and series.coeffs == tuple(digits)


def test_series_fields_widen_instead_of_overflowing():
    a, b = 2**40, -(2**40) + 1
    big = _Series([a, b, 3])
    assert big.width == 64
    square = big * big
    assert square.width == 128 and square.coeffs == (a * a, 2 * a * b, 6 * a + b * b)
    assert square == _Series(square.coeffs) and hash(square) == hash(_Series(square.coeffs))
    assert (big**3).coeffs == (a**3, 3 * a * a * b, 3 * a * b * b + 9 * a * a)


def test_the_degree_limit():
    below = Poly.make(1, {(_LIMIT - 1,): 1})
    assert below.degree == _LIMIT - 1 and below.terms == (((_LIMIT - 1,), 1),)
    assert (Poly.variable(1, 0) ** (_LIMIT - 1)) == below
    with pytest.raises(ValueError, match="degree limit"):
        Poly.make(1, {(_LIMIT,): 1})
    with pytest.raises(ValueError, match="degree limit"):
        Poly.make(2, {(_LIMIT - 1, 1): 1})
    with pytest.raises(ValueError, match="degree limit"):
        below * Poly.variable(1, 0)
    with pytest.raises(ValueError, match="degree limit"):
        Poly.variable(1, 0) ** _LIMIT
    # the limit is met before any product is formed, however large the power
    with pytest.raises(ValueError, match="degree limit"):
        (Poly.variable(2, 0) + 1) ** (1 << 60)
    assert Poly.constant(2, 3) ** 5 == Poly.constant(2, 243)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly.variable(2, 5),
        lambda: Poly.variable(2, -1),
        lambda: Poly.variable(2, True),
        lambda: Poly.variable(2, 1).partial(5),
        lambda: Poly.variable(2, 1).partial(-1),
        lambda: Poly.variable(2, 1).partial(True),
        lambda: Poly.make(2, {(1, -1): 1}),
        lambda: Poly.make(2, {(1.5, 0): 1}),
        lambda: Poly.make(2, {(True, 0): 1}),
        lambda: Poly.make(-1, {}),
        lambda: Poly.make(True, {(1,): 1}),
        lambda: PolynomialMap(2, [1]),
        lambda: Poly.variable(2, 0) ** True,
        lambda: _Series.epsilon(3) ** True,
    ],
    ids=[
        "variable-past-the-end",
        "variable-negative",
        "variable-bool",
        "partial-past-the-end",
        "partial-negative",
        "partial-bool",
        "make-negative-exponent",
        "make-float-exponent",
        "make-bool-exponent",
        "make-negative-nvars",
        "make-bool-nvars",
        "map-of-an-int",
        "poly-power-bool",
        "series-power-bool",
    ],
)
def test_what_packing_cannot_hold_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


_PLANE = random_polynomial_map(random.Random(1), 2, 2, 2)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: Poly.make(2, {(1, 1): None}), "a coefficient must be a rational, not None"),
        (lambda: Poly.constant(1, None), "a constant must be a rational, not None"),
        (lambda: Poly.make(1, {5: 1}), "a monomial key must be a sequence of exponents, not 5"),
        (lambda: Poly.variable(1, 0)(5), "arguments must be a sequence, not 5"),
        (lambda: PolynomialMap(1, (Poly.variable(1, 0),))(5), "arguments must be a sequence, not 5"),
        (lambda: Poly.variable(1, 0).directional([None]), "a direction entry must be a rational, not None"),
        (lambda: Poly.variable(1, 0).directional(5), "u must be a sequence, not 5"),
        (lambda: compose(None, _PLANE), "outer must be a PolynomialMap, not None"),
        (lambda: compose(_PLANE, None), "inner must be a PolynomialMap, not None"),
        (lambda: directional_derivative(None, (1, 0)), "f must be a PolynomialMap, not None"),
        (lambda: iterated_directional(None, [(1, 0)]), "f must be a PolynomialMap, not None"),
        (lambda: iterated_directional(_PLANE, None), "vectors must be a tuple or a list, not None"),
        (lambda: tangent_lift(None), "f must be a PolynomialMap, not None"),
        (lambda: iterated_tangent_lift(None, 1), "f must be a PolynomialMap, not None"),
        (lambda: d_alpha(None, [(1, 0)], mi("1")), "f must be a PolynomialMap, not None"),
        (lambda: d_alpha(_PLANE, None, mi("1")), "vectors must be a tuple or a list, not None"),
        (lambda: d_alpha(_PLANE, [(1, 0)], "1"), "alpha must be a MultiIndex, not '1'"),
        (lambda: PolynomialMap(2, None), "components must be an Iterable, not None"),
        (lambda: PolynomialMap(1.5, ()), "domain_dim must be an int >= 0, not 1.5"),
    ],
    ids=[
        "make-none-coefficient",
        "constant-none",
        "make-int-key",
        "call-on-an-int",
        "map-call-on-an-int",
        "directional-none-entry",
        "directional-of-an-int",
        "compose-outer-none",
        "compose-inner-none",
        "directional-derivative-of-none",
        "iterated-directional-of-none",
        "iterated-directional-vectors-none",
        "tangent-lift-of-none",
        "iterated-tangent-lift-of-none",
        "d-alpha-of-none",
        "d-alpha-vectors-none",
        "d-alpha-of-a-str-alpha",
        "map-components-none",
        "map-float-domain",
    ],
)
def test_malformed_poly_arguments_raise_value_error_naming_them(build, named):
    with pytest.raises(ValueError, match=named):
        build()


@pytest.mark.parametrize("k", [-1, True, 11, 10**9], ids=["negative", "bool", "past-the-limit", "huge"])
def test_iterated_tangent_lift_rejects_k_before_any_lift(monkeypatch, k):
    def no_lift(f):
        raise AssertionError("a lift was built")

    monkeypatch.setattr(polynomials, "tangent_lift", no_lift)
    with pytest.raises(ValueError, match=f"k must be an int >= 0, not {k!r}|pass the limit"):
        iterated_tangent_lift(_PLANE, k)


def test_the_lift_limit():
    # a lift onto exactly the limit is built; one more base variable is refused
    wide = PolynomialMap(MAX_LIFT_VARIABLES // 2, (Poly.variable(MAX_LIFT_VARIABLES // 2, 0),))
    assert tangent_lift(wide).domain_dim == MAX_LIFT_VARIABLES
    wider = PolynomialMap(MAX_LIFT_VARIABLES // 2 + 1, ())
    with pytest.raises(ValueError, match="above the limit"):
        tangent_lift(wider)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly.variable(10**9, 0),
        lambda: Poly.variable(MAX_LIFT_VARIABLES + 1, 0),
        lambda: Poly.variable(None, 0),
        lambda: Poly.variable(1, 0).embed(10**9),
        lambda: Poly.variable(1, 0).embed(MAX_LIFT_VARIABLES + 1),
        lambda: Poly.variable(1, 0).embed(1.5),
    ],
    ids=["variable-huge", "variable-past-the-limit", "variable-none", "embed-huge", "embed-past-the-limit", "embed-float"],
)
def test_variable_and_embed_refuse_nvars_past_the_lift_limit_before_any_key(build):
    # A key for 10**9 variables would be a 16-billion-bit integer.
    with pytest.raises(ValueError, match=r"^nvars must be an int in \[0, 2048\], not "):
        build()


def test_variable_and_embed_take_nvars_up_to_the_limit():
    top = Poly.variable(MAX_LIFT_VARIABLES, MAX_LIFT_VARIABLES - 1)
    assert top.terms == (((0,) * (MAX_LIFT_VARIABLES - 1) + (1,), 1),)
    assert Poly.variable(1, 0).embed(MAX_LIFT_VARIABLES).terms[0][0][0] == 1
