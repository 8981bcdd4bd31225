import json
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from deltachain.combinatorics import MultiIndex
from deltachain import cuboid
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
from deltachain.numeric import RandomRationalMap, evaluate_delta
from deltachain.polynomials import Poly, _Series

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
# Exact rationals as the library meets them: plain ints, integral Fractions
# and Fractions with negative numerators and non-unit denominators.
exact_entries = st.one_of(st.integers(-10, 10), rationals)


def exact_vectors(space: int):
    return st.tuples(*[exact_entries] * space)


def types(v) -> list[type]:
    return [type(x) for x in v]


def cuboids(dim: int, space: int):
    n_values = (2 ** dim) * space
    return st.lists(exact_entries, min_size=n_values, max_size=n_values).map(
        lambda vals: Cuboid.from_flat(dim, space, vals)
    )


def mi(s: str) -> MultiIndex:
    return MultiIndex.from_string(s)


# -- vectors -------------------------------------------------------------------

def test_vector_arithmetic():
    assert vector_add((1, 2), (3, 4)) == (4, 6)
    assert vector_sub((1, 2), (3, 4)) == (-2, -2)
    assert vector_neg((1, -2)) == (-1, 2)


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        vector_add((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        vector_sub((1,), (1, 2))


@pytest.mark.parametrize("entry", [Fraction(1, 2), _Series.epsilon(2)], ids=["exact", "series"])
def test_sums_report_a_dimension_mismatch_as_vector_add_does(entry):
    with pytest.raises(ValueError, match="^space dimension mismatch: 2 vs 1$"):
        vector_sum([(entry, 1), (entry,)])
    with pytest.raises(ValueError, match="^space dimension mismatch: 2 vs 1$"):
        corners((entry, 1), [(1, entry), (entry,)])


# -- cuboid container ----------------------------------------------------------

def test_build_and_component_addressing():
    c = Cuboid.build(2, lambda m: (m.mask, m.order))
    assert c.space == 2
    assert c.component(mi("00")) == (0, 0)
    assert c.component(mi("10")) == (1, 1)  # first digit = least significant
    assert c.component(mi("01")) == (2, 1)
    assert c.component(mi("11")) == (3, 2)
    assert list(c.indices()) == [mi("00"), mi("10"), mi("01"), mi("11")]


def test_component_count_is_validated():
    with pytest.raises(ValueError):
        Cuboid(2, ((0,), (1,), (2,)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cuboid(-1, ()), "dim must be an int >= 0, not -1"),
        (lambda: Cuboid("1", ((1,), (2,))), "dim must be an int >= 0, not '1'"),
        (lambda: Cuboid(True, ((1,), (2,))), "dim must be an int >= 0, not True"),
        (lambda: Cuboid(1.0, ((1,), (2,))), "dim must be an int >= 0, not 1.0"),
        (lambda: Cuboid(1, 5), "components must be a tuple or list, not 5"),
        (lambda: Cuboid(10**9, ()), "need 2^1000000000 components, got 0"),
        (lambda: Cuboid(0, ((),)), "a cuboid's space dimension must be at least 1"),
        (lambda: inject(PointedDirections((), ())), "a cuboid's space dimension must be at least 1"),
        (lambda: Cuboid(0, (5,)), "each component must be a tuple or list, not 5"),
        (lambda: PointedDirections(5, ()), "base must be a tuple or list, not 5"),
        (lambda: PointedDirections((1,), (5,)), "each direction vector must be a tuple or list, not 5"),
        (lambda: Cuboid.from_flat(1, 1, 5), "values must be a tuple or list, not 5"),
    ],
    ids=[
        "negative-dim", "str-dim", "bool-dim", "float-dim", "int-components", "huge-dim", "space-zero", "inject-empty",
        "int-component", "int-base", "int-vector", "int-flat-values",
    ],
)
def test_constructor_rejects_malformed_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_addition_needs_matching_shape():
    a = Cuboid.build(1, lambda m: (1,))
    b = Cuboid.build(2, lambda m: (1,))
    c = Cuboid.build(1, lambda m: (1, 2))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - c


def test_add_sub_are_componentwise():
    a = Cuboid.build(2, lambda m: (m.mask,))
    b = Cuboid.build(2, lambda m: (10,))
    assert (a + b).component(mi("11")) == (13,)
    assert (a - b).component(mi("01")) == (-8,)


def test_flatten_round_trip():
    c = Cuboid.build(2, lambda m: (m.mask, -m.mask))
    flat = c.flatten()
    assert len(flat) == 8
    assert Cuboid.from_flat(2, 2, flat) == c


def test_json_round_trip_preserves_exact_rationals():
    c = Cuboid.build(2, lambda m: (Fraction(m.mask, 3),))
    text = c.to_json()
    assert '"1/3"' in text
    assert Cuboid.from_json(text) == c
    # a 0-dimensional cuboid has one index, the empty one
    point = Cuboid(0, ((Fraction(-1, 3), 2),))
    assert [(m.dim, str(m)) for m in point.indices()] == [(0, "")]
    assert json.loads(point.to_json())["components"] == {"": ["-1/3", "2"]}
    assert Cuboid.from_json(point.to_json()) == point


def _cuboid_obj(**changes):
    obj = {"dim": 1, "space": 2, "components": {"0": ["1", 2], "1": ["-1/3", "0"]}}
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        ["not", "an", "object"],
        {"space": 2, "components": {}},
        _cuboid_obj(dim=True),
        _cuboid_obj(dim=0),
        _cuboid_obj(space="2"),
        _cuboid_obj(dim=10**9),
        {"dim": 1, "space": 2},
        _cuboid_obj(components=[["1", "2"], ["3", "4"]]),
        _cuboid_obj(components={"0": ["1", "2"]}),
        _cuboid_obj(components={"0": ["1", "2"], "2": ["3", "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": ["3"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": "34"}),
        _cuboid_obj(components={"0": ["1", "2"], "1": [True, "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": [0.5, "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": ["x", "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": ["1e100000000", "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": ["0.5", "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": [" 1", "4"]}),
        _cuboid_obj(components={"0": ["1", "2"], "1": ["1/0", "4"]}),
    ],
    ids=[
        "not-an-object",
        "missing-dim",
        "boolean-dim",
        "zero-dim",
        "string-space",
        "huge-dim",
        "missing-components",
        "components-not-an-object",
        "missing-component",
        "misnamed-component",
        "short-component",
        "component-not-a-list",
        "boolean-entry",
        "float-entry",
        "non-numeric-entry",
        "exponent-entry",
        "decimal-entry",
        "padded-entry",
        "zero-denominator",
    ],
)
def test_from_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        Cuboid.from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "text",
    [5, None, b'{"dim": 0, "space": 1, "components": {"": ["1"]}}', "[" * 100000 + "]" * 100000],
    ids=["int", "none", "bytes", "deep-nesting"],
)
def test_from_json_rejects_non_str_and_too_deep_input(text):
    with pytest.raises(ValueError):
        Cuboid.from_json(text)


def test_from_json_accepts_integer_entries():
    c = Cuboid.from_json(json.dumps(_cuboid_obj()))
    assert c.components == ((1, 2), (Fraction(-1, 3), 0))


# -- difference and sum operators ------------------------------------------------

def test_delta_on_a_square():
    c = Cuboid.from_flat(2, 1, [1, 10, 100, 1000])
    d = delta(c)
    assert d.component(mi("00")) == (1,)
    assert d.component(mi("10")) == (9,)
    assert d.component(mi("01")) == (99,)
    # alternating sum over the full square
    assert d.component(mi("11")) == (1000 - 100 - 10 + 1,)


def test_delta_inv_is_the_down_set_sum():
    c = Cuboid.from_flat(2, 1, [1, 10, 100, 1000])
    s = delta_inv(c)
    assert s.component(mi("00")) == (1,)
    assert s.component(mi("10")) == (11,)
    assert s.component(mi("01")) == (101,)
    assert s.component(mi("11")) == (1111,)


def down_set_sums(c: Cuboid, sign: int) -> Cuboid:
    """The definition written out: component alpha is the sum over
    beta <= alpha of sign^(|alpha| - |beta|) c_beta."""
    comps = []
    for alpha in c.indices():
        acc = None
        for beta in c.indices():
            if not beta <= alpha:
                continue
            v = c.component(beta)
            if sign < 0 and (alpha.order - beta.order) % 2:
                v = vector_neg(v)
            acc = v if acc is None else vector_add(acc, v)
        comps.append(acc)
    return Cuboid(c.dim, tuple(comps))


def poly_cuboids(dim: int):
    """Cuboids of one-variable polynomials with up to three terms."""
    polys = st.lists(rationals, min_size=3, max_size=3).map(
        lambda cs: Poly.make(1, {(i,): c for i, c in enumerate(cs)})
    )
    return st.lists(polys, min_size=2 ** dim, max_size=2 ** dim).map(
        lambda ps: Cuboid(dim, tuple((p,) for p in ps))
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: cuboids(k, 2)))
def test_transforms_match_the_submask_sum_definition(c):
    """Values and coordinate types both match pairwise + and -."""
    for got, want in ((delta(c), down_set_sums(c, -1)), (delta_inv(c), down_set_sums(c, 1))):
        assert got == want
        assert [types(v) for v in got.components] == [types(v) for v in want.components]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6).flatmap(poly_cuboids))
def test_transforms_match_the_definition_on_polynomials(c):
    assert delta(c) == down_set_sums(c, -1)
    assert delta_inv(c) == down_set_sums(c, 1)


def type_following_map(p):
    """A map whose coordinate j is a Fraction exactly when p[j] is one."""
    return (p[0] * p[0] - p[0], 3 * p[1])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=3).filter(lambda a: sum(a) <= 6),
    st.integers(0, 10**6),
    exact_vectors(2),
    st.lists(st.one_of(exact_vectors(2), st.just((0, 0)), st.just((Fraction(0), 0))), min_size=3, max_size=3),
)
def test_evaluate_delta_with_repeated_directions_matches_the_definition(alpha, seed, base, directions):
    """On mixed int/Fraction vectors, zero directions included, the value
    and its coordinate types match pairwise + and - over the corners."""
    directions = directions[: len(alpha)]
    dirs = [d for d, r in zip(directions, alpha) for _ in range(r)]
    for f in (RandomRationalMap(seed, 2, 2), type_following_map):
        want = None
        for subset in product((0, 1), repeat=len(dirs)):
            pt = base
            for bit, d in zip(subset, dirs):
                if bit:
                    pt = vector_add(pt, d)
            v = f(pt) if (len(dirs) - sum(subset)) % 2 == 0 else vector_neg(f(pt))
            want = v if want is None else vector_add(want, v)
        got = evaluate_delta(f, base, dirs)
        assert got == want
        assert types(got) == types(want)


_EPS = _Series.epsilon(3)


@pytest.mark.parametrize(
    "base, u, v",
    [
        ((Fraction(1, 2), _EPS), (_EPS * 2, 1), (1, _EPS * _EPS)),
        ((Fraction(1, 2), 3), (2, Fraction(-2, 3)), (-1, Fraction(5))),
    ],
    ids=["series", "mixed-exact"],
)
def test_every_value_type_is_added_pairwise(monkeypatch, base, u, v):
    """ε-series and mixed int/Fraction vectors take one path: corners of k
    directions are 2^k - 1 calls of vector_add."""
    adds = 0

    def counting(a, b):
        nonlocal adds
        adds += 1
        return vector_add(a, b)

    monkeypatch.setattr(cuboid, "vector_add", counting)
    bu = vector_add(base, u)
    want = [base, bu, vector_add(base, v), vector_add(bu, v)]
    got = corners(base, [u, v])
    assert got == want
    assert [types(c) for c in got] == [types(c) for c in want]
    for k in range(4):
        adds = 0
        assert len(corners(base, [u, v, bu][:k])) == 1 << k
        assert adds == 2**k - 1
    assert vector_sum([base, u, v], [1, -1, 1]) == vector_add(vector_sub(base, u), v)
    c = Cuboid(1, (base, u))
    assert delta(c) == down_set_sums(c, -1)
    assert delta_inv(c) == down_set_sums(c, 1)
    f = type_following_map
    assert evaluate_delta(f, base, [u]) == vector_sub(f(vector_add(base, u)), f(base))


@given(st.integers(1, 4).flatmap(lambda k: cuboids(k, 2)))
def test_delta_and_delta_inv_are_mutually_inverse(c):
    assert delta(delta_inv(c)) == c
    assert delta_inv(delta(c)) == c


@given(cuboids(3, 1), cuboids(3, 1))
def test_delta_is_additive(a, b):
    assert delta(a + b) == delta(a) + delta(b)


def test_pair_split_round_trip():
    u = Cuboid.from_flat(2, 1, [1, 2, 3, 4])
    v = Cuboid.from_flat(2, 1, [5, 6, 7, 8])
    w = pair(u, v)
    assert w.dim == 3
    assert w.component(mi("000")) == (1,)
    assert w.component(mi("001")) == (5,)  # last digit selects the half
    assert split(w) == (u, v)


def test_pair_needs_matching_shapes():
    u = Cuboid.from_flat(1, 1, [1, 2])
    v = Cuboid.from_flat(2, 1, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        pair(u, v)


# -- injection and the conjugated map -------------------------------------------

def test_inject_layout():
    p = PointedDirections((7, 8), ((1, 0), (0, 1), (2, 2)))
    c = inject(p)
    assert c.dim == 3
    assert c.component(mi("000")) == (7, 8)
    assert c.component(mi("100")) == (1, 0)
    assert c.component(mi("010")) == (0, 1)
    assert c.component(mi("001")) == (2, 2)
    assert c.component(mi("110")) == (0, 0)
    assert c.component(mi("111")) == (0, 0)


def test_inject_validates_vector_dimensions():
    with pytest.raises(ValueError):
        PointedDirections((1, 2), ((1, 2, 3),))


def test_pointwise_rejects_ragged_output():
    c = Cuboid.from_flat(1, 1, [1, 2])
    with pytest.raises(ValueError):
        pointwise(lambda v: (1,) * (1 + v[0]), c)


def test_discrete_tangent_is_the_conjugated_map():
    f = RandomRationalMap(11, 2, 2)
    c = Cuboid.build(2, lambda m: (Fraction(m.mask), Fraction(1 - m.mask)))
    assert discrete_tangent(f, c) == delta(pointwise(f, delta_inv(c)))


def test_discrete_tangent_of_injected_cuboid_collects_all_differences():
    """Component alpha of the conjugated map on <<x; u>> is the iterated
    difference of f at x along the vectors that alpha selects."""
    f = RandomRationalMap(23, 2, 2)
    x = (Fraction(1), Fraction(-2))
    vectors = ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    out = discrete_tangent(f, inject(PointedDirections(x, vectors)))
    for alpha in out.indices():
        dirs = [vectors[i] for i in alpha.support]
        assert out.component(alpha) == evaluate_delta(f, x, dirs)


def test_operators_work_on_any_ring_with_subtraction():
    """Only +, -, and unary - are used, so polynomial entries work too."""
    from deltachain.polynomials import Poly

    x = Poly.variable(1, 0)
    c = Cuboid.build(2, lambda m: (x ** (m.order + 1),))
    assert delta(delta_inv(c)) == c
