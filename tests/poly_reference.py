"""The ``Poly`` and ``_Series`` that ``deltachain.polynomials`` replaced, kept
unchanged as a reference, and a sweep that compares the two.

The reference ``Poly`` is a sorted tuple of (exponent tuple, coefficient)
pairs that adds exponent tuples entry by entry, and the reference
``_Series`` a tuple of coefficients multiplied term by term.  The library
packs each monomial into one ``int`` and each truncated series into one
integer numerator over a common denominator, so the two share no
arithmetic on exponents or series coefficients.  They must agree on every
result, in value and in the type (``int`` or ``Fraction``) of every
coefficient and value, and on ``terms``, ``==``, ``hash`` and ``repr``.

Run the sweep (seeds 0..N-1; polynomials in 1-4 variables of degree up to
6 with ``int``, ``Fraction`` and integral ``Fraction`` coefficients, their
arithmetic, derivatives, embeddings, evaluation at ``int``, ``Fraction``,
series and ``Poly`` arguments, alone and mixed with rationals, composition
and tangent lifts; series truncated at orders 1-17 with coefficients of up
to 300 bits, so that products and powers widen their fields):

    PYTHONPATH=src python tests/poly_reference.py [N]

It prints the counts and exits 1 on any difference.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Any, Iterable, Sequence

from deltachain import polynomials


def _rational(c: int | Fraction) -> int | Fraction:
    """An integral rational as ``int``; any other rational unchanged."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


@dataclass(frozen=True)
class Poly:
    """A polynomial as a sorted tuple of (exponent tuple, coefficient) pairs.

    Zero coefficients are dropped and integral coefficients are stored as
    ``int`` (the rest as ``Fraction``), so the zero polynomial has no terms
    and equality of values is equality of representations.

    >>> p = Poly.make(1, {(1,): Fraction(4, 2), (0,): Fraction(1, 3)})
    >>> p.terms
    (((0,), Fraction(1, 3)), ((1,), 2))
    >>> Poly.make(2, {})((Fraction(1), Fraction(2)))
    Fraction(0, 1)
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int | Fraction], ...]

    @classmethod
    def make(cls, nvars: int, coeffs: dict[tuple[int, ...], Fraction | int]) -> "Poly":
        cleaned = {}
        for expts, c in coeffs.items():
            expts = tuple(expts)
            if len(expts) != nvars:
                raise ValueError(f"exponent tuple {expts} does not have {nvars} entries")
            c = Fraction(c)
            if c:
                cleaned[expts] = cleaned.get(expts, 0) + c
        return cls._of(nvars, cleaned.items())

    @classmethod
    def _of(cls, nvars: int, pairs: Iterable[tuple[tuple[int, ...], int | Fraction]]) -> "Poly":
        """Internal constructor from (exponents, rational) pairs with distinct
        exponents: drops zeros, normalizes integral values to ``int``, sorts."""
        return cls(nvars, tuple(sorted((e, _rational(c)) for e, c in pairs if c)))

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> "Poly":
        return cls._of(nvars, [((0,) * nvars, Fraction(value))])

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        expts = tuple(int(j == i) for j in range(nvars))
        return cls._of(nvars, [(expts, 1)])

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=-1)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly._of(self.nvars, [((0,) * self.nvars, other)])
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        coeffs = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) + c
        return Poly._of(self.nvars, coeffs.items())

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._of(self.nvars, ((e, c * other) for e, c in self.terms))
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        coeffs: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return Poly._of(self.nvars, coeffs.items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Power by repeated squaring."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(self.nvars, 1)
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __call__(self, args: Sequence[Any]):
        """Evaluate at arguments from any commutative ring containing Q.

        Each power ``args[i] ** e`` is computed once per call, and terms that
        are polynomials are summed in one coefficient dict.  Integral
        ``Fraction`` arguments are evaluated as ``int``, and a rational value
        that used one is returned as a ``Fraction``, as ``Fraction``
        arithmetic would have returned it."""
        if len(args) != self.nvars:
            raise ValueError(f"need {self.nvars} arguments, got {len(args)}")
        integral = [type(a) is Fraction and a.denominator == 1 for a in args]
        if any(integral):
            args = [a.numerator if whole else a for a, whole in zip(args, integral)]
        used_integral = False
        powers: dict[tuple[int, int], Any] = {}
        acc = None
        poly_nvars, coeffs = None, {}
        for expts, coeff in self.terms:
            term: Any = coeff
            for i, e in enumerate(expts):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = args[i] if e == 1 else args[i] ** e
                        used_integral = used_integral or integral[i]
                    term = term * power
            if isinstance(term, Poly):
                if poly_nvars is None:
                    poly_nvars = term.nvars
                elif term.nvars != poly_nvars:
                    raise ValueError("variable count mismatch")
                for e, c in term.terms:
                    coeffs[e] = coeffs.get(e, 0) + c
            else:
                acc = term if acc is None else acc + term
        if poly_nvars is not None:
            total = Poly._of(poly_nvars, coeffs.items())
            return total if acc is None else total + acc
        if acc is None or (used_integral and type(acc) is int):
            return Fraction(0 if acc is None else acc)
        return acc

    def partial(self, i: int) -> "Poly":
        return Poly._of(
            self.nvars,
            ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.terms if e[i]),
        )

    def directional(self, u: Sequence[Fraction | int]) -> "Poly":
        """Derivative along the constant vector u, summed in one dict."""
        if len(u) != self.nvars:
            raise ValueError("direction dimension mismatch")
        u = [_rational(Fraction(uj)) for uj in u]
        coeffs: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self.terms:
            for j, uj in enumerate(u):
                if uj and e[j]:
                    lowered = e[:j] + (e[j] - 1,) + e[j + 1 :]
                    coeffs[lowered] = coeffs.get(lowered, 0) + c * e[j] * uj
        return Poly._of(self.nvars, coeffs.items())

    def embed(self, nvars: int) -> "Poly":
        """Reinterpret in a larger variable set: the new variables come last."""
        if self.nvars > nvars:
            raise ValueError("embedding does not fit")
        after = (0,) * (nvars - self.nvars)
        return Poly._of(nvars, ((e + after, c) for e, c in self.terms))


class _Series:
    """A power series in one scale parameter ε, truncated mod ε^n.

    ``coeffs[i]`` is the coefficient of ε^i for i < n, and every degree from
    n up is dropped, so a product costs at most n(n+1)/2 coefficient
    products whatever the degrees of its factors.  Integral coefficients are
    stored as ``int``.  The operations are +, -, unary -, * by a rational or
    a series, and ** by a nonnegative int: what ``Poly.__call__`` and the
    difference operators use.  Equality and hashing are by value, so a
    point of series can key a cache.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        coeffs = tuple(coeffs)
        if Fraction in map(type, coeffs):
            coeffs = tuple(map(_rational, coeffs))
        self.coeffs = coeffs

    def __eq__(self, other):
        return type(other) is _Series and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def epsilon(cls, n: int) -> "_Series":
        """The scale parameter ε itself, mod ε^n."""
        return cls(int(i == 1) for i in range(n))

    def _other(self, other: "_Series") -> tuple[int | Fraction, ...]:
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError("truncation order mismatch")
        return other.coeffs

    def __add__(self, other):
        if type(other) is _Series:
            return _Series(map(add, self.coeffs, self._other(other)))
        if isinstance(other, (int, Fraction)):
            return _Series((self.coeffs[0] + _rational(other),) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Series([-c for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is _Series:
            return _Series(map(sub, self.coeffs, self._other(other)))
        if isinstance(other, (int, Fraction)):
            return _Series((self.coeffs[0] - _rational(other),) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self.coeffs
        if type(other) is _Series:
            b = self._other(other)
            n = len(a)
            out: list[int | Fraction] = [0] * n
            for i, x in enumerate(a):
                if x:
                    for j in range(n - i):
                        if b[j]:
                            out[i + j] += x * b[j]
            return _Series(out)
        if isinstance(other, (int, Fraction)):
            other = _rational(other)
            return _Series([c * other for c in a])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return _Series(int(i == 0) for i in range(len(self.coeffs)))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out



# ---------------------------------------------------------------------------
# reference maps, on tuples of reference components


def compose_reference(outer: Sequence[Poly], inner: Sequence[Poly], nvars: int) -> tuple[Poly, ...]:
    """The components of ``outer`` after ``inner``, whose polynomials have ``nvars`` variables."""
    comps = []
    for p in outer:
        q = p(inner)
        if not isinstance(q, Poly):
            q = Poly.constant(nvars, q)
        comps.append(q)
    return tuple(comps)


def tangent_lift_reference(components: Sequence[Poly], n: int) -> tuple[Poly, ...]:
    """The tangent lift of the map with these components on n variables."""
    base = [p.embed(2 * n) for p in components]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    fiber = [
        Poly._of(
            2 * n,
            ((e[:j] + (e[j] - 1,) + e[j + 1 :] + units[j], c * e[j]) for e, c in p.terms for j in range(n) if e[j]),
        )
        for p in components
    ]
    return tuple(base + fiber)


# ---------------------------------------------------------------------------
# comparison


def _typed(values: Iterable[Any]) -> list[tuple[type, Any]]:
    return [(type(v), v) for v in values]


def same(got: Any, want: Any) -> bool:
    """Equal results: for a reference ``Poly``, a library ``Poly`` with the
    same variable count, terms, coefficient types, ``repr`` and hash; for a
    reference ``_Series``, a library one with the same coefficients,
    coefficient types and hash; else equal values of one type."""
    if isinstance(want, Poly):
        return (
            type(got) is polynomials.Poly
            and got.nvars == want.nvars
            and [(e, type(c), c) for e, c in got.terms] == [(e, type(c), c) for e, c in want.terms]
            and repr(got) == repr(want)
            and hash(got) == hash(want)
            and got.degree == want.degree
        )
    if isinstance(want, _Series):
        return type(got) is polynomials._Series and _typed(got.coeffs) == _typed(want.coeffs) and hash(got) == hash(want)
    if isinstance(want, tuple):
        return type(got) is tuple and len(got) == len(want) and all(map(same, got, want))
    return type(got) is type(want) and got == want


def polys(nvars: int, raw: dict) -> tuple[polynomials.Poly, Poly]:
    """The library's and the reference's ``Poly.make(nvars, raw)``."""
    return polynomials.Poly.make(nvars, raw), Poly.make(nvars, raw)


def differences(cases: Iterable[tuple[str, Any, Any]]) -> list[str]:
    """The names of the cases whose library result differs from the reference's."""
    return [name for name, got, want in cases if not same(got, want)]


def arithmetic_cases(nvars: int, a: dict, b: dict, scalar: int | Fraction, k: int, point: Sequence[Any]):
    """(name, library result, reference result) for arithmetic, comparison,
    evaluation at a rational point, derivatives and embedding."""
    (p, rp), (q, rq) = polys(nvars, a), polys(nvars, b)
    yield "make", p, rp
    yield "+", p + q, rp + rq
    yield "-", p - q, rp - rq
    yield "neg", -p, -rp
    yield "*", p * q, rp * rq
    yield "**", p**k, rp**k
    yield "* scalar", p * scalar, rp * scalar
    yield "scalar *", scalar * p, scalar * rp
    yield "+ scalar", p + scalar, rp + scalar
    yield "scalar -", scalar - p, scalar - rp
    yield "==", p == q, rp == rq
    yield "== self", p == polynomials.Poly.make(nvars, dict(rp.terms)), True
    yield "call", p(point), rp(point)
    yield "directional", p.directional(point), rp.directional(point)
    yield "embed", p.embed(nvars + 2), rp.embed(nvars + 2)
    for i in range(nvars):
        yield f"partial {i}", p.partial(i), rp.partial(i)


def evaluation_cases(nvars: int, a: dict, b: dict, inner: Sequence[dict], m: int, series: Sequence[Sequence[Any]]):
    """(name, library result, reference result) for evaluation at series and
    ``Poly`` arguments, alone and with a rational last one, composition of
    maps and the tangent lift."""
    (p, rp), (q, rq) = polys(nvars, a), polys(nvars, b)
    pairs = [polys(m, raw) for raw in inner]
    args, rargs = [g for g, _ in pairs], [r for _, r in pairs]
    yield "call at Poly", p(args), rp(rargs)
    yield "call at Poly and rationals", p(args[:-1] + [series[-1][0]]), rp(rargs[:-1] + [series[-1][0]])
    outer = polynomials.PolynomialMap(nvars, (p, q))
    composed = polynomials.compose(outer, polynomials.PolynomialMap(m, tuple(args)))
    yield "compose", composed.components, compose_reference((rp, rq), rargs, m)
    yield "tangent_lift", polynomials.tangent_lift(outer).components, tangent_lift_reference((rp, rq), nvars)
    point = [polynomials._Series(cs) for cs in series]
    rpoint = [_Series(cs) for cs in series]
    yield "call at series", p(point), rp(rpoint)
    yield "call at series and rationals", p(point[:-1] + [series[-1][0]]), rp(rpoint[:-1] + [series[-1][0]])


def series_cases(a: Sequence[Any], b: Sequence[Any], scalar: int | Fraction, k: int):
    """(name, library result, reference result) for series of one order."""
    s, t, rs, rt = polynomials._Series(a), polynomials._Series(b), _Series(a), _Series(b)
    yield "series", s, rs
    yield "+", s + t, rs + rt
    yield "-", s - t, rs - rt
    yield "neg", -s, -rs
    yield "*", s * t, rs * rt
    yield "square", s * s, rs * rs
    yield "**", s**k, rs**k
    yield "product of powers", s**k * t, rs**k * rt
    yield "sum of products", s * t + t * t - s, rs * rt + rt * rt - rs
    yield "* scalar", s * scalar, rs * scalar
    yield "scalar *", scalar * s, scalar * rs
    yield "+ scalar", s + scalar, rs + scalar
    yield "scalar -", scalar - s, scalar - rs
    yield "==", s == t, rs == rt
    yield "== after widening", (s * t) * t == polynomials._Series((rs * rt * rt).coeffs), True


# ---------------------------------------------------------------------------
# sweep


def rational(rng: random.Random, bits: int = 3, integral: bool = False) -> int | Fraction:
    """An ``int``, an integral ``Fraction`` or a proper fraction, of up to
    ``bits`` bits; only an ``int`` when ``integral``."""
    n = rng.randint(-(1 << bits), 1 << bits)
    kind = 0 if integral else rng.randrange(3)
    return n if kind == 0 else Fraction(n) if kind == 1 else Fraction(n, rng.randint(2, 7))


def raw_poly(rng: random.Random, nvars: int, degree: int, size: int, integral: bool) -> dict:
    out = {}
    for _ in range(size):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        out[tuple(e)] = rational(rng, 3, integral)
    return out


def sweep_case(seed: int) -> list[str]:
    """The differences found on the polynomials and series of one seed.  Half
    the seeds draw only ``int`` data, which the library evaluates at a point
    of series in packed integers."""
    rng = random.Random(seed)
    integral = seed % 2 == 0
    nvars, m = rng.randint(1, 4), rng.randint(1, 3)
    degree = rng.randint(0, 6)
    a, b = (raw_poly(rng, nvars, degree, rng.randint(0, 12), integral) for _ in range(2))
    inner = [raw_poly(rng, m, 3, rng.randint(0, 6), integral) for _ in range(nvars)]
    point = [rational(rng, 3, integral) for _ in range(nvars)]
    order = rng.randint(1, 17)
    bits = rng.choice((3, 40, 300))
    series = [[rational(rng, bits, integral) for _ in range(order)] for _ in range(nvars)]
    other = [rational(rng, bits, integral) for _ in range(order)]
    found = differences(arithmetic_cases(nvars, a, b, rational(rng), rng.randint(0, 5), point))
    found += differences(evaluation_cases(nvars, a, b, inner, m, series))
    found += differences(series_cases(series[0], other, rational(rng, bits), rng.randint(0, 6)))
    return found


def main(argv: list[str]) -> int:
    n_seeds = int(argv[0]) if argv else 200
    differing = 0
    for seed in range(n_seeds):
        found = sweep_case(seed)
        if found:
            differing += 1
            print(f"  seed {seed} differs: {', '.join(found)}")
    print(f"polynomials: {n_seeds} seeds, {differing} differ from the reference")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
