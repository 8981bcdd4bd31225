"""Exact multivariate polynomials over the rationals, and polynomial maps.

Coefficients are exact rationals: integral ones are stored as ``int`` and
the rest as ``Fraction``, so integer data never pays for ``Fraction``.

Evaluation is ring-generic: arguments may be rationals, floats, other
polynomials or truncated series, since only +, * and ** are used.  That one
method yields both composition of maps and valuation in a formal scale
parameter ε; the truncated series answer the valuation question to a fixed
order without computing the degrees above it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, sub
from typing import Any, Iterable, Sequence

from .combinatorics import MultiIndex
from .cuboid import Value


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


def series_valuation(lhs: Sequence[Any], rhs: Sequence[Any]) -> int | None:
    """The exact ε-valuation of the vector ``lhs - rhs`` of truncated series:
    the lowest degree with a nonzero coefficient in any component, or
    ``None`` when the difference is zero mod ε^n.  Rational entries count as
    constants.  Truncation mod ε^n is a ring map, so below n the lowest
    nonzero degree is that of the untruncated difference."""
    if len(lhs) != len(rhs):
        raise ValueError(f"space dimension mismatch: {len(lhs)} vs {len(rhs)}")
    low = None
    for a, b in zip(lhs, rhs):
        d = a - b
        for i, c in enumerate(d.coeffs if isinstance(d, _Series) else (d,)):
            if c:
                low = i if low is None else min(low, i)
                break
    return low


@dataclass(frozen=True)
class PolynomialMap:
    """A map between rational vector spaces with polynomial components."""

    domain_dim: int
    components: tuple[Poly, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        for p in self.components:
            if p.nvars != self.domain_dim:
                raise ValueError("component variable count differs from domain")

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    def __call__(self, point: Sequence[Any]) -> Value:
        return tuple(p(point) for p in self.components)


def compose(outer: PolynomialMap, inner: PolynomialMap) -> PolynomialMap:
    """The polynomial map ``outer after inner``."""
    if outer.domain_dim != inner.codomain_dim:
        raise ValueError("domain of outer differs from codomain of inner")
    comps = []
    for p in outer.components:
        q = p(inner.components)
        if not isinstance(q, Poly):
            q = Poly.constant(inner.domain_dim, q)
        comps.append(q)
    return PolynomialMap(inner.domain_dim, tuple(comps))


def directional_derivative(f: PolynomialMap, u: Sequence[Fraction | int]) -> PolynomialMap:
    return PolynomialMap(f.domain_dim, tuple(p.directional(u) for p in f.components))


def iterated_directional(f: PolynomialMap, vectors: Sequence[Sequence[Fraction | int]]) -> PolynomialMap:
    return reduce(directional_derivative, vectors, f)


def d_alpha(
    f: PolynomialMap,
    vectors: Sequence[Sequence[Fraction | int]],
    alpha: MultiIndex,
) -> PolynomialMap:
    """Mixed directional derivative: direction i applied alpha_i times."""
    if alpha.dim != len(vectors):
        raise ValueError("one direction vector per digit is required")
    seq = [vectors[i] for i in alpha.support]
    return iterated_directional(f, seq)


def tangent_lift(f: PolynomialMap) -> PolynomialMap:
    """The map (x, u) -> (f(x), derivative of f at x along u) on doubled
    variables; base variables come first, fiber variables second."""
    n = f.domain_dim
    base = [p.embed(2 * n) for p in f.components]
    # The fiber component is sum_j u_j * d_j p.  Its monomials are distinct:
    # the fiber exponents name j, and lowering e_j is injective in e.
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    fiber = [
        Poly._of(
            2 * n,
            ((e[:j] + (e[j] - 1,) + e[j + 1 :] + units[j], c * e[j]) for e, c in p.terms for j in range(n) if e[j]),
        )
        for p in f.components
    ]
    return PolynomialMap(2 * n, tuple(base + fiber))


def iterated_tangent_lift(f: PolynomialMap, k: int) -> PolynomialMap:
    for _ in range(k):
        f = tangent_lift(f)
    return f


def random_polynomial_map(
    rng: random.Random,
    domain_dim: int,
    codomain_dim: int,
    degree: int,
    dense: bool = False,
) -> PolynomialMap:
    """A random polynomial map with integer coefficients in [-3, 3].

    With ``dense=True`` every monomial up to the degree carries a nonzero
    coefficient, which keeps remainder terms generically nonzero.
    """
    exponents = [
        e for e in product(range(degree + 1), repeat=domain_dim) if sum(e) <= degree
    ]
    exponents.sort()
    comps = []
    for _ in range(codomain_dim):
        coeffs = {}
        for e in exponents:
            if dense:
                c = rng.choice([-3, -2, -1, 1, 2, 3])
            else:
                c = rng.randint(-3, 3)
            if c:
                coeffs[e] = Fraction(c)
        comps.append(Poly.make(domain_dim, coeffs))
    return PolynomialMap(domain_dim, tuple(comps))
