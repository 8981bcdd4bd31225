"""Exact multivariate polynomials over the rationals, and polynomial maps.

Coefficients are exact rationals: integral ones are stored as ``int`` and
the rest as ``Fraction``, so integer data never pays for ``Fraction``.

Evaluation is ring-generic: arguments may be rationals, floats, or other
polynomials, since only +, * and ** are used.  That one method yields both
composition of maps and valuation in a formal scale parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add
from typing import Any, Iterable, Sequence

from .combinatorics import MultiIndex
from .cuboid import Value


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
        terms = ((e, c if type(c) is int or c.denominator != 1 else c.numerator) for e, c in pairs if c)
        return cls(nvars, tuple(sorted(terms)))

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> "Poly":
        return cls._of(nvars, [((0,) * nvars, Fraction(value))])

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        expts = tuple(int(j == i) for j in range(nvars))
        return cls._of(nvars, [(expts, 1)])

    def as_dict(self) -> dict[tuple[int, ...], int | Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=-1)

    @property
    def min_degree(self) -> int | None:
        """Smallest total degree carrying a nonzero coefficient; None if zero."""
        return min((sum(e) for e, _ in self.terms), default=None)

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
        are polynomials are summed in one coefficient dict."""
        if len(args) != self.nvars:
            raise ValueError(f"need {self.nvars} arguments, got {len(args)}")
        powers: dict[tuple[int, int], Any] = {}
        acc = None
        poly_nvars, coeffs = None, {}
        for expts, coeff in self.terms:
            term: Any = coeff
            for i, e in enumerate(expts):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = args[i] ** e
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
        return Fraction(0) if acc is None else acc

    def partial(self, i: int) -> "Poly":
        return Poly._of(
            self.nvars,
            ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.terms if e[i]),
        )

    def directional(self, u: Sequence[Fraction | int]) -> "Poly":
        """Derivative along the constant vector u."""
        if len(u) != self.nvars:
            raise ValueError("direction dimension mismatch")
        out = Poly.constant(self.nvars, 0)
        for j, uj in enumerate(u):
            if uj:
                out = out + self.partial(j) * Fraction(uj)
        return out

    def embed(self, nvars: int, offset: int = 0) -> "Poly":
        """Reinterpret in a larger variable set, shifting variables by offset."""
        if offset + self.nvars > nvars:
            raise ValueError("embedding does not fit")
        before, after = (0,) * offset, (0,) * (nvars - offset - self.nvars)
        return Poly._of(nvars, ((before + e + after, c) for e, c in self.terms))


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
    base = [p.embed(2 * n, 0) for p in f.components]
    fiber = []
    for p in f.components:
        acc = Poly.constant(2 * n, 0)
        for j in range(n):
            acc = acc + Poly.variable(2 * n, n + j) * p.partial(j).embed(2 * n, 0)
        fiber.append(acc)
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
    coeff_bound: int = 3,
    dense: bool = False,
) -> PolynomialMap:
    """A random polynomial map with small integer coefficients.

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
                c = rng.choice([i for i in range(-coeff_bound, coeff_bound + 1) if i])
            else:
                c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                coeffs[e] = Fraction(c)
        comps.append(Poly.make(domain_dim, coeffs))
    return PolynomialMap(domain_dim, tuple(comps))
