"""Exact multivariate polynomials over the rationals, and polynomial maps.

Coefficients are exact rationals: integral ones are stored as ``int`` and
the rest as ``Fraction``, so integer data never pays for ``Fraction``.

A monomial is one ``int`` with a 16-bit field per variable, variable 0 in
the highest field, so integer order is the order of exponent tuples.  A
product of monomials adds their keys, a derivative subtracts a unit, and
embedding into more variables is one shift.  Every monomial's total degree
stays below 2^15, so adding keys never carries from one field into the
next: ``make``, a product or a power that would reach that limit raises
``ValueError`` before any work is done.  One decoder, ``_fields``, lists a
key's nonzero fields for evaluation, derivatives and tangent lifts; it keeps
the last 4096 keys it decoded.  The degree is read from the keys alone.  A
tangent lift, ``Poly.variable`` and ``Poly.embed`` take at most
``MAX_LIFT_VARIABLES`` = 2^11 variables.

Evaluation is ring-generic: arguments may be rationals, floats, other
polynomials or truncated series, since only +, * and ** are used.  That one
method yields both composition of maps and valuation in a formal scale
parameter ε; the truncated series answer the valuation question to a fixed
order without computing the degrees above it.  A series is packed too
(Kronecker substitution): its coefficients are numerators over one
denominator, signed digits of one integer masked where the series is made,
so a product of series is one integer multiply, and a polynomial with
integral coefficients is evaluated at a point of integral series in packed
integers.  One reader, ``_unpack``, reads the fields of every packed layout.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import add, sub
from typing import Any

from .combinatorics import MultiIndex, check_int, check_type, malformed
from .cuboid import Value

_BITS = 16  # the width of one exponent field
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # every monomial's total degree stays below this
MAX_LIFT_VARIABLES = 1 << 11  # the most variables a tangent lift may have


def _rational(c: int | Fraction) -> int | Fraction:
    """An integral rational as ``int``; any other rational unchanged."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _coefficient(what: str, c: Any) -> int | Fraction:
    """``c`` as an exact rational, integral ones as ``int``; ``ValueError``
    naming ``what`` when ``Fraction`` cannot read it."""
    try:
        return _rational(Fraction(c))
    except (TypeError, ValueError, ArithmeticError):
        raise malformed(what, "a rational", c) from None


def _clean(coeffs: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    """``coeffs`` without its zero values, with integral ``Fraction``s as ``int``."""
    if Fraction in map(type, coeffs.values()):
        return {k: _rational(c) for k, c in coeffs.items() if c}
    if 0 in coeffs.values():
        return {k: c for k, c in coeffs.items() if c}
    return coeffs


@lru_cache(maxsize=4096)
def _fields(key: int) -> tuple[tuple[int, int], ...]:
    """A packed monomial's nonzero (field, exponent) pairs, highest field
    first; field f holds the exponent of variable nvars-1-f."""
    out = []
    while key:
        field = (key.bit_length() - 1) // _BITS
        e = key >> field * _BITS
        key -= e << field * _BITS
        out.append((field, e))
    return tuple(out)


class Poly:
    """A polynomial as a dict from packed monomials to nonzero coefficients.

    Integral coefficients are stored as ``int`` (the rest as ``Fraction``),
    so equal polynomials hold equal dicts.  ``terms``, the sorted tuple of
    (exponent tuple, coefficient) pairs, is made once, when first read;
    equality, hashing and ``repr`` are those of (nvars, terms).

    >>> p = Poly.make(1, {(1,): Fraction(4, 2), (0,): Fraction(1, 3)})
    >>> p.terms
    (((0,), Fraction(1, 3)), ((1,), 2))
    >>> Poly.make(2, {})((Fraction(1), Fraction(2)))
    Fraction(0, 1)
    """

    __slots__ = ("nvars", "_coeffs", "_terms", "_degree")

    def __init__(self, nvars: int, coeffs: dict[int, int | Fraction]):
        """Internal: ``coeffs`` maps packed monomials to nonzero rationals,
        integral ones as ``int``."""
        self.nvars = nvars
        self._coeffs = coeffs
        self._terms = None
        self._degree = None

    @classmethod
    def make(cls, nvars: int, coeffs: dict[tuple[int, ...], Fraction | int]) -> "Poly":
        check_int("nvars", nvars)
        check_type("coeffs", coeffs, Mapping)
        packed: dict[int, int | Fraction] = {}
        for expts, c in coeffs.items():
            try:
                expts = tuple(expts)
            except TypeError:
                raise malformed("a monomial key", "a sequence of exponents", expts) from None
            if len(expts) != nvars:
                raise ValueError(f"exponent tuple {expts} does not have {nvars} entries")
            key = 0
            for e in expts:
                check_int("exponent", e)
                key = key << _BITS | e
            if sum(expts) >= _LIMIT:
                raise ValueError(f"exponent tuple {expts} reaches the degree limit {_LIMIT}")
            if type(c) is not int:
                c = _coefficient("a coefficient", c)
            if c:
                packed[key] = packed.get(key, 0) + c
        return cls(nvars, _clean(packed))

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> "Poly":
        check_int("nvars", nvars)
        return cls(nvars, _clean({0: value if type(value) is int else _coefficient("a constant", value)}))

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        check_int("nvars", nvars, 0, MAX_LIFT_VARIABLES)  # before 1 << nvars fields is built
        check_int("variable index", i, 0, nvars - 1)
        return cls(nvars, {1 << _BITS * (nvars - 1 - i): 1})

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int | Fraction], ...]:
        if self._terms is None:
            shifts = range(_BITS * (self.nvars - 1), -1, -_BITS)
            self._terms = tuple(
                (tuple(k >> s & _FIELD for s in shifts), c) for k, c in sorted(self._coeffs.items())
            )
        return self._terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  A key is the sum of
        its fields modulo 2^16 - 1, and that sum is below the limit."""
        if self._degree is None:
            self._degree = max((k % _FIELD for k in self._coeffs), default=-1)
        return self._degree

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self.nvars == other.nvars and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __repr__(self):
        return f"Poly(nvars={self.nvars!r}, terms={self.terms!r})"

    def __add__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly(self.nvars, {0: other})
        elif other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        coeffs = dict(self._coeffs)
        get = coeffs.get
        for k, c in other._coeffs.items():
            coeffs[k] = get(k, 0) + c
        return Poly(self.nvars, _clean(coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Poly(self.nvars, _clean({k: c * other for k, c in self._coeffs.items()}))
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        degree = self.degree + other.degree
        if degree >= _LIMIT:
            raise ValueError(f"a product of degree {degree} reaches the degree limit {_LIMIT}")
        coeffs: dict[int, int | Fraction] = {}
        get = coeffs.get
        right = other._coeffs.items()
        for k1, c1 in self._coeffs.items():
            for k2, c2 in right:
                k = k1 + k2
                coeffs[k] = get(k, 0) + c1 * c2
        return Poly(self.nvars, _clean(coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Power by repeated squaring."""
        check_int("exponent", n)
        if n * self.degree >= _LIMIT:
            raise ValueError(f"a power of degree {n * self.degree} reaches the degree limit {_LIMIT}")
        out, square = None, self
        while n:
            if n & 1:
                out = square if out is None else out * square
            n >>= 1
            if n:
                square = square * square
        return Poly.constant(self.nvars, 1) if out is None else out

    def __call__(self, args: Sequence[Any]):
        """Evaluate at arguments from any commutative ring containing Q.

        Terms are taken in monomial order and each term's nonzero fields
        from variable 0 on.  Each power ``args[i] ** e`` is computed once per
        call, and the terms are summed with +, so polynomial terms of unequal
        variable counts raise ``Poly.__add__``'s ``ValueError``.  A rational
        value is a ``Fraction`` exactly when a ``Fraction`` takes part in it,
        and the zero polynomial's value is ``Fraction(0)``.  Arguments that
        are not a sequence raise ``ValueError``."""
        nvars = self.nvars
        try:
            low = args[::-1]  # variable i sits in field nvars-1-i from the lowest
        except (TypeError, KeyError):  # KeyError: a dict, where slices are hashable (3.12 on)
            raise malformed("arguments", "a sequence", args) from None
        if len(low) != nvars:
            raise ValueError(f"need {nvars} arguments, got {len(low)}")
        if nvars and type(args[0]) is _Series and self.degree > 0:
            value = self._at_series(args)
            if value is not None:
                return value
        powers: dict[tuple[int, int], Any] = {}  # args[i] ** e for e > 1, by (field, e)
        acc = None
        own = self._coeffs
        for key in sorted(own):
            term: Any = own[key]
            for field, e in _fields(key):
                power = low[field] if e == 1 else powers.get((field, e))
                if power is None:
                    power = powers[field, e] = low[field] ** e
                term = term * power
            acc = term if acc is None else acc + term
        return Fraction(0) if acc is None else acc

    def _at_series(self, args: Sequence[Any]) -> "_Series | None":
        """The value at a point of series with denominator 1, for integral
        coefficients and a positive degree (else ``None``): every power is
        an integer modulo 2^(width·n), at one width whose fields hold a bound
        on the value's digits, the sum of |coefficient| times the largest
        argument bound to the degree, and ``_series`` reduces the sum."""
        if Fraction in map(type, self._coeffs.values()):
            return None
        n = args[0].n
        base, width = 1, _SERIES_BITS
        for a in args:
            if type(a) is not _Series or a.den != 1:
                return None
            if a.n != n:
                raise ValueError("truncation order mismatch")
            base, width = max(base, a.bound), max(width, a.width)
        bound = sum(map(abs, self._coeffs.values())) * base**self.degree
        width = _width(bound, width)
        low = [a._at(width) for a in reversed(args)]
        powers: dict[tuple[int, int], int] = {}
        acc = 0
        for key, term in self._coeffs.items():
            for field, e in _fields(key):
                power = low[field] if e == 1 else powers.get((field, e))
                if power is None:
                    power = powers[field, e] = pow(low[field], e, 1 << width * n)
                term *= power
            acc += term
        return _series(n, 1, acc, width, bound)

    def partial(self, i: int) -> "Poly":
        """Derivative in variable i: ``directional`` along the unit vector e_i."""
        check_int("variable index", i, 0, self.nvars - 1)
        return self.directional([int(j == i) for j in range(self.nvars)])

    def directional(self, u: Sequence[Fraction | int]) -> "Poly":
        """Derivative along the constant vector u, summed in one dict."""
        try:
            low = [uj if type(uj) is int else _coefficient("a direction entry", uj) for uj in reversed(u)]
        except TypeError:
            raise malformed("u", "a sequence", u) from None
        if len(low) != self.nvars:
            raise ValueError("direction dimension mismatch")
        coeffs: dict[int, int | Fraction] = {}
        get = coeffs.get
        for k, c in self._coeffs.items():
            for field, e in _fields(k):
                if low[field]:
                    lowered = k - (1 << field * _BITS)
                    coeffs[lowered] = get(lowered, 0) + c * e * low[field]
        return Poly(self.nvars, _clean(coeffs))

    def embed(self, nvars: int) -> "Poly":
        """Reinterpret in a larger variable set: the new variables come last."""
        check_int("nvars", nvars, 0, MAX_LIFT_VARIABLES)
        if self.nvars > nvars:
            raise ValueError("embedding does not fit")
        shift = _BITS * (nvars - self.nvars)
        return Poly(nvars, {k << shift: c for k, c in self._coeffs.items()})


_SERIES_BITS = 64  # a series field's least width


def _width(bound: int, width: int = _SERIES_BITS) -> int:
    """The least of width, 2·width, 4·width, ... whose signed fields hold
    every integer of absolute value up to ``bound``."""
    while bound >> (width - 1):
        width *= 2
    return width


def _pack(digits: Sequence[int], width: int) -> int:
    """The signed digits in fields of ``width`` bits, the first lowest:
    sum(digit_i · 2^(width·i)).  ``_unpack`` is its inverse."""
    num = 0
    for d in reversed(digits):
        num = (num << width) + d
    return num


def _unpack(num: int, width: int, n: int) -> list[int]:
    """The n signed fields of ``width`` bits in ``num``, lowest first: the
    one reader of every packed layout.  Adding half a field makes the field
    unsigned and carries its borrow into the next."""
    half, field, out = 1 << (width - 1), (1 << width) - 1, []
    for _ in range(n):
        num += half
        out.append((num & field) - half)
        num >>= width
    return out


def _series(n: int, den: int, num: int, width: int, bound: int) -> "_Series":
    """The series of order n with these packed parts, ``num`` taken modulo
    2^(width·n), its denominator made the least one when above 1."""
    out = object.__new__(_Series)
    out.n, out.den, out.num, out.width, out.bound = n, den, num & ((1 << width * n) - 1), width, bound
    return out if den == 1 else _Series(out.coeffs)


class _Series:
    """A power series in one scale parameter ε, truncated mod ε^n.

    Coefficient i is ``digit_i / den``, with ``den`` the least common
    denominator, and the digits are packed into one integer: ``num`` is
    sum(digit_i · 2^(width·i)) mod 2^(width·n), so a product of series is
    one integer product and a mask that drops every degree from n up, and
    a sum is one integer sum.  ``bound`` bounds the sum of the digits'
    absolute values, which a product multiplies and a sum adds; every field
    holds a signed digit while ``bound`` < 2^(width-1), and an operation
    whose result would not fit repacks its operands at a doubled width
    first.  Integral coefficients are read as ``int``.  The operations are
    +, -, unary -, * by a rational or a series, and ** by a nonnegative
    int: what ``Poly.__call__`` and the difference operators use.  Equality
    and hashing are by value, so a point of series can key a cache.
    """

    __slots__ = ("n", "den", "num", "width", "bound")

    def __init__(self, coeffs: Iterable[int | Fraction]):
        coeffs = list(coeffs)
        den = math.lcm(*[c.denominator for c in coeffs])
        digits = [c.numerator * (den // c.denominator) for c in coeffs]
        self.n, self.den, self.bound = len(digits), den, sum(map(abs, digits))
        self.width = _width(self.bound)
        self.num = _pack(digits, self.width) & ((1 << self.width * self.n) - 1)

    @classmethod
    def epsilon(cls, n: int) -> "_Series":
        """The scale parameter ε itself, mod ε^n."""
        return cls(int(i == 1) for i in range(n))

    @property
    def coeffs(self) -> tuple[int | Fraction, ...]:
        den, digits = self.den, _unpack(self.num, self.width, self.n)
        return tuple(digits if den == 1 else (Fraction(d, den) if d % den else d // den for d in digits))

    def __eq__(self, other):
        if type(other) is not _Series:
            return False
        if self.width == other.width:
            return self.n == other.n and self.den == other.den and self.num == other.num
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _at(self, width: int) -> int:
        """The numerator packed at ``width``, reduced only where a series is made."""
        return self.num if width == self.width else _pack(_unpack(self.num, self.width, self.n), width)

    def _operands(self, other: "_Series", bound: int) -> tuple[int, int, int]:
        """Both numerators at one width whose fields hold ``bound``, and that width."""
        width = self.width
        if other.width != width or bound >> (width - 1):
            width = _width(bound, max(width, other.width))
            return self._at(width), other._at(width), width
        return self.num, other.num, width

    def _coerce(self, other: Any) -> "_Series | None":
        """``other`` as a series of this order; ``None`` when it is neither
        a series nor a rational."""
        if type(other) is _Series:
            if other.n != self.n:
                raise ValueError("truncation order mismatch")
            return other
        if not isinstance(other, (int, Fraction)):
            return None
        bound = abs(other.numerator)
        width = _width(bound, self.width)
        return _series(self.n, other.denominator, other.numerator, width, bound)

    def _combine(self, other: "_Series", op: Callable[[int, int], int]) -> "_Series":
        """``op(self, other)`` for ``op`` add or sub."""
        if other.den != self.den:
            return _Series(map(op, self.coeffs, other.coeffs))
        bound = self.bound + other.bound
        a, b, width = self._operands(other, bound)
        return _series(self.n, self.den, op(a, b), width, bound)

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.n, self.den, -self.num, self.width, self.bound)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combine(other, sub)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bound = self.bound * other.bound
        a, b, width = self._operands(other, bound)
        return _series(self.n, self.den * other.den, a * b, width, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        check_int("exponent", k)
        bound = self.bound**k
        width = _width(bound, self.width)
        return _series(self.n, self.den**k, pow(self._at(width), k, 1 << width * self.n), width, bound)


def series_valuation(lhs: Sequence[Any], rhs: Sequence[Any]) -> int | None:
    """The exact ε-valuation of the vector ``lhs - rhs`` of truncated series:
    the lowest degree with a nonzero coefficient in any component, or
    ``None`` when the difference is zero mod ε^n.  Rational entries count as
    constants.  Truncation mod ε^n is a ring map, so below n the lowest
    nonzero degree is that of the untruncated difference."""
    check_type("lhs", lhs, (tuple, list))
    check_type("rhs", rhs, (tuple, list))
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
        check_int("domain_dim", self.domain_dim)
        try:
            object.__setattr__(self, "components", tuple(self.components))
        except TypeError:
            raise malformed("components", "an Iterable", self.components) from None
        for p in self.components:
            check_type("each component", p, Poly)
            if p.nvars != self.domain_dim:
                raise ValueError("component variable count differs from domain")

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    def __call__(self, point: Sequence[Any]) -> Value:
        return tuple(p(point) for p in self.components)


def compose(outer: PolynomialMap, inner: PolynomialMap) -> PolynomialMap:
    """The polynomial map ``outer after inner``."""
    check_type("outer", outer, PolynomialMap)
    check_type("inner", inner, PolynomialMap)
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
    check_type("f", f, PolynomialMap)
    return PolynomialMap(f.domain_dim, tuple(p.directional(u) for p in f.components))


def iterated_directional(f: PolynomialMap, vectors: Sequence[Sequence[Fraction | int]]) -> PolynomialMap:
    check_type("f", f, PolynomialMap)
    check_type("vectors", vectors, (tuple, list))
    return reduce(directional_derivative, vectors, f)


def d_alpha(
    f: PolynomialMap,
    vectors: Sequence[Sequence[Fraction | int]],
    alpha: MultiIndex,
) -> PolynomialMap:
    """Mixed directional derivative: direction i applied alpha_i times."""
    check_type("vectors", vectors, (tuple, list))
    check_type("alpha", alpha, MultiIndex)
    if alpha.dim != len(vectors):
        raise ValueError("one direction vector per digit is required")
    seq = [vectors[i] for i in alpha.support]
    return iterated_directional(f, seq)


def tangent_lift(f: PolynomialMap) -> PolynomialMap:
    """The map (x, u) -> (f(x), derivative of f at x along u) on doubled
    variables; base variables come first, fiber variables second.  A lift
    of more than ``MAX_LIFT_VARIABLES`` variables raises ``ValueError``."""
    check_type("f", f, PolynomialMap)
    n = f.domain_dim
    if 2 * n > MAX_LIFT_VARIABLES:
        raise ValueError(f"a lift of {n} variables has {2 * n}, above the limit of {MAX_LIFT_VARIABLES}")
    base = [p.embed(2 * n) for p in f.components]
    # The fiber component is sum_j u_j * d_j p.  Lowering e_j and shifting
    # the key into the base fields leaves fiber field j, which is where x_j
    # sat in f's own layout, for u_j's unit.  Its monomials are distinct:
    # the fiber exponents name j, and lowering e_j is injective in e.
    shift = _BITS * n
    fiber = []
    for p in f.components:
        coeffs: dict[int, int | Fraction] = {}
        for k, c in p._coeffs.items():
            for field, e in _fields(k):
                s = field * _BITS
                coeffs[(k - (1 << s)) << shift | 1 << s] = c * e
        fiber.append(Poly(2 * n, _clean(coeffs)))
    return PolynomialMap(2 * n, tuple(base + fiber))


def iterated_tangent_lift(f: PolynomialMap, k: int) -> PolynomialMap:
    """``tangent_lift`` applied k times, on f.domain_dim · 2^k variables;
    ``ValueError`` before any lift when that passes ``MAX_LIFT_VARIABLES``."""
    check_type("f", f, PolynomialMap)
    check_int("k", k)
    if k.bit_length() > MAX_LIFT_VARIABLES.bit_length() or f.domain_dim << k > MAX_LIFT_VARIABLES:
        raise ValueError(f"{k} lifts of {f.domain_dim} variables pass the limit of {MAX_LIFT_VARIABLES} variables")
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
    check_type("rng", rng, random.Random)
    check_int("domain_dim", domain_dim)
    check_int("codomain_dim", codomain_dim)
    check_int("degree", degree)
    exponents = [
        e for e in product(range(degree + 1), repeat=domain_dim) if sum(e) <= degree
    ]
    comps = []
    for _ in range(codomain_dim):
        coeffs = {}
        for e in exponents:
            if dense:
                c = rng.choice([-3, -2, -1, 1, 2, 3])
            else:
                c = rng.randint(-3, 3)
            if c:
                coeffs[e] = c
        comps.append(Poly.make(domain_dim, coeffs))
    return PolynomialMap(domain_dim, tuple(comps))
