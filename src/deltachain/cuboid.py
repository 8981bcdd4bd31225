"""Cuboids of vectors and the invertible difference operator on them.

A cuboid of dimension k assigns a vector to every multi-index in {0,1}^k.
Components may be exact rationals or any values supporting +, - and unary
negation (polynomials work too); nothing here ever multiplies or divides,
and every value type is added by its own + and -.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Any

from .combinatorics import MultiIndex, check_int, check_type, malformed

Value = tuple[Any, ...]

# An entry string as ``to_json`` writes it; Fraction("1e100000000") would build 10**100000000.
_ENTRY_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# No guard runs before the work, as these run once per corner on the tuple
# path: an operand without a length, or entries without + or -, raise a
# TypeError that becomes a ValueError naming both operands.
def vector_add(a: Value, b: Value) -> Value:
    try:
        if len(a) != len(b):
            raise ValueError(f"space dimension mismatch: {len(a)} vs {len(b)}")
        return tuple(map(add, a, b))
    except TypeError:
        raise ValueError(f"cannot add {a!r} and {b!r} as vectors") from None


def vector_sub(a: Value, b: Value) -> Value:
    try:
        if len(a) != len(b):
            raise ValueError(f"space dimension mismatch: {len(a)} vs {len(b)}")
        return tuple(map(sub, a, b))
    except TypeError:
        raise ValueError(f"cannot subtract {b!r} from {a!r} as vectors") from None


def vector_neg(a: Value) -> Value:
    try:
        return tuple(map(neg, a))
    except TypeError:
        raise malformed("a", "a vector", a) from None


def vector_sum(vectors: Sequence[Value], signs: Sequence[int] | None = None) -> Value:
    """The sum of nonempty ``vectors``, each negated where ``signs`` is -1."""
    try:
        first, signs = vectors[0], signs or (1,) * len(vectors)
    except (IndexError, KeyError, TypeError):
        raise malformed("vectors", "a nonempty sequence", vectors) from None
    acc = first if signs[0] > 0 else vector_neg(first)
    for v, s in zip(vectors[1:], signs[1:]):
        acc = vector_add(acc, v) if s > 0 else vector_sub(acc, v)
    return acc


def corners(base: Value, dirs: Sequence[Value]) -> list[Value]:
    """The 2^k corners: entry m is base plus ``dirs[i]`` for each bit i of m.
    The list doubles at each direction, one ``vector_add`` per new corner."""
    out = [base]
    try:
        for d in dirs:
            out += [vector_add(x, d) for x in out]
    except TypeError:  # vector_add raises no TypeError
        raise malformed("dirs", "a sequence of vectors", dirs) from None
    return out


@dataclass(frozen=True)
class PointedDirections:
    """A base point together with one direction vector per cube axis."""

    base: Value
    vectors: tuple[Value, ...]

    def __post_init__(self) -> None:
        check_type("base", self.base, (tuple, list))
        check_type("vectors", self.vectors, (tuple, list))
        for v in self.vectors:
            check_type("each direction vector", v, (tuple, list))
            if len(v) != len(self.base):
                raise ValueError("direction dimension differs from base point")
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))


@dataclass(frozen=True)
class Cuboid:
    """A family of vectors indexed by {0,1}^k, stored densely.

    Component order: the multi-index with digits (a_1, ..., a_k) sits at
    offset sum(a_i << (i-1)), so the first digit is the least significant
    bit and pairing/splitting along the last axis is plain concatenation.
    """

    dim: int
    components: tuple[Value, ...]

    def __post_init__(self) -> None:
        check_int("dim", self.dim)
        check_type("components", self.components, (tuple, list))
        for c in self.components:
            check_type("each component", c, (tuple, list))
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        n = len(self.components)
        # bit_length first: a huge dim must not build the integer 1 << dim
        if n.bit_length() != self.dim + 1 or n != 1 << self.dim:
            raise ValueError(f"need 2^{self.dim} components, got {n}")
        space = len(self.components[0])
        if space < 1:
            raise ValueError("a cuboid's space dimension must be at least 1")
        if any(len(c) != space for c in self.components):
            raise ValueError("components must share one space dimension")

    @property
    def space(self) -> int:
        return len(self.components[0])

    @classmethod
    def build(cls, dim: int, fn: Callable[[MultiIndex], Value]) -> "Cuboid":
        check_int("dim", dim)
        check_type("fn", fn, Callable)
        return cls(dim, tuple(fn(m) for m in _indices(dim)))

    def component(self, index: MultiIndex) -> Value:
        try:
            if index.dim != self.dim:
                raise ValueError(f"index dimension {index.dim} differs from cuboid dimension {self.dim}")
            return self.components[index.mask]
        except AttributeError:
            raise malformed("index", "a MultiIndex", index) from None

    def indices(self) -> Iterator[MultiIndex]:
        return iter(_indices(self.dim))

    def __add__(self, other: "Cuboid") -> "Cuboid":
        if not isinstance(other, Cuboid):
            return NotImplemented
        self._check_shape(other)
        return Cuboid(self.dim, tuple(vector_add(a, b) for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Cuboid") -> "Cuboid":
        if not isinstance(other, Cuboid):
            return NotImplemented
        self._check_shape(other)
        return Cuboid(self.dim, tuple(vector_sub(a, b) for a, b in zip(self.components, other.components)))

    def _check_shape(self, other: "Cuboid") -> None:
        if self.dim != other.dim:
            raise ValueError(f"cuboid dimension mismatch: {self.dim} vs {other.dim}")
        if self.space != other.space:
            raise ValueError(f"space dimension mismatch: {self.space} vs {other.space}")

    def flatten(self) -> Value:
        """Concatenate all components in index order."""
        return tuple(x for c in self.components for x in c)

    @classmethod
    def from_flat(cls, dim: int, space: int, values: Sequence[Any]) -> "Cuboid":
        check_int("dim", dim)
        check_int("space", space, 1)
        check_type("values", values, (tuple, list))
        n, rest = divmod(len(values), space)
        # bit_length first: a huge dim must not build the integer 1 << dim
        if rest or n.bit_length() != dim + 1 or n != 1 << dim:
            raise ValueError("flat length does not match dim and space")
        return cls(dim, tuple(tuple(values[i * space : (i + 1) * space]) for i in range(n)))

    def to_json(self) -> str:
        obj = {
            "dim": self.dim,
            "space": self.space,
            "components": {
                str(m): [str(Fraction(x)) for x in self.component(m)] for m in _indices(self.dim)
            },
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Cuboid":
        """Inverse of ``to_json``; malformed input, such as a non-``str``, nesting
        too deep or an entry string ``to_json`` does not write, raises ``ValueError``."""
        check_type("text", text, str)
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("nesting too deep") from None
        dim, space = (obj.get("dim"), obj.get("space")) if isinstance(obj, dict) else (None, None)
        if not (type(dim) is int and dim >= 0 and type(space) is int and space > 0):
            raise ValueError("need a nonnegative integer dim and a positive integer space")
        raw = obj.get("components")
        # bit_length first: a huge dim must not build the integer 1 << dim
        if not isinstance(raw, dict) or len(raw).bit_length() != dim + 1 or len(raw) != 1 << dim:
            raise ValueError(f"components must map each of the 2^{dim} indices to a vector")
        comps = []
        for m in _indices(dim):
            vec = raw.get(str(m))
            if not isinstance(vec, list) or len(vec) != space or not all(
                type(x) is int or type(x) is str and _ENTRY_RE.fullmatch(x) for x in vec
            ):
                raise ValueError(f"component {m} must list {space} integers or fraction strings")
            try:
                comps.append(tuple(Fraction(x) for x in vec))
            except ZeroDivisionError:
                raise ValueError(f"component {m} has a zero denominator") from None
        return cls(dim, tuple(comps))


def _indices(dim: int) -> tuple[MultiIndex, ...]:
    return tuple(MultiIndex(dim, i) for i in range(1 << dim))


def _butterfly(values: list, dim: int, combine: Callable[[Any, Any], Any]) -> list:
    """In place, and returned: entry alpha becomes the combination of the
    entries beta <= alpha, by one pass per axis (Yates' method): O(k 2^k)
    steps, not O(3^k)."""
    for axis in range(dim):
        bit = 1 << axis
        for m in range(1 << dim):
            if m & bit:
                values[m] = combine(values[m], values[m ^ bit])
    return values


def delta(c: Cuboid) -> Cuboid:
    """Alternating down-set sums: component alpha becomes
    sum over beta <= alpha of (-1)^(|alpha|-|beta|) c_beta."""
    check_type("c", c, Cuboid)
    return Cuboid(c.dim, tuple(_butterfly(list(c.components), c.dim, vector_sub)))


def delta_inv(c: Cuboid) -> Cuboid:
    """Down-set sums: component alpha becomes sum over beta <= alpha of c_beta."""
    check_type("c", c, Cuboid)
    return Cuboid(c.dim, tuple(_butterfly(list(c.components), c.dim, vector_add)))


def pair(u: Cuboid, v: Cuboid) -> Cuboid:
    """Join two k-cuboids into a (k+1)-cuboid along a new last axis."""
    check_type("u", u, Cuboid)
    check_type("v", v, Cuboid)
    u._check_shape(v)
    return Cuboid(u.dim + 1, u.components + v.components)


def split(w: Cuboid) -> tuple[Cuboid, Cuboid]:
    """Inverse of ``pair``."""
    check_type("w", w, Cuboid)
    if w.dim == 0:
        raise ValueError("cannot split a 0-dimensional cuboid")
    half = 1 << (w.dim - 1)
    return Cuboid(w.dim - 1, w.components[:half]), Cuboid(w.dim - 1, w.components[half:])


def inject(p: PointedDirections) -> Cuboid:
    """The cuboid with base p.base, the i-th vector at each unit index, and
    zero at every index of order two or more."""
    check_type("p", p, PointedDirections)
    base, vectors = p.base, p.vectors
    zero = tuple(x - x for x in base)

    def fn(m: MultiIndex) -> Value:
        if m.order == 0:
            return base
        if m.order == 1:
            return vectors[m.support[0]]
        return zero

    return Cuboid(len(vectors), tuple(fn(m) for m in _indices(len(vectors))))


def pointwise(f: Callable[[Value], Value], c: Cuboid) -> Cuboid:
    """Apply a map to every component."""
    check_type("c", c, Cuboid)
    check_type("f", f, Callable)
    return Cuboid(c.dim, tuple(tuple(f(v)) for v in c.components))


def discrete_tangent(f: Callable[[Value], Value], c: Cuboid) -> Cuboid:
    """Conjugate the pointwise map by the difference operator; ``delta_inv``
    checks ``c`` and ``pointwise`` checks ``f``."""
    return delta(pointwise(f, delta_inv(c)))
