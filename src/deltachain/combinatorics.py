"""Binary multi-indices, their partitions, and the refinement recursion.

A multi-index is a finite string of binary digits, ordered componentwise
and stored as its length and a bit mask.
A partition of a nonzero multi-index splits it into nonzero pieces with
pairwise disjoint supports; partitions correspond one-to-one to set
partitions of the support, so their counts are Bell numbers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Any


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """An element of {0,1}^k under the componentwise partial order.

    Stored as the dimension k, at most ``MAX_DIM``, and a mask with bit i
    set iff digit i+1 is 1.

    >>> a = MultiIndex.from_string("101")
    >>> a.order, a.dim, a.mask, a.support
    (2, 3, 5, (0, 2))
    >>> MultiIndex.from_string("100") <= a
    True
    """

    dim: int
    mask: int

    def __post_init__(self) -> None:
        check_int("dim", self.dim, 0, MAX_DIM)
        if type(self.mask) is not int or self.mask < 0 or self.mask.bit_length() > self.dim:
            raise malformed("mask", f"an int in [0, 2**{self.dim} - 1]", self.mask)

    @classmethod
    def empty(cls) -> "MultiIndex":
        """The index with no digits, ``MultiIndex(0, 0)``: the one index of a
        0-dimensional cuboid, written as the empty bitstring."""
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "MultiIndex":
        """The multi-index with the given digits, first digit first."""
        check_type("bits", bits, Iterable)
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise malformed("bits", "an Iterable of 0s and 1s", bits)
        check_int("dim", len(bits), 0, MAX_DIM)
        return cls(len(bits), int("".join(map(str, map(int, reversed(bits)))) or "0", 2))

    @classmethod
    def from_string(cls, s: str) -> "MultiIndex":
        check_type("s", s, str)
        if any(c not in "01" for c in s):
            raise malformed("s", "a bitstring", s)
        return cls(len(s), int(s[::-1] or "0", 2))

    @classmethod
    def zero(cls, dim: int) -> "MultiIndex":
        return cls(dim, 0)

    @classmethod
    def unit(cls, dim: int, position: int) -> "MultiIndex":
        """The multi-index with a single 1-digit at ``position`` (0-based)."""
        check_int("dim", dim, 0, MAX_DIM)
        check_int("position", position, 0, dim - 1)
        return cls(dim, 1 << position)

    @classmethod
    def ones(cls, dim: int) -> "MultiIndex":
        check_int("dim", dim, 0, MAX_DIM)
        return cls(dim, (1 << dim) - 1)

    @property
    def bits(self) -> tuple[int, ...]:
        """The digits, first digit first."""
        return tuple((self.mask >> i) & 1 for i in range(self.dim))

    @property
    def order(self) -> int:
        """Number of 1-digits."""
        return self.mask.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """0-based positions of the 1-digits, ascending."""
        return tuple(i for i in range(self.dim) if (self.mask >> i) & 1)

    @property
    def sort_key(self) -> tuple[int, str]:
        """Total order key: order first, then lexicographic digits."""
        return (self.order, str(self))

    def __str__(self) -> str:
        # the binary digits below a sentinel bit at dim, lowest first
        return bin(self.mask | 1 << self.dim)[:2:-1]

    def __le__(self, other: "MultiIndex") -> bool:
        check_type("other", other, MultiIndex)
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return not self.mask & ~other.mask

    def __lt__(self, other: "MultiIndex") -> bool:
        return self <= other and self.mask != other.mask

    def diamond(self, digit: int) -> "MultiIndex":
        """Append one digit."""
        if digit not in (0, 1):
            raise malformed("digit", "0 or 1", digit)
        return MultiIndex(self.dim + 1, self.mask | int(digit) << self.dim)

    def placements(self) -> tuple["MultiIndex", ...]:
        """Entry c is the index below self carrying the digits of mask c on
        the support; placing keeps the order and the digit-string order.

        >>> [str(m) for m in MultiIndex.from_string("101").placements()]
        ['000', '100', '001', '101']
        """
        placed = [0]
        for p in self.support:
            placed += [m | 1 << p for m in placed]
        return tuple(MultiIndex(self.dim, m) for m in placed)

    def down_set(self) -> tuple["MultiIndex", ...]:
        """All multi-indices below self, sorted by ``sort_key``."""
        # placing keeps the order, so the rank of c sorts the placed indices;
        # the order is an int, and no limit applies to it here
        placed = self.placements()
        rank = mask_rank.__wrapped__(self.order)
        return tuple(map(placed.__getitem__, sorted(range(len(placed)), key=rank.__getitem__)))

    def restrict(self, positions: Sequence[int]) -> "MultiIndex":
        """Project onto the given positions; support must lie inside them."""
        _check_positions(positions, self.dim)
        picked = MultiIndex.from_bits((self.mask >> p) & 1 for p in positions)
        if picked.order != self.order:
            raise ValueError(f"support of {self} not contained in {positions}")
        return picked

    def embed(self, positions: Sequence[int], dim: int) -> "MultiIndex":
        """Place the digits of self at ``positions`` inside a zero index of ``dim``."""
        check_int("dim", dim, 0, MAX_DIM)
        _check_positions(positions, dim)
        if len(positions) != self.dim:
            raise ValueError("positions must match dimension")
        mask = 0
        for i, p in enumerate(positions):
            mask |= ((self.mask >> i) & 1) << p
        return MultiIndex(dim, mask)


MAX_DIM = 1 << 16  # the largest dimension of a multi-index: a mask of 2^16 bits is 8 KB

_SHOWN = 80  # the most characters of an argument's repr that a message quotes


def shown(value: Any) -> str:
    """``value`` as an error message quotes it: its repr cut to ``_SHOWN``
    characters.  An int whose repr is longer than that is named by its bit
    length, and its repr is not made above 266 bits, which print in more
    than 80 digits; a value whose repr fails is named by its type."""
    try:
        if isinstance(value, int) and (value.bit_length() > 266 or len(repr(value)) > _SHOWN):
            return f"an int of {value.bit_length()} bits"
        text = repr(value)
    except Exception:  # any repr may fail: an int too long to print inside a list, or deep nesting
        return f"a {type(value).__name__} that cannot be printed"
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def malformed(name: str, noun: str, value: Any) -> ValueError:
    """The one error for an argument ``name`` that is not ``noun``:
    ``ValueError("{name} must be {noun}, not {value}")``, the value written
    by ``shown``."""
    return ValueError(f"{name} must be {noun}, not {shown(value)}")


def check_int(name: str, value: Any, low: int | None = 0, high: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` in [low, high]; a
    ``bool`` is not one, and a ``None`` bound leaves that end open."""
    if type(value) is not int or low is not None and value < low or high is not None and value > high:
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise malformed(name, f"an int{bounds}", value)


def check_type(name: str, value: Any, kind: type | tuple[type, ...]) -> None:
    """Raise ``ValueError`` unless ``isinstance(value, kind)``: ``kind`` is a
    class or a tuple of classes, abstract ones such as ``Callable`` too, and
    the message names each, as in ``"c must be a tuple or a list, not 3"``."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        noun = " or ".join(("an " if k.__name__[0] in "AEIOUaeiou" else "a ") + k.__name__ for k in kinds)
        raise malformed(name, noun, value)


def cached_after(check: Callable[[Any], None]):
    """Decorator: cache a function of one argument, and run ``check`` on the
    argument before the cache, which cannot hash a list.  The function keeps
    the cache's ``cache_info`` and ``cache_clear``, which callers read and
    clear, and its ``__wrapped__`` is the cache without the check."""

    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(cached)
        def checked(arg):
            check(arg)
            return cached(arg)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def _check_positions(positions: Sequence[int], dim: int) -> None:
    check_type("positions", positions, (tuple, list))
    for p in positions:
        check_int("position", p, 0, dim - 1)
    if len(set(positions)) != len(positions):
        raise malformed("positions", "distinct", positions)


@dataclass(frozen=True)
class Partition:
    """A set of nonzero multi-indices with disjoint supports summing to target.

    Blocks are kept in canonical order: ascending position of the least
    1-digit.  That order is stable under appending digits to every block,
    which the refinement step below relies on.
    """

    target: MultiIndex
    blocks: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        check_type("target", self.target, MultiIndex)
        check_type("blocks", self.blocks, (tuple, list))
        blocks = tuple(self.blocks)
        if self.target.order == 0:
            if blocks:
                raise ValueError("the zero multi-index admits only the empty partition")
            object.__setattr__(self, "blocks", ())
            return
        seen = 0
        for b in blocks:
            check_type("block", b, MultiIndex)
            if b.dim != self.target.dim:
                raise ValueError("block dimension mismatch")
            if not b.mask:
                raise ValueError("blocks must be nonzero")
            if seen & b.mask:
                raise ValueError("blocks must have disjoint supports")
            seen |= b.mask
        if seen != self.target.mask:
            raise ValueError("blocks must sum to the target")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=lambda b: b.mask & -b.mask)))

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def maxord(self) -> int:
        return max((b.order for b in self.blocks), default=0)


MAX_RANK_DIM = 16  # mask_rank(16) sorts 65,536 masks in about 0.1 s


@cached_after(lambda dim: check_int("dim", dim, 0, MAX_RANK_DIM))
def mask_rank(dim: int) -> tuple[int, ...]:
    """``rank[m]`` is the position of ``MultiIndex(dim, m)`` among the
    indices of dimension ``dim`` sorted by ``sort_key``, for ``dim`` up to
    ``MAX_RANK_DIM``.

    >>> mask_rank(2)  # masks 0, 1, 2, 3 are 00, 10, 01, 11
    (0, 2, 1, 3)
    """
    ordered = sorted(range(1 << dim), key=lambda m: MultiIndex(dim, m).sort_key)
    rank = [0] * len(ordered)
    for position, m in enumerate(ordered):
        rank[m] = position
    return tuple(rank)


def _refine_masks(blocks: tuple[int, ...], dim: int) -> tuple[tuple[int, ...], ...]:
    # ``refine`` on block masks: the new digit, bit ``dim``, is the highest, so
    # the blocks stay ordered by their least 1-digit.
    top = 1 << dim
    return (blocks + (top,), *(blocks[:i] + (b | top,) + blocks[i + 1 :] for i, b in enumerate(blocks)))


@lru_cache(maxsize=None)
def _partition_rows(dim: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The partitions of ``MultiIndex.ones(dim)``, grown by ``_refine_masks``
    and sorted by (size, block digit strings).  A row is (block masks, the
    row of its parent in ``_partition_rows(dim - 1)``, its child number)."""
    if dim == 0:
        return (((), 0, 0),)
    rows = [
        (blocks, parent, child)
        for parent, (parent_blocks, _, _) in enumerate(_partition_rows(dim - 1))
        for child, blocks in enumerate(_refine_masks(parent_blocks, dim - 1))
    ]
    # Equal-length digit strings compare as their masks with the bits reversed.
    reverse = [int(f"{m:0{dim}b}"[::-1], 2) for m in range(1 << dim)]
    rows.sort(key=lambda row: (len(row[0]), [reverse[b] for b in row[0]]))
    if len({blocks for blocks, _, _ in rows}) != bell_number(dim):
        raise AssertionError("the refinement step missed or repeated a partition")
    return tuple(rows)


@cached_after(lambda alpha: check_type("alpha", alpha, MultiIndex))
def enumerate_partitions(alpha: MultiIndex) -> tuple[Partition, ...]:
    """All partitions of ``alpha``, sorted by (size, block digit strings):
    the rows of ``_partition_rows(alpha.order)`` placed on alpha's support,
    which keeps their order.

    The zero multi-index has exactly one partition: the empty one.
    """
    placed = alpha.placements()
    return tuple(Partition(alpha, tuple(map(placed.__getitem__, b))) for b, _, _ in _partition_rows(alpha.order))


def refine(p: Partition) -> tuple[Partition, ...]:
    """The partitions of target⋄1 obtained from ``p``.

    The first child appends 0 to every block and adds the new singleton
    block; child i (1-based) appends 1 to block i and 0 to the others.
    Across all partitions of the target these children disjointly exhaust
    the partitions of target⋄1.
    """
    check_type("p", p, Partition)
    target = p.target.diamond(1)
    children = _refine_masks(tuple(b.mask for b in p.blocks), p.target.dim)
    return tuple(Partition(target, tuple(MultiIndex(target.dim, b) for b in blocks)) for blocks in children)


MAX_BELL_N = 1000  # bell_number(1000) takes about 0.1 s, and 2000 about 1.3 s


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set, via the Bell triangle,
    for n up to ``MAX_BELL_N``.

    >>> [bell_number(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    check_int("n", n, 0, MAX_BELL_N)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
