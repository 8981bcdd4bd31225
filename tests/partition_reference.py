"""An enumeration of set partitions that shares no code with the library's,
kept as a reference, and a sweep that compares the two.

The library grows one table of block masks with its refinement step and
places it on each alpha's support; ``enumerate_partitions`` and ``refine``
both rest on that step.  The reference inserts each support position into
every block of each partition of the rest, or opens a new block with it,
and sorts the result by (size, block digit strings) itself.

The all-ones index-set families, ``asets._ones_families``, grow along the
same table: each row's family from its parent row's.  The library lifts
each parent set once and merges sorted runs; ``reference_ones_families``
keeps the recursion it replaced, which lifts the sets again for every child,
takes set unions and sorts each by a (order, digit string) key of its own.

Run the sweep (``enumerate_partitions`` of every alpha of dimension 0..8
and of ``111111111``, ``refine``'s children over every partition of
``1^k`` against the reference partitions of ``1^(k+1)``, for k up to 8,
and ``_ones_families(d)`` against the reference, row by row, for d up to 9):

    PYTHONPATH=src python tests/partition_reference.py

It prints the counts and exits 1 on any difference.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterator

from deltachain.asets import _ones_families
from deltachain.combinatorics import MultiIndex, Partition, _partition_rows, enumerate_partitions, refine


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    # Insert the first item into each block of every partition of the rest,
    # or open a new block.
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield part + [[first]]


def reference_partitions(alpha: MultiIndex) -> list[Partition]:
    """All partitions of ``alpha``, sorted by (size, block digit strings)."""
    parts = [
        Partition(alpha, tuple(MultiIndex(alpha.dim, sum(1 << p for p in group)) for group in groups))
        for groups in _set_partitions(alpha.support)
    ]
    parts.sort(key=lambda p: (p.size, tuple(str(b) for b in p.blocks)))
    return parts


def table_differences(alpha: MultiIndex) -> list[str]:
    """What differs between ``enumerate_partitions(alpha)`` and the reference."""
    got, want = list(enumerate_partitions(alpha)), reference_partitions(alpha)
    if len(got) != len(want):
        return [f"enumerate_partitions({alpha}) has {len(got)} partitions, the reference {len(want)}"]
    return [
        f"enumerate_partitions({alpha})[{i}] is {[str(b) for b in g.blocks]}, not {[str(b) for b in w.blocks]}"
        for i, (g, w) in enumerate(zip(got, want))
        if g != w
    ]


def cover_differences(k: int) -> list[str]:
    """What differs between ``refine``'s children over the partitions of
    ``1^k`` and the reference partitions of ``1^(k+1)``, each once."""
    children = Counter(c for p in reference_partitions(MultiIndex.ones(k)) for c in refine(p))
    want = reference_partitions(MultiIndex.ones(k + 1))
    out = [f"refine over 1^{k} misses {[str(b) for b in q.blocks]}" for q in want if q not in children]
    wanted = set(want)
    out += [
        f"refine over 1^{k} gives {[str(b) for b in c.blocks]} {n} times"
        for c, n in children.items()
        if n > 1 or c not in wanted
    ]
    return out


@lru_cache(maxsize=None)
def reference_ones_families(dim: int) -> tuple:
    """``_ones_families(dim)`` the long way: one row per row of
    ``_partition_rows(dim)``, each grown from its parent row's sets by set
    unions of their lifts, every union sorted by (order, digit string)."""
    if dim == 0:
        return (((), ((0,),)),)
    top = 1 << (dim - 1)

    def lift(s):
        return tuple(m | top for m in s)

    def union(*groups):
        return tuple(sorted(set().union(*groups), key=lambda m: (m.bit_count(), f"{m:0{dim}b}"[::-1])))

    parents = reference_ones_families(dim - 1)
    out = []
    for blocks, parent, child in _partition_rows(dim):
        base, *block_sets = parents[parent][1]
        if child:
            i = child - 1
            sets = [union(base, lift(base), block_sets[i])]
            sets += [s if j < i else lift(s) if j == i else union(s, lift(s)) for j, s in enumerate(block_sets)]
        else:
            sets = [base, *block_sets, lift(base)]
        out.append((blocks, tuple(sets)))
    return tuple(out)


def family_differences(dim: int) -> list[str]:
    """What differs between ``_ones_families(dim)`` and the reference."""
    got, want = _ones_families(dim), reference_ones_families(dim)
    if len(got) != len(want):
        return [f"_ones_families({dim}) has {len(got)} rows, the reference {len(want)}"]
    return [f"_ones_families({dim})[{r}] is {g}, not {w}" for r, (g, w) in enumerate(zip(got, want)) if g != w]


def main() -> int:
    alphas = [MultiIndex.empty()]
    alphas += [MultiIndex.from_bits(bits) for dim in range(1, 9) for bits in product((0, 1), repeat=dim)]
    alphas.append(MultiIndex.ones(9))
    bad = []
    for alpha in alphas:
        bad += table_differences(alpha)
    for k in range(1, 9):
        bad += cover_differences(k)
    for d in range(10):
        bad += family_differences(d)
    for line in bad:
        print(line)
    print(f"{len(alphas)} alphas, refine covers up to order 9, families up to order 9, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
