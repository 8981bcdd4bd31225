"""An enumeration of set partitions that shares no code with the library's,
kept as a reference, and a sweep that compares the two.

The library grows one table of block masks with its refinement step and
places it on each alpha's support; ``enumerate_partitions`` and ``refine``
both rest on that step.  The reference inserts each support position into
every block of each partition of the rest, or opens a new block with it,
and sorts the result by (size, block digit strings) itself.

Run the sweep (``enumerate_partitions`` of every alpha of dimension 0..8
and of ``111111111``, and ``refine``'s children over every partition of
``1^k`` against the reference partitions of ``1^(k+1)``, for k up to 8):

    PYTHONPATH=src python tests/partition_reference.py

It prints the counts and exits 1 on any difference.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import product
from typing import Iterator

from deltachain.combinatorics import MultiIndex, Partition, enumerate_partitions, refine


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


def main() -> int:
    alphas = [MultiIndex.empty()]
    alphas += [MultiIndex.from_bits(bits) for dim in range(1, 9) for bits in product((0, 1), repeat=dim)]
    alphas.append(MultiIndex.ones(9))
    bad = []
    for alpha in alphas:
        bad += table_differences(alpha)
    for k in range(1, 9):
        bad += cover_differences(k)
    for line in bad:
        print(line)
    print(f"{len(alphas)} alphas, refine covers up to order 9, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
