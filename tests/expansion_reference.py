"""The expansion pipeline that ``symbolic._build_expansion`` replaced, kept
as a reference, and a sweep that compares the two.

The reference builds one difference term per partition over plain sums of
the family's components, calls ``canonicalize``, substitutes the inner
differences for the components with ``substitute_components`` (their
vectors in support order), and calls ``canonicalize`` again.  The library
builds each node once, already in canonical order.  Nodes are interned, so
the two agree exactly when they return the same object; both must, and
the library's result must be its own canonical form.

The reference reads the families through ``build_asets`` and the
partitions through ``enumerate_partitions``; the library reads the cached
mask families of ``asets._ones_families`` and places their leaves itself,
so the two share only that cache and the table of partition rows it grows
along, ``combinatorics._partition_rows``.  ``tests/partition_reference.py``
checks that table against an enumeration of its own.

Run the sweep (the index with no digits, every alpha of dimension 1..7,
``11111111``, and every bitstring of length 10..13 with at most three
ones; the tangent and chain expansions and the main part of each):

    PYTHONPATH=src python tests/expansion_reference.py

It prints the counts and exits 1 on any difference.
"""

from __future__ import annotations

import sys
from itertools import combinations, product

from deltachain.asets import build_asets
from deltachain.combinatorics import MultiIndex, enumerate_partitions
from deltachain.symbolic import (
    App,
    ComponentSym,
    DeltaTerm,
    Expr,
    PointSym,
    Sum,
    VecSym,
    canonicalize,
    expand_chain,
    expand_tangent,
    main_part,
    substitute_components,
)


def _set_sum(indices, cuboid: str) -> Expr:
    parts = tuple(ComponentSym(cuboid, m) for m in indices)
    return parts[0] if len(parts) == 1 else Sum(parts)


def expand_tangent_reference(alpha: MultiIndex, func: str = "f", cuboid: str = "u") -> Expr:
    terms = []
    for partition, fam in build_asets(alpha).items():
        base = _set_sum(fam.base_set, cuboid)
        dirs = tuple(_set_sum(fam.sets[b], cuboid) for b in partition.blocks)
        terms.append(DeltaTerm(dirs, func, base))
    return canonicalize(Sum(tuple(terms)))


def inner_difference_reference(gamma: MultiIndex, inner: str, point: str, vec: str) -> Expr:
    if gamma.order == 0:
        return App(inner, PointSym(point))
    dirs = tuple(VecSym(f"{vec}_{i + 1}") for i in gamma.support)
    return DeltaTerm(dirs, inner, PointSym(point))


def expand_chain_reference(
    alpha: MultiIndex, outer: str = "f", inner: str = "g", point: str = "x", vec: str = "v"
) -> Expr:
    tangent = expand_tangent_reference(alpha, outer, "u")
    return canonicalize(
        substitute_components(tangent, lambda c: inner_difference_reference(c.index, inner, point, vec))
    )


def main_part_reference(
    alpha: MultiIndex, outer: str = "f", inner: str = "g", point: str = "x", vec: str = "v"
) -> Expr:
    terms = []
    for p in enumerate_partitions(alpha):
        dirs = tuple(inner_difference_reference(b, inner, point, vec) for b in p.blocks)
        terms.append(DeltaTerm(dirs, outer, App(inner, PointSym(point))))
    return canonicalize(Sum(tuple(terms)))


def differences(alpha: MultiIndex) -> list[str]:
    """What differs between the library and the reference at ``alpha``."""
    out = []
    for name, got, want in (
        ("expand_tangent", expand_tangent(alpha), expand_tangent_reference(alpha)),
        ("expand_chain", expand_chain(alpha), expand_chain_reference(alpha)),
        ("main_part", main_part(alpha), main_part_reference(alpha)),
    ):
        if got is not want:
            out.append(f"{name}({alpha}) is not the reference's node")
        if canonicalize(got) is not got:
            out.append(f"{name}({alpha}) is not canonical")
    return out


def sweep_alphas() -> list[MultiIndex]:
    alphas = [MultiIndex.empty()]
    alphas += [MultiIndex.from_bits(bits) for dim in range(1, 8) for bits in product((0, 1), repeat=dim)]
    alphas.append(MultiIndex.ones(8))
    for dim in range(10, 14):
        for ones in range(4):
            for support in combinations(range(dim), ones):
                alphas.append(MultiIndex(dim, sum(1 << i for i in support)))
    return alphas


def main() -> int:
    alphas = sweep_alphas()
    bad = []
    for alpha in alphas:
        bad += differences(alpha)
    for line in bad:
        print(line)
    print(f"{len(alphas)} alphas, {3 * len(alphas)} expansions, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
