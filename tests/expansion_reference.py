"""The expansion pipeline that ``symbolic._build_expansion`` replaced, and
the sort key as it was computed before nodes carried it, kept as references,
and a sweep that compares them with the library.

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
checks that table against an enumeration of its own, and the families
against the recursion they replaced.

Both pipelines sort by the key each node carries, set where the node is
interned, so the sweep also checks the order itself: for every node of every
expansion, ``sort_key`` equals ``reference_sort_key``, which walks the node's
children and builds the key from theirs in a table of its own, and every
sum's terms and every difference's directions are sorted by that key.

Run the sweep (the index with no digits, every alpha of dimension 1..7,
``11111111``, and every bitstring of length 10..13 with at most three
ones; the tangent and chain expansions and the main part of each):

    PYTHONPATH=src python tests/expansion_reference.py

It prints the counts and exits 1 on any difference or key mismatch.
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
    render,
    sort_key,
    substitute_components,
)


def _children(n: Expr) -> tuple:
    if isinstance(n, App):
        return (n.arg,)
    if isinstance(n, DeltaTerm):
        return (*n.directions, n.base)
    if isinstance(n, Sum):
        return n.terms
    return ()


def _key_of(n: Expr, keys: dict) -> tuple:
    # The sort key of ``n``, given the keys of its children in ``keys``.
    if isinstance(n, PointSym):
        return (0, n.name)
    if isinstance(n, VecSym):
        return (1, n.name)
    if isinstance(n, ComponentSym):
        return (2, n.index.order, str(n.index), n.cuboid)
    if isinstance(n, App):
        return (3, n.func, keys[n.arg])
    if isinstance(n, DeltaTerm):
        return (4, len(n.directions), tuple(keys[d] for d in n.directions), n.func, keys[n.base])
    return (5, len(n.terms), tuple(keys[t] for t in n.terms))


def reference_keys(root: Expr) -> dict:
    """The sort key of every node of ``root``, children first, each built
    from its children's keys in this table; an explicit stack, so nesting
    has no limit."""
    keys: dict = {}
    stack = [root]
    while stack:
        n = stack[-1]
        if n in keys:
            stack.pop()
            continue
        pending = [c for c in _children(n) if c not in keys]
        if pending:
            stack += pending
        else:
            keys[n] = _key_of(n, keys)
            stack.pop()
    return keys


def reference_sort_key(e: Expr) -> tuple:
    return reference_keys(e)[e]


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


def key_mismatches(e: Expr) -> list[str]:
    """The nodes of ``e`` whose stored key is not the reference key, and the
    sums and differences whose operands are not sorted by it."""
    keys = reference_keys(e)
    out = []
    for n, key in keys.items():
        if sort_key(n) != key:
            out.append(f"sort_key differs from the reference at {render(n)[:80]!r}")
        operands = n.terms if isinstance(n, Sum) else n.directions if isinstance(n, DeltaTerm) else ()
        ranks = [keys[o] for o in operands]
        if ranks != sorted(ranks):
            out.append(f"operands not in reference key order at {render(n)[:80]!r}")
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
    bad, mismatched = [], []
    for alpha in alphas:
        bad += differences(alpha)
        for build in (expand_tangent, expand_chain, main_part):
            mismatched += key_mismatches(build(alpha))
    for line in bad + mismatched:
        print(line)
    print(
        f"{len(alphas)} alphas, {3 * len(alphas)} expansions, {len(bad)} differences, "
        f"{len(mismatched)} key mismatches"
    )
    return 1 if bad or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
