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

The library builds each expansion's terms in partition-row order
(``symbolic._row_terms``) and sorts them once, so the sweep also checks
the rows: row r of each expansion is the reference's term r, built from
family r of ``build_asets`` (for the main part, from the blocks of
partition r) and canonicalized on its own.

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
    _row_terms,
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


def _set_sum(indices) -> Expr:
    parts = tuple(ComponentSym("u", m) for m in indices)
    return parts[0] if len(parts) == 1 else Sum(parts)


def inner_difference_reference(gamma: MultiIndex) -> Expr:
    if gamma.order == 0:
        return App("g", PointSym("x"))
    dirs = tuple(VecSym(f"v_{i + 1}") for i in gamma.support)
    return DeltaTerm(dirs, "g", PointSym("x"))


def _inner(c: ComponentSym) -> Expr:
    return inner_difference_reference(c.index)


def reference_terms(alpha: MultiIndex, kind: str) -> list[Expr]:
    """The terms of the ``kind`` expansion ("tangent", "chain" or "main"),
    in row order and before any ``canonicalize``: term r is built from
    family r of ``build_asets(alpha)``, with the inner differences in place
    of the components for "chain", or for "main" from the blocks of
    partition r of ``enumerate_partitions(alpha)``."""
    if kind == "main":
        base = App("g", PointSym("x"))
        return [DeltaTerm(tuple(map(inner_difference_reference, p.blocks)), "f", base) for p in enumerate_partitions(alpha)]
    terms = [
        DeltaTerm(tuple(_set_sum(fam.sets[b]) for b in partition.blocks), "f", _set_sum(fam.base_set))
        for partition, fam in build_asets(alpha).items()
    ]
    return terms if kind == "tangent" else [substitute_components(t, _inner) for t in terms]


def reference_rows(alpha: MultiIndex, kind: str) -> list[Expr]:
    """Each of ``reference_terms(alpha, kind)`` canonicalized on its own."""
    return [canonicalize(t) for t in reference_terms(alpha, kind)]


def expand_tangent_reference(alpha: MultiIndex) -> Expr:
    return canonicalize(Sum(tuple(reference_terms(alpha, "tangent"))))


def expand_chain_reference(alpha: MultiIndex) -> Expr:
    return canonicalize(substitute_components(expand_tangent_reference(alpha), _inner))


def main_part_reference(alpha: MultiIndex) -> Expr:
    return canonicalize(Sum(tuple(reference_terms(alpha, "main"))))


def differences(alpha: MultiIndex) -> list[str]:
    """What differs between the library and the reference at ``alpha``:
    each expansion's node, and its terms in partition-row order."""
    out = []
    for name, kind, got, want in (
        ("expand_tangent", "tangent", expand_tangent(alpha), expand_tangent_reference(alpha)),
        ("expand_chain", "chain", expand_chain(alpha), expand_chain_reference(alpha)),
        ("main_part", "main", main_part(alpha), main_part_reference(alpha)),
    ):
        if got is not want:
            out.append(f"{name}({alpha}) is not the reference's node")
        if canonicalize(got) is not got:
            out.append(f"{name}({alpha}) is not canonical")
        rows, want_rows = _row_terms(alpha, kind), reference_rows(alpha, kind)
        if len(rows) != len(want_rows) or any(a is not b for a, b in zip(rows, want_rows)):
            out.append(f"the rows of {name}({alpha}) are not the reference's terms in row order")
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
