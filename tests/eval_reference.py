"""The tuple evaluator that ``numeric.eval_expr`` replaced, kept as a
reference, and a sweep that compares the two.

``eval_expr_reference`` holds every node's value as a tuple of ``int`` and
``Fraction`` entries (or of whatever the bound maps return), adds vectors
with ``cuboid.vector_sum`` and builds each difference from
``cuboid.corners``, one map call per corner; both add pairwise with plain +
and -, so the reference shares no integer arithmetic with the library's
evaluator, which packs each exact vector into one integer and reads a
``RandomRationalMap``'s memo by integer keys.  Both must give equal values
with equal coordinate types.

Run the sweep (seeds 0..N-1; chain and tangent expansions for k = 1..7, with
pseudorandom maps and with a map whose coordinate types follow its argument;
leaves mix ``int`` and ``Fraction`` entries):

    PYTHONPATH=src python tests/eval_reference.py [N] [--wide]

With ``--wide`` the leaves are up to 10^e in size, e drawn from 0..30 per
seed, with denominators up to 10^(e/2), so the packed evaluations take
fields of 64 bits and up.  The sweep prints how many evaluations ran at each
width, and on tuples (the type-following map).

It prints the counts and exits 1 on any difference, in value or in type,
and, with ``--wide``, when any of the widths 64, 128, ..., 4096 ran no
evaluation, so the shared field reader is compared at every field width.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from deltachain.combinatorics import MultiIndex
from deltachain.cuboid import Cuboid, Value, corners, vector_sum
from deltachain.numeric import EvaluationError, RandomRationalMap, _eval_rows, _NodeTable, derive_seed
from deltachain.symbolic import App, ComponentSym, Expr, PointSym, Sum, VecSym, _postorder, expand_chain, expand_tangent


WIDE_WIDTHS = tuple(64 << i for i in range(7))  # the field widths a --wide sweep must reach


def evaluate_delta_reference(F: Callable[[Value], Value], base: Value, dirs: Sequence[Value]) -> Value:
    """The alternating sum of F over all corners base + a subset of ``dirs``."""
    values = [tuple(F(c)) for c in corners(tuple(base), [tuple(d) for d in dirs])]
    k = len(dirs)
    return vector_sum(values, [-1 if (k - m.bit_count()) % 2 else 1 for m in range(1 << k)])


def eval_expr_reference(e: Expr, bindings: Mapping[str, Any]) -> Value:
    """``eval_expr`` on tuples: each distinct node once, children first."""
    try:
        nodes = _postorder(e)
    except TypeError as exc:
        raise EvaluationError(str(exc)) from None

    def bound(name: str, ok: Callable[[Any], bool], what: str) -> Any:
        try:
            value = bindings[name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {name!r}") from None
        if not ok(value):
            raise EvaluationError(f"symbol {name!r} must be bound to {what}")
        return value

    values: dict[Expr, Value] = {}
    try:
        for n in nodes:
            if isinstance(n, (PointSym, VecSym)):
                value = tuple(bound(n.name, lambda v: isinstance(v, (tuple, list)), "a vector"))
            elif isinstance(n, ComponentSym):
                value = bound(n.cuboid, lambda c: isinstance(c, Cuboid), "a cuboid").component(n.index)
            elif isinstance(n, App):
                value = tuple(bound(n.func, callable, "a map")(values[n.arg]))
            elif isinstance(n, Sum):
                if not n.terms:
                    raise EvaluationError("cannot evaluate an empty sum")
                value = vector_sum([values[t] for t in n.terms])
            else:  # a difference term
                F = bound(n.func, callable, "a map")
                value = evaluate_delta_reference(F, values[n.base], [values[d] for d in n.directions])
            values[n] = value
    except ValueError as exc:
        raise EvaluationError(str(exc)) from None
    return values[e]


def type_following_map(p: Value) -> Value:
    """An exact map whose coordinate j is a ``Fraction`` exactly when p[j] is one."""
    return (p[0] * p[0] - p[0], 3 * p[1])


def mixed_vector(rng: random.Random, dim: int) -> Value:
    """Entries that are ``int``s, integral ``Fraction``s or proper fractions."""
    return tuple(
        rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-9, 9), rng.randint(2, 4))))
        for _ in range(dim)
    )


def wide_vector(rng: random.Random, dim: int, size: int) -> Value:
    """``mixed_vector``'s kinds of entry, up to ``size`` in size, with
    denominators up to its square root."""
    out = []
    for _ in range(dim):
        n, d = rng.randint(-size, size), rng.randint(2, max(2, math.isqrt(size)))
        out.append(rng.choice((n, Fraction(n), Fraction(n, d))))
    return tuple(out)


def sweep_bindings(seed: int, k: int, pseudorandom: bool, wide: bool = False) -> tuple[dict, dict]:
    """Bindings for the chain and the tangent expansion at order k; wide
    leaves are up to 10^e in size, e drawn from 0..30."""
    labels = ("eval-reference", k, pseudorandom) + (("wide",) if wide else ())
    rng = random.Random(derive_seed(seed, *labels))
    vector = functools.partial(wide_vector, size=10 ** rng.randint(0, 30)) if wide else mixed_vector
    if pseudorandom:
        f, g = (RandomRationalMap(derive_seed(seed, name, k), 2, 2) for name in ("f", "g"))
    else:
        f = g = type_following_map
    chain = {"f": f, "g": g, "x": vector(rng, 2)}
    chain.update({f"v_{i + 1}": vector(rng, 2) for i in range(k)})
    tangent = {"f": f, "u": Cuboid(k, tuple(vector(rng, 2) for _ in range(1 << k)))}
    return chain, tangent


def same(got: Value, want: Value) -> bool:
    """Equal values with equal coordinate types."""
    return got == want and [type(c) for c in got] == [type(c) for c in want]


def main(argv: list[str]) -> int:
    wide = "--wide" in argv
    argv = [a for a in argv if a != "--wide"]
    n_seeds = int(argv[0]) if argv else 20
    cases = differing = 0
    widths: Counter = Counter()
    for pseudorandom in (True, False):
        for k in range(1, 8):
            alpha = MultiIndex.ones(k)
            exprs = (expand_chain(alpha), expand_tangent(alpha))
            for seed in range(n_seeds):
                for name, expr, bindings in zip(("chain", "tangent"), exprs, sweep_bindings(seed, k, pseudorandom, wide)):
                    cases += 1
                    rows = _eval_rows(_NodeTable(expr), bindings)  # eval_expr's value is rows[-1]
                    widths[rows.width if rows.leaves is not None else "tuples"] += 1
                    if not same(rows[-1], eval_expr_reference(expr, bindings)):
                        differing += 1
                        print(f"  differs: {name}, seed {seed}, k {k}, pseudorandom maps {pseudorandom}")
    print(f"evaluator: {cases} evaluations, {differing} differ from the reference")
    print("  evaluations by packed width: " + ", ".join(f"{w}: {c}" for w, c in sorted(widths.items(), key=str)))
    missing = [w for w in WIDE_WIDTHS if not widths[w]] if wide else []
    if missing:
        print("  no evaluation at width " + ", ".join(map(str, missing)))
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
