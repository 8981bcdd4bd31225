"""Reference verdicts for the two remainder checks, computed the long way,
and a sweep that compares them with the library's verdicts.

Both checks ask whether the remainder left after the main part is
O(ε^(|α|+1)).  The library answers in series truncated mod ε^(|α|+1).  The
references here answer in untruncated ``Poly``s in ε, and, for ``scaling``,
also give the float slope verdict that the exact one replaced.

Run the full sweep (criterion 6's 1000 main-term trials, then scaling
seeds 0..N-1 and the seeds 280623061 and 124551739 at alphas 11 and 111,
three trials each):

    PYTHONPATH=src python tests/remainder_verdicts.py [N]

It prints the counts and exits 1 on any trial where a library verdict
differs from the untruncated one.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from deltachain.combinatorics import MultiIndex, enumerate_partitions
from deltachain.cuboid import Cuboid, discrete_tangent, vector_add, vector_sub
from deltachain.numeric import (
    _check_main_term_remainder_order,
    _main_term_split,
    derive_seed,
    evaluate_delta,
    random_rational_vector,
    remainder_valuation,
    scaling_slope,
    scaling_trial,
)
from deltachain.polynomials import Poly, random_polynomial_map

SCALING_SEEDS_FOUND = (280623061, 124551739)


def poly_valuation(rem) -> int | None:
    """Lowest ε-degree of a vector of ``Poly``s in ε and rationals."""
    vals = []
    for c in rem:
        if isinstance(c, Poly):
            if not c.is_zero:
                vals.append(c.min_degree)
        elif c != 0:
            vals.append(0)
    return min(vals, default=None)


def main_term_reference(s: int) -> str | None:
    """``_check_main_term_remainder_order`` evaluated in untruncated Q[ε],
    with the same random draws."""
    rng = random.Random(s)
    k = 2 + s % 2
    alpha = MultiIndex.ones(k)
    space = 2
    f = random_polynomial_map(rng, space, space, degree=2 + s % 2, dense=True)
    eps = Poly.variable(1, 0)
    x = random_rational_vector(rng, space)
    base = tuple(Poly.constant(1, c) for c in x)

    def component(m: MultiIndex) -> tuple:
        if m.order == 0:
            return base
        scale = eps ** m.order
        return tuple(scale * Fraction(rng.randint(-3, 3)) for _ in range(space))

    cub = Cuboid.build(k, component)
    lhs = discrete_tangent(f, cub).component(alpha)
    acc = None
    for p in enumerate_partitions(alpha):
        term = evaluate_delta(f, base, [cub.component(b) for b in p.blocks])
        acc = term if acc is None else vector_add(acc, term)
    v = poly_valuation(vector_sub(lhs, acc))
    if v is not None and v < alpha.order + 1:
        return f"remainder valuation {v} below {alpha.order + 1}"
    return None


def full_remainder_valuation(f, g, x, ws, alpha: MultiIndex) -> int | None:
    """The remainder's ε-valuation at directions ε·w, untruncated."""
    eps = Poly.variable(1, 0)
    dirs = [tuple(eps * c for c in w) for w in ws]
    return poly_valuation(vector_sub(*_main_term_split(f, g, x, dirs, alpha)))


def slope_verdict_fails(f, g, x, ws, alpha: MultiIndex) -> bool:
    """The float verdict ``scaling`` used before: no slope, or a slope below
    |alpha| + 1 - 0.2, failed; a remainder zero at every scale passed."""
    result = scaling_slope(f, g, x, ws, alpha)
    if result.degenerate:
        return False
    return result.slope is None or result.slope < alpha.order + 1 - 0.2


def scaling_side_by_side(seed: int, alpha: MultiIndex, t: int) -> dict:
    s = derive_seed(seed, "scaling", str(alpha), t)
    f, g, x, ws = scaling_trial(s, alpha)
    full = full_remainder_valuation(f, g, x, ws, alpha)
    return {
        "seed": seed,
        "alpha": str(alpha),
        "trial": t,
        "truncated": remainder_valuation(f, g, x, ws, alpha),
        "full": full,
        "expected": full if full is not None and full < alpha.order + 1 else None,
        "slope_fails": slope_verdict_fails(f, g, x, ws, alpha),
    }


def main(argv: list[str]) -> int:
    n_seeds = int(argv[0]) if argv else 200
    differing = 0
    main_fails = 0
    for t in range(1000):
        s = derive_seed(1729, "main-term-remainder-order", t)
        new, old = _check_main_term_remainder_order(s), main_term_reference(s)
        differing += new != old
        main_fails += new is not None
    print(f"main-term: 1000 trials, {main_fails} failing, {differing} verdicts differ")

    rows = [
        scaling_side_by_side(seed, MultiIndex.from_string(a), t)
        for seed in (*range(n_seeds), *SCALING_SEEDS_FOUND)
        for a in ("11", "111")
        for t in range(3)
    ]
    wrong = [r for r in rows if r["truncated"] != r["expected"]]
    exact_fails = [r for r in rows if r["truncated"] is not None]
    slope_only = [r for r in rows if r["slope_fails"] and r["truncated"] is None]
    print(
        f"scaling: {len(rows)} trials, {len(exact_fails)} failing by valuation, "
        f"{len(slope_only)} failing by slope only, {len(wrong)} truncated valuations differ"
    )
    for r in slope_only:
        print(f"  slope-only failure: {r}")
    return 1 if differing or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
