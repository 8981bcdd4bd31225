"""Reference verdicts for the two remainder checks, computed the long way,
and a sweep that compares them with the library's verdicts.

Both checks ask whether the remainder left after the main part is
O(ε^(|α|+1)).  The library's main-term check answers in series truncated
mod ε^(|α|+1); its ``scaling`` check answers from one series of order
deg f · deg g + 1, which also gives its grid norms.  The references here
answer in untruncated ``Poly``s in ε, give the grid norms one exact
rational evaluation per grid point, and, for ``scaling``, also give the
float slope verdict that the exact one replaced.

Run the full sweep (criterion 6's 1000 main-term trials, then scaling
seeds 0..N-1 and the seeds 280623061 and 124551739 at alphas 11 and 111,
three trials each, grid norms included):

    PYTHONPATH=src python tests/remainder_verdicts.py [N]

It prints the counts and exits 1 on any trial where a library verdict
differs from the untruncated one, or its grid norms from the per-point ones.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from fractions import Fraction

from deltachain.combinatorics import MultiIndex, enumerate_partitions
from deltachain.cuboid import Cuboid, discrete_tangent, vector_add, vector_sub
from deltachain.numeric import (
    EPS_EXPONENTS,
    _check_main_term_remainder_order,
    _main_term_split,
    derive_seed,
    evaluate_delta,
    random_rational_vector,
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
            if c.terms:
                vals.append(min(sum(e) for e, _ in c.terms))
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


def grid_norms_reference(f, g, x, ws, alpha: MultiIndex, grid) -> tuple:
    """The remainder norms max_i |R_i(2^-j)|, one exact rational evaluation
    of the remainder per grid point j."""
    norms = []
    for j in sorted(grid):
        eps = Fraction(1, 2**j)
        r = vector_sub(*_main_term_split(f, g, x, [tuple(eps * c for c in w) for w in ws], alpha))
        norms.append(max(abs(c) for c in r))
    return tuple(norms)


def slope_verdict_fails(norms: tuple, alpha: MultiIndex) -> bool:
    """The float verdict ``scaling`` used before, on the grid's
    norms: no slope, or a slope below |alpha| + 1 - 0.2 (fitted on the
    finest three nonzero norms), failed; a remainder zero at every scale
    passed."""
    grid = sorted(EPS_EXPONENTS)
    pts = [(math.log(2.0**-j), math.log(float(n))) for j, n in zip(grid, norms) if n]
    if not pts:
        return False
    if len(pts) < 2:
        return True
    return statistics.linear_regression(*zip(*pts[-3:])).slope < alpha.order + 1 - 0.2


def scaling_side_by_side(seed: int, alpha: MultiIndex, t: int) -> dict:
    s = derive_seed(seed, "scaling", str(alpha), t)
    f, g, x, ws = scaling_trial(s, alpha)
    full = full_remainder_valuation(f, g, x, ws, alpha)
    result = scaling_slope(f, g, x, ws, alpha)
    norms = grid_norms_reference(f, g, x, ws, alpha, EPS_EXPONENTS)
    return {
        "seed": seed,
        "alpha": str(alpha),
        "trial": t,
        "valuation": result.valuation,
        "full": full,
        "expected": full if full is not None and full < alpha.order + 1 else None,
        "norms_match": result.norms == norms,
        "slope_fails": slope_verdict_fails(norms, alpha),
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
    wrong = [r for r in rows if r["valuation"] != r["expected"]]
    norms_wrong = [r for r in rows if not r["norms_match"]]
    exact_fails = [r for r in rows if r["valuation"] is not None]
    slope_only = [r for r in rows if r["slope_fails"] and r["valuation"] is None]
    print(
        f"scaling: {len(rows)} trials, {len(exact_fails)} failing by valuation, "
        f"{len(slope_only)} failing by slope only, {len(wrong)} valuations differ, "
        f"{len(norms_wrong)} norm tuples differ"
    )
    for r in slope_only:
        print(f"  slope-only failure: {r}")
    return 1 if differing or wrong or norms_wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
