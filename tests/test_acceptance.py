"""Acceptance gate: one test per shipped claim, each with its runtime budget.

Every test prints a single summary line so a verbose run reads as a
checklist.  Criterion 5 is split: the structural claims that hold are
asserted outright, and the two printed order-bound conditions — which the
recursive construction provably violates from order four on — are carried
as a strict expected failure so the defect stays visible and any change
that repairs it is flagged.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import reference_formulas as ref
from deltachain import cli
from deltachain.asets import _ones_families, build_asets, validate
from deltachain.combinatorics import (
    MultiIndex,
    _partition_rows,
    bell_number,
    enumerate_partitions,
)
from deltachain.numeric import (
    identity_suite,
    reports_to_json,
    run_suite,
    verify_chain_expansion,
    verify_scaling,
    verify_smooth_chain,
    verify_tangent_expansion,
)
from deltachain.polynomials import (
    Poly,
    iterated_tangent_lift,
    random_polynomial_map,
)
from deltachain.symbolic import (
    Sum,
    canonicalize,
    expand_chain,
    expand_tangent,
    render,
)

SEED = 1729

mi = MultiIndex.from_string


def announce(number: str, name: str, elapsed: float, note: str = "") -> None:
    suffix = f" — {note}" if note else ""
    print(f"criterion {number} [{name}]: PASS ({elapsed:.2f} s){suffix}")


def clear_formula_caches() -> None:
    expand_tangent.cache_clear()
    expand_chain.cache_clear()
    enumerate_partitions.cache_clear()
    _ones_families.cache_clear()
    _partition_rows.cache_clear()


# -- 1. tangent-side formulas ---------------------------------------------------

def test_criterion_1_tangent_formulas():
    clear_formula_caches()
    t0 = time.perf_counter()
    two = expand_tangent(mi("11"))
    three = expand_tangent(mi("111"))
    elapsed = time.perf_counter() - t0

    assert two == canonicalize(ref.TANGENT_11)
    assert len(two.terms) == 2
    assert three == canonicalize(ref.TANGENT_111)
    assert len(three.terms) == 5
    # base points term by term, exactly as transcribed
    for got, want in zip(three.terms, canonicalize(ref.TANGENT_111).terms):
        assert got.base == want.base
    assert elapsed < 1.0
    announce("1", "tangent formulas 11 and 111", elapsed)


# -- 2. composite-side formulas ----------------------------------------------------

def test_criterion_2_chain_formulas():
    clear_formula_caches()
    t0 = time.perf_counter()
    two = expand_chain(mi("11"))
    three = expand_chain(mi("111"))
    elapsed = time.perf_counter() - t0

    assert two == canonicalize(ref.CHAIN_11)
    assert three == canonicalize(ref.CHAIN_111)
    # the full base-point sum of the third-order head term
    head = three.terms[0]
    assert head.base == canonicalize(
        ref.gx_plus(
            ref.dg(1), ref.dg(2), ref.dg(3),
            ref.dg(1, 2), ref.dg(1, 3), ref.dg(2, 3),
        )
    )
    assert elapsed < 1.0
    announce("2", "chain formulas 11 and 111", elapsed)


# -- 3. exact oracle for the composite expansion --------------------------------------

def test_criterion_3_chain_oracle():
    t0 = time.perf_counter()
    reports = verify_chain_expansion(seed=SEED, trials=50, kmax=5)
    elapsed = time.perf_counter() - t0

    assert len(reports) == 5
    for r in reports:
        assert r.exact
        assert r.trials == 50
        assert not r.failures, r.to_obj()
    assert elapsed < 30.0
    announce("3", "composite expansion vs direct differences, k <= 5", elapsed)


# -- 4. exact oracle for the tangent expansion -----------------------------------------

def test_criterion_4_tangent_oracle():
    t0 = time.perf_counter()
    reports = verify_tangent_expansion(seed=SEED, trials=50, kmax=5)
    elapsed = time.perf_counter() - t0

    for r in reports:
        assert r.exact and r.trials == 50 and not r.failures, r.to_obj()
    assert elapsed < 30.0
    announce("4", "tangent expansion vs cuboid computation, k <= 5", elapsed)


# -- 5. family validation up to order eight ----------------------------------------------

def sweep_families(kmax: int = 8):
    for k in range(1, kmax + 1):
        for mask in range(1 << k):
            alpha = MultiIndex(k, mask)
            yield alpha, build_asets(alpha)


def test_criterion_5_family_validation():
    t0 = time.perf_counter()
    families = 0
    for alpha, fams in sweep_families():
        assert len(fams) == bell_number(alpha.order)
        assert list(fams) == list(enumerate_partitions(alpha))
        zero = MultiIndex.zero(alpha.dim)
        for part, fam in fams.items():
            families += 1
            by_name = {c.name: c for c in validate(fam).conditions}
            assert by_name["disjoint"].ok, (str(alpha), part)
            assert by_name["anchored"].ok, (str(alpha), part)
            assert by_name["order-increase"].ok, (str(alpha), part)
            # strict betweenness holds even where the order bounds fail
            for g in fam.base_set:
                assert g == zero or (zero < g < alpha)
            for b in part.blocks:
                for g in fam.sets[b]:
                    assert g == b or (b < g < alpha)
    elapsed = time.perf_counter() - t0

    assert families == sum(
        bell_number(bin(m).count("1")) for k in range(1, 9) for m in range(1 << k)
    )
    assert elapsed < 60.0
    announce(
        "5",
        "family validation, every multi-index up to dimension 8",
        elapsed,
        f"{families} families; counts match Bell numbers",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the two order-bound conditions (base extras strictly below the "
        "largest block order, block extras at most it) are violated by the "
        "recursive construction from order 4 on — first at partition "
        "{1001, 0110} of 1111 — while every other structural claim and "
        "every exact numeric oracle passes; see notes in the validation "
        "tests and the project README"
    ),
)
def test_criterion_5_printed_order_bounds():
    for alpha, fams in sweep_families():
        for part, fam in fams.items():
            by_name = {c.name: c for c in validate(fam).conditions}
            assert by_name["base-extras"].ok, (
                f"alpha {alpha}, partition {[str(b) for b in part.blocks]}: "
                f"base extras {by_name['base-extras'].offenders}"
            )
            assert by_name["block-extras"].ok, (
                f"alpha {alpha}, partition {[str(b) for b in part.blocks]}: "
                f"block extras {by_name['block-extras'].offenders}"
            )


# -- 6. identity suite --------------------------------------------------------------------

def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    reports = identity_suite(seed=SEED, trials=1000)
    elapsed = time.perf_counter() - t0

    assert len(reports) == 7
    for r in reports:
        assert r.exact and r.trials == 1000
        assert not r.failures, r.to_obj()
    assert elapsed < 60.0
    announce("6", "seven exact identities, 1000 trials each", elapsed)


# -- 7. remainder order -------------------------------------------------------------------

def test_criterion_7_remainder_scaling():
    t0 = time.perf_counter()
    notes = []
    for bits in ("11", "111"):
        alpha = mi(bits)
        report = verify_scaling(seed=SEED, alpha=alpha, trials=3)
        assert not report.failures, report.to_obj()
        notes.append(f"{bits}: {report.detail}")
    elapsed = time.perf_counter() - t0

    assert elapsed < 10.0
    announce("7", "remainder shrinks at the next order", elapsed, "; ".join(notes))


# -- 8. derivative-level side ----------------------------------------------------------------

def lifted_derivative_term(f, partition, nvars: int):
    """One summand of the derivative expansion: the iterated derivative of f
    in the base variables, along the fiber variables of each block."""
    n = f.domain_dim
    comps = [p.embed(nvars) for p in f.components]
    for block in partition.blocks:
        offset = n * block.mask
        comps = [
            sum(
                (
                    Poly.variable(nvars, offset + j) * p.partial(j)
                    for j in range(n)
                ),
                Poly.constant(nvars, 0),
            )
            for p in comps
        ]
    return comps


def fiber_weight(exponents, n: int) -> int:
    total = 0
    for pos, e in enumerate(exponents):
        block = pos // n
        total += e * bin(block).count("1")
    return total


def test_criterion_8_derivative_expansion():
    t0 = time.perf_counter()

    for k in (1, 2, 3):
        report = verify_smooth_chain(MultiIndex.ones(k), seed=SEED, trials=10)
        assert report.exact and not report.failures, report.to_obj()

    # structural reproduction of the small worked expansions: the top
    # component of the iterated lift decomposes into one summand per
    # partition, each homogeneous of full weight in the fiber variables
    rng = random.Random(SEED)
    n = 2
    f = random_polynomial_map(rng, n, n, degree=3)
    for k, sizes in ((2, [1, 2]), (3, [1, 2, 2, 2, 3])):
        nvars = n * (1 << k)
        lift = iterated_tangent_lift(f, k)
        top = lift.components[-n:]
        table = list(enumerate_partitions(MultiIndex.ones(k)))
        assert sorted(p.size for p in table) == sorted(sizes)
        if k == 3:
            cross = [p for p in table if sorted(b.order for b in p.blocks) == [1, 2]]
            assert len(cross) == 3
        summands = [lifted_derivative_term(f, p, nvars) for p in table]
        for coord in range(n):
            total = sum(
                (s[coord] for s in summands), Poly.constant(nvars, 0)
            )
            assert total == top[coord]
        for p, s in zip(table, summands):
            for coord in range(n):
                for exps, _ in s[coord].terms:
                    assert fiber_weight(exps, n) == k, (p, exps)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(
        "8",
        "derivative expansion: 2 summands at k=2, 5 at k=3, homogeneous",
        elapsed,
    )


# -- 9. determinism -----------------------------------------------------------------------------

def test_criterion_9_determinism(capsys):
    t0 = time.perf_counter()

    first = reports_to_json(run_suite("identities", seed=SEED, trials=2))
    second = reports_to_json(run_suite("identities", seed=SEED, trials=2))
    assert first == second

    for bits in ("11", "111", "1011"):
        alpha = mi(bits)
        for fmt in ("text", "latex", "json"):
            assert render(expand_chain(alpha), fmt) == render(expand_chain(alpha), fmt)
        expand_chain.cache_clear()
        expand_tangent.cache_clear()
        assert render(expand_chain(alpha), "json") == render(expand_chain(alpha), "json")

    args = ["verify", "--suite", "scaling", "--alpha", "11", "--seed", "7"]
    assert cli.main(list(args)) == 0
    out1 = capsys.readouterr().out
    assert cli.main(list(args)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert json.loads(out1)["passed"] is True

    elapsed = time.perf_counter() - t0
    announce("9", "byte-identical reports and formulas under fixed seeds", elapsed)
