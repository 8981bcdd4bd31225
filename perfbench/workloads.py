"""Workload catalogs and the seeded request plans built from them.

A workload is a sequence of *rounds*.  Every round of a workload holds the
same strata (command, order, dimension, format or suite), so its cost is
nearly the same whatever the seed; the seed picks the bitstring inside each
formula stratum (where the zero digits sit), the root seed of each
verification request, and the order in which the round's requests run.

A run measures a whole number of rounds: the number nearest to ``--seconds``
at the round length measured when the benchmark was defined.  The count
depends on ``--seconds`` alone, so every run of a workload, on any commit,
measures the same number of requests of the same kinds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("formulas", "oracles", "identities")

# (command, order, dimension, format).  A dimension above the order puts
# zero digits into the bitstring, which sends the request through the
# embedding path of the family builder.  Chain order 7 is rendered as LaTeX
# only: its text form would add a 3 s parse to every round.  Nine strata cost
# less than chain order 5 json and nine cost more, so the median request of
# a run (3 rounds) is the middle of the twelve order-5 json requests, not
# the edge of a small group: one request's luck barely moves the median.
FORMULA_STRATA = (
    ("chain", 4, 4, "text"),
    ("chain", 4, 6, "json"),
    ("chain", 4, 5, "latex"),
    ("chain", 5, 5, "json"),
    ("chain", 5, 6, "json"),
    ("chain", 5, 7, "json"),
    ("chain", 5, 8, "json"),
    ("chain", 5, 7, "text"),
    ("chain", 5, 6, "latex"),
    ("chain", 6, 6, "text"),
    ("chain", 6, 7, "json"),
    ("chain", 6, 8, "latex"),
    ("chain", 7, 7, "latex"),
    ("expand", 4, 6, "text"),
    ("expand", 5, 5, "latex"),
    ("expand", 5, 7, "json"),
    ("expand", 6, 8, "text"),
    ("expand", 6, 6, "latex"),
    ("expand", 7, 8, "json"),
    ("asets", 5, 5, None),
    ("asets", 6, 7, None),
    ("asets", 7, 8, None),
)

# (suite, kmax, trials): kmax 5 with a few trials, occasionally kmax 6.
# Apart from the one theorem-b request at kmax 6, each costs 0.3-0.5 s here.
ORACLE_STRATA = (
    ("theorem-b", 5, 2),
    ("theorem-b", 5, 3),
    ("theorem-b", 5, 3),
    ("eq9", 5, 8),
    ("eq9", 5, 12),
    ("eq9", 6, 2),
    ("theorem-b", 6, 1),
)

# (suite, trials), each about 0.5 s here, so that a run holds enough
# requests for its tail percentile to lie above p75.  The CLI's default
# kmax gives smooth-chain three reports (orders 1..3).  The scaling suite is
# left out: its slope test is not exact and fails for about one trial in
# 500 (``deltachain verify --suite scaling --seed 280623061 --trials 3``
# exits 1), so a seeded run would fail by chance.
IDENTITY_STRATA = (
    ("identities", 12),
    ("identities", 12),
    ("identities", 12),
    ("smooth-chain", 9),
    ("smooth-chain", 9),
    ("smooth-chain", 9),
)

# Seconds one round took at the commit that defined the benchmark (Python
# 3.11, 2-core Xeon VM); they fix how many rounds a run has.
NOMINAL_ROUND_S = {"formulas": 9.6, "oracles": 3.7, "identities": 3.7}

SUITE_REPORTS = {"identities": 7, "smooth-chain": 3}


@dataclass(frozen=True)
class Request:
    """One CLI call and what its output must satisfy.

    ``key`` names the catalog entry whose reference digest a formula
    request must reproduce; ``reports`` and ``trials`` are the report count
    and per-report trial count a verification request must return.
    """

    argv: tuple[str, ...]
    key: str | None = None
    alpha: str | None = None
    fmt: str | None = None
    reports: int | None = None
    trials: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def bitstrings(order: int, dim: int) -> list[str]:
    """Every bitstring of length ``dim`` with ``order`` one digits, sorted."""
    out = []
    for ones in itertools.combinations(range(dim), order):
        out.append("".join("1" if i in ones else "0" for i in range(dim)))
    return sorted(out)


def formula_request(command: str, alpha: str, fmt: str | None) -> Request:
    argv = [command, "--alpha", alpha]
    if command == "asets":
        argv.append("--validate")
    else:
        argv += ["--format", fmt]
    return Request(tuple(argv), key=" ".join(argv), alpha=alpha, fmt=fmt)


def formula_catalog() -> list[Request]:
    """Every formula request any seed can draw; each has a reference digest."""
    return [
        formula_request(command, alpha, fmt)
        for command, order, dim, fmt in FORMULA_STRATA
        for alpha in bitstrings(order, dim)
    ]


def _verify_request(suite: str, seed: int, trials: int, kmax: int | None) -> Request:
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--trials", str(trials)]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    reports = kmax if kmax is not None else SUITE_REPORTS[suite]
    return Request(tuple(argv), reports=reports, trials=trials)


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds in a run of ``seconds``: the nearest count, at least one."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def make_round(workload: str, seed: int, index: int) -> list[Request]:
    """Round ``index`` of ``workload`` under the workload seed ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "formulas":
        reqs = [
            formula_request(command, rng.choice(bitstrings(order, dim)), fmt)
            for command, order, dim, fmt in FORMULA_STRATA
        ]
    elif workload == "oracles":
        reqs = [
            _verify_request(suite, rng.randrange(1, 2**31), trials, kmax)
            for suite, kmax, trials in ORACLE_STRATA
        ]
    elif workload == "identities":
        reqs = [
            _verify_request(suite, rng.randrange(1, 2**31), trials, None)
            for suite, trials in IDENTITY_STRATA
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
