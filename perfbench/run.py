"""Run one benchmark workload against the deltachain checkout this file sits in.

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client: the next request starts
only when the previous one has been checked.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` replays the same requests with spans on and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable summary and a ``meta`` line with the run's
metadata and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import harness
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "reference_digests.json")
OUT_DIR = os.path.join(HERE, "out")

# Set-up is measured this many times per run and reported as the median: the
# first sample may also compile the package's bytecode.
SETUP_SAMPLES = 21


def load_references() -> dict[str, str]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds to import the package and build the first round's inputs.

    Each sample runs in a child forked from this process before it has
    imported ``deltachain``, so every sample imports the package afresh.
    The benchmark's own modules are already loaded and are not timed.
    """
    if "deltachain" in sys.modules:
        raise RuntimeError("deltachain is imported before set-up is measured")

    def setup() -> dict:
        start = time.perf_counter()
        harness.Target(ROOT)
        workloads.make_round(workload, seed, 0)
        return {"setup_s": time.perf_counter() - start}

    samples = []
    for _ in range(SETUP_SAMPLES):
        _, result = harness.run_forked(setup)
        if "setup_s" not in result:
            raise RuntimeError(f"set-up failed: {result.get('error')}")
        samples.append(result["setup_s"])
    return samples


def tail_latency(latencies: list[float]) -> tuple[int, float]:
    """(p, latency) for the highest integer percentile p with at least ten
    requests beyond it, by nearest rank; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = math.floor(100 * (n - 10) / n)
    return p, ordered[max(math.ceil(p * n / 100) - 1, 0)]


def commit_id() -> str | None:
    """The checkout's commit when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def rounds_of(workload: str, seed: int, seconds: float):
    count = workloads.round_count(workload, seconds)
    return [workloads.make_round(workload, seed, i) for i in range(count)]


def failures(outcomes) -> list[str]:
    return [f"{' '.join(o.request.argv)}: {o.error}" for o in outcomes if not o.ok]


def summarize(outcomes, wall: float, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end result line and metadata of one untraced run.

    A failed request stays in every count: it is attempted, it is failed,
    it lowers the throughput and its latency is part of the percentiles.
    """
    latencies = [o.latency_s for o in outcomes]
    percentile, tail = tail_latency(latencies)
    ok = sum(o.ok for o in outcomes)
    metrics = {
        "throughput_rps": (ok / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    meta = {
        "wall_s": wall,
        "tail_percentile": percentile,
        "failure_rate": (len(outcomes) - ok) / len(outcomes),
        "samples": {
            "throughput_rps": 1,
            "latency_p50_s": len(latencies),
            "latency_tail_s": len(latencies),
            "peak_rss_mb": len(outcomes),
            "failure_rate": len(outcomes),
            "setup_s": len(setup),
        },
        "failures": failures(outcomes)[:5],
    }
    result = {
        "correct": ok == len(outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta


def end_to_end(args) -> tuple[dict, dict]:
    setup = measure_setup(args.workload, args.seed)
    target = harness.Target(ROOT)
    references = load_references()
    outcomes, wall, done = harness.run_rounds(
        target, rounds_of(args.workload, args.seed, args.seconds), references,
        hard_stop=2 * args.seconds + 10,
    )
    result, meta = summarize(outcomes, wall, setup)
    meta["rounds"] = done
    return result, meta


def write_spans(path: str, outcomes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rid, outcome in enumerate(outcomes):
            for parent, name, calls, total, own in outcome.layer["groups"]:
                fh.write(json.dumps({
                    "request": rid, "argv": list(outcome.request.argv), "parent": parent or None,
                    "name": name, "calls": calls, "total_s": total, "self_s": own,
                }) + "\n")


def traced(args) -> tuple[dict, dict]:
    target = harness.Target(ROOT)
    references = load_references()
    # A quarter of the time untraced, then the same whole rounds traced.
    rounds = rounds_of(args.workload, args.seed, args.seconds / 4)
    plain, plain_wall, done = harness.run_rounds(target, rounds, references, hard_stop=args.seconds + 10)
    tracer = tracing.install(target)
    spanned, spanned_wall, traced_done = harness.run_rounds(
        target, rounds[:done], references, tracer, hard_stop=2 * args.seconds + 10,
    )
    # Per-round values cover only the rounds both passes finished.
    whole = sum(len(r) for r in rounds[:traced_done])
    cut = [] if 0 < traced_done == done else [f"traced pass finished {traced_done} of {done} rounds"]
    same = [o.sha256 for o in plain[:whole]] == [o.sha256 for o in spanned[:whole]]
    outcomes = plain + spanned
    ok = sum(o.ok for o in outcomes)
    layers = [o.layer for o in spanned[:whole] if o.layer is not None]
    metrics = tracing.layer_metrics(layers, max(traced_done, 1), spanned_wall / plain_wall)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    write_spans(spans, [o for o in spanned if o.layer is not None])
    _, layer_self, _ = tracing.merge(layers)
    busy = sum(layer_self.values())
    meta = {
        "rounds": traced_done,
        "samples": {"requests": whole, "rounds": traced_done},
        "untraced_wall_s": plain_wall,
        "traced_wall_s": spanned_wall,
        "digests_equal": same,
        "self_share": {k: layer_self[k] / busy if busy else 0.0 for k in tracing.LAYERS},
        # One client and one process: no layer ever waits for another.
        "wait_s": 0.0,
        "spans": os.path.relpath(spans, ROOT),
        "failures": failures(outcomes)[:5] + cut + ([] if same else ["traced digests differ from untraced digests"]),
    }
    result = {
        "correct": ok == len(outcomes) and same and not cut,
        "attempted": len(outcomes),
        "failed": len(outcomes) - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, meta


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, meta = (traced if args.trace else end_to_end)(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
    })
    for name, m in result["metrics"].items():
        print(f"{args.workload:<10} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
