"""Run every workload once and print every end-to-end metric with its unit.

    python3 perfbench/report.py [--trace] [--label NAME]

For each workload it runs ``run.py`` untraced, with seed 1 and the
``run_seconds`` of ``BENCHMARK.json``, and prints throughput, median
and tail latency (with the percentile used), peak RSS, failure rate and
set-up time, each with its sample count.  ``--trace`` adds a traced run per
workload and prints each layer's share of the traced self time.
``--label NAME`` also writes the numbers with the run metadata to
``perfbench/results/BENCH_NAME.json``.  Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import tracing
import workloads

SEED = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("meta "):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {"seed": SEED, "seconds": seconds, "workloads": {}}
    correct = True
    print(f"{'workload':<11} {'metric':<16} {'value':>12} {'unit':<6} samples")
    for workload in workloads.WORKLOADS:
        result, meta = run_once(workload, SEED, seconds, 0)
        correct &= result["correct"]
        rows = dict(result["metrics"])
        rows["failure_rate"] = {"value": meta["failure_rate"], "unit": "ratio"}
        for name, m in rows.items():
            note = f"  (p{meta['tail_percentile']})" if name == "latency_tail_s" else ""
            print(f"{workload:<11} {name:<16} {m['value']:>12.6g} {m['unit']:<6} {meta['samples'][name]}{note}")
        for failure in meta["failures"]:
            print(f"{workload:<11} FAILED {failure}")
        entry = {"end_to_end": result, "meta": meta}
        if args.trace:
            traced, tmeta = run_once(workload, SEED, seconds, 1)
            correct &= traced["correct"]
            shares = "  ".join(f"{k} {tmeta['self_share'][k]:.1%}" for k in tracing.LAYERS)
            print(f"{workload:<11} self-time share: {shares}")
            print(f"{workload:<11} trace overhead {traced['metrics']['trace.overhead_ratio']['value']:.2f}x, "
                  f"digests equal: {tmeta['digests_equal']}")
            entry.update({"per_layer": traced, "trace_meta": tmeta})
        record["workloads"][workload] = entry
        record.update({k: meta[k] for k in ("python", "commit", "nproc")})
    if args.label:
        path = os.path.join(run.HERE, "results", f"BENCH_{args.label}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, run.ROOT)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
