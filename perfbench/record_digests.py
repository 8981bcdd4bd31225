"""Record the reference digest of every formula catalog entry.

    python3 perfbench/record_digests.py

Each entry runs in a forked child, exactly as a benchmark request does, and
must pass the same checks (exit 0, parse round trip).  The SHA-256 of its
stdout is written to ``reference_digests.json``.  Run it once, on the commit
the outputs are defined by; a later change must reproduce these bytes.
"""

import json
import os
import sys

import harness
import run
import workloads


def main() -> int:
    target = harness.Target(run.ROOT)
    digests = {}
    for req in workloads.formula_catalog():
        outcome = harness.run_request(target, req, None)
        if not outcome.ok:
            print(f"{req.key}: {outcome.error}", file=sys.stderr)
            return 1
        digests[req.key] = outcome.sha256
    payload = {"recorded_from": run.commit_id(), "digests": digests}
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {os.path.relpath(run.REFERENCES, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
