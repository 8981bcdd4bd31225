"""Closed-loop request runner with one forked child per request.

The parent imports ``deltachain`` and never calls it.  Each request runs in
a child forked from that parent, so it starts from the state a fresh
``deltachain`` process starts from: every in-process cache is empty, and a
check at request start proves it.  The child captures the CLI's stdout,
checks it, and sends a small verdict back through a pipe; the parent times
the request from just before the fork to the verdict, and takes the child's
peak resident set from ``wait4``.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import pickle
import select
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from workloads import Request

MODULES = ("combinatorics", "cuboid", "asets", "symbolic", "polynomials", "numeric", "cli")

# A request that runs longer than this is killed and counted as failed, so a
# hung request cannot stall a run.
REQUEST_TIMEOUT_S = 60.0


class Target:
    """The ``deltachain`` package imported from ``<root>/src``."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        if not os.path.isdir(os.path.join(src, "deltachain")):
            raise ImportError(f"no deltachain package under {src}")
        sys.path.insert(0, src)
        package = importlib.import_module("deltachain")
        if not os.path.abspath(package.__file__).startswith(src + os.sep):
            raise ImportError(f"deltachain imported from {package.__file__}, not from {src}")
        self.modules = {name: importlib.import_module(f"deltachain.{name}") for name in MODULES}
        self.caches = self._find_caches()

    def _find_caches(self) -> list[tuple[str, object]]:
        # Every memo table with an lru_cache interface, public or private,
        # module-level or on a class, so caches added later are covered too.
        found: dict[int, tuple[str, object]] = {}
        for mod_name, module in self.modules.items():
            scopes = [(mod_name, vars(module))]
            scopes += [
                (f"{mod_name}.{name}", vars(obj))
                for name, obj in vars(module).items()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
            for prefix, namespace in scopes:
                for name, obj in namespace.items():
                    if callable(getattr(obj, "cache_info", None)):
                        found.setdefault(id(obj), (f"{prefix}.{name}", obj))
        return sorted(found.values(), key=lambda item: item[0])

    def warm_caches(self) -> list[str]:
        """Names of the caches that hold entries right now."""
        return [name for name, cache in self.caches if cache.cache_info().currsize]

    @property
    def cli(self):
        return self.modules["cli"]

    @property
    def symbolic(self):
        return self.modules["symbolic"]


def call_cli(target: Target, argv: tuple[str, ...]) -> tuple[int, str]:
    """Run ``cli.main`` with stdout and stderr captured; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = target.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def check_output(target: Target, req: Request, code: int, text: str) -> str | None:
    """Why the output of ``req`` is wrong, or None when it is right.

    Formula digests are compared by the parent; this checks what needs the
    package: the parse round trip of text and JSON formulas, and the verdict,
    report count and trial counts of verification reports.
    """
    if code != 0:
        return f"exit code {code}"
    if req.command in ("chain", "expand"):
        if req.fmt == "latex":
            return None
        sym = target.symbolic
        alpha = target.modules["combinatorics"].MultiIndex.from_string(req.alpha)
        expected = (sym.expand_chain if req.command == "chain" else sym.expand_tangent)(alpha)
        if req.fmt == "json":
            parsed = sym.parse(text, "json")
        else:
            parsed = sym.parse(text.rstrip("\n"), dim=alpha.dim)
        return None if parsed == expected else f"{req.fmt} output does not parse back to the expansion"
    if req.command == "verify":
        payload = json.loads(text)
        if payload.get("passed") is not True:
            return "verification report did not pass"
        reports = payload.get("reports", [])
        if len(reports) != req.reports:
            return f"{len(reports)} reports, expected {req.reports}"
        bad = [r.get("identity") for r in reports if r.get("trials") != req.trials]
        if bad:
            return f"trial count differs from {req.trials} in {bad}"
    return None


def execute(target: Target, req: Request, tracer=None) -> dict:
    """Run one request in this process and check it.  Runs in the child."""
    warm = target.warm_caches()
    if warm:
        return {"error": "warm cache at request start: " + ", ".join(warm)}
    if tracer is not None:
        tracer.begin()
    try:
        code, text = call_cli(target, req.argv)
        data = text.encode("utf-8")
        if tracer is not None:
            tracer.count("cli.output_bytes", len(data))
        error = check_output(target, req, code, text)
        if tracer is not None and req.command == "verify" and code == 0:
            reports = json.loads(text)["reports"]
            tracer.count("numeric.trials", sum(r["trials"] for r in reports))
            tracer.count("numeric.report_failures", sum(len(r["failures"]) for r in reports))
    finally:
        layer = tracer.end() if tracer is not None else None
    return {"error": error, "sha256": hashlib.sha256(data).hexdigest(), "layer": layer}


@dataclass
class Outcome:
    """What the parent learned about one request."""

    request: Request
    latency_s: float
    rss_mb: float
    error: str | None
    sha256: str | None = None
    layer: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _read_child(fd: int, pid: int, deadline: float) -> bytes | None:
    chunks = []
    while True:
        left = deadline - time.monotonic()
        ready, _, _ = select.select([fd], [], [], max(left, 0.0))
        if not ready:
            os.kill(pid, signal.SIGKILL)
            return None
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_forked(work) -> tuple[float, dict]:
    """Call ``work()`` in a forked child; return (its peak RSS in MB, its result).

    The result is ``{"error": ...}`` when the child raised, was killed, or
    exited without a verdict.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            try:
                result = work()
            except Exception:
                result = {"error": "exception: " + traceback.format_exc(limit=-3).strip()}
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps(result))
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        data = _read_child(read_fd, pid, time.monotonic() + REQUEST_TIMEOUT_S)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if data is None:
        return rss_mb, {"error": f"killed after {REQUEST_TIMEOUT_S:.0f} s"}
    if status != 0 or not data:
        return rss_mb, {"error": f"child exited with wait status {status}"}
    return rss_mb, pickle.loads(data)


def run_request(target: Target, req: Request, references: dict | None, tracer=None) -> Outcome:
    """One closed-loop request: fork, run, check, and compare the digest.

    ``references`` maps catalog keys to digests; None skips the comparison,
    which only the digest recorder does.
    """
    start = time.perf_counter()
    rss_mb, result = run_forked(lambda: execute(target, req, tracer))
    error = result.get("error")
    if error is None and req.key is not None and references is not None:
        expected = references.get(req.key)
        if expected is None:
            error = f"no reference digest for {req.key!r}"
        elif expected != result["sha256"]:
            error = "output digest differs from the reference"
    latency = time.perf_counter() - start
    return Outcome(req, latency, rss_mb, error, result.get("sha256"), result.get("layer"))


def run_rounds(target, rounds, references: dict, tracer=None, hard_stop: float | None = None):
    """Run every request of ``rounds``, one at a time.

    Returns (outcomes, wall seconds, rounds completed).  A round is cut only
    when the run passes ``hard_stop`` seconds, which bounds a run of a
    pathologically slow program.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    done = 0
    for requests in rounds:
        for req in requests:
            outcomes.append(run_request(target, req, references, tracer))
            if hard_stop is not None and time.perf_counter() - start > hard_stop:
                return outcomes, time.perf_counter() - start, done
        done += 1
    return outcomes, time.perf_counter() - start, done
