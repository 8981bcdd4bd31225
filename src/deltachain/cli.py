"""Command line interface.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on usage errors (a cube dimension above ``MAX_ORDER`` is one, and so is a
scaling ``--alpha`` of order above ``MAX_SCALING_ORDER``) and when the
output cannot be written (an unwritable ``--output`` path, or a closed
stdout pipe), which prints one ``deltachain: ...`` line to stderr unless
stderr is that closed pipe too.  Output for a fixed command line and
seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .asets import asets_to_json
from .combinatorics import MultiIndex, bell_number
from .numeric import MAX_SCALING_ORDER, SUITE_NAMES, run_suite
from .symbolic import expand_chain, expand_tangent, render

DEFAULT_SEED = 1729

# The largest cube dimension a command accepts (--order, the length of
# --alpha, --kmax).  The work grows with the Bell number of the dimension:
# Bell(8) = 4,140 set partitions, Bell(12) = 4,213,597.
MAX_ORDER = 8


def _check_size(parser: argparse.ArgumentParser, flag: str, k: int) -> None:
    if k > MAX_ORDER:
        bell = bell_number(min(k, 30))
        parser.error(
            f"{flag} asks for cube dimension {k}, above the limit {MAX_ORDER}: "
            f"the work grows with Bell({k}) {'=' if k <= 30 else '>'} {bell:,} set partitions"
        )


def _bitstring_arg(parser: argparse.ArgumentParser, raw: str) -> MultiIndex:
    if not raw or any(c not in "01" for c in raw):
        parser.error(f"--alpha must be a nonempty bitstring, got {raw!r}")
    _check_size(parser, "--alpha", len(raw))
    return MultiIndex.from_string(raw)


def _alpha_arg(parser: argparse.ArgumentParser, args: argparse.Namespace) -> MultiIndex:
    if args.alpha is not None and args.order is not None:
        parser.error("give --alpha or --order, not both")
    if args.alpha is not None:
        return _bitstring_arg(parser, args.alpha)
    if args.order is not None:
        if args.order < 1:
            parser.error("--order must be at least 1")
        _check_size(parser, "--order", args.order)
        return MultiIndex.ones(args.order)
    parser.error("one of --alpha or --order is required")


# Characters per write: a text stream encodes each write into one bytes object.
_SLICE = 1 << 24


def _emit(output: str | None, *texts: str) -> None:
    """Write ``texts`` and a newline to ``output`` or stdout; exit 2 if that fails.
    Each is written on its own, in slices of at most ``_SLICE`` characters:
    joining them, or encoding one whole, would copy the output."""
    slices = (t[i : i + _SLICE] for t in (*texts, "\n") for i in range(0, len(t), _SLICE))
    try:
        if output is None:
            sys.stdout.writelines(slices)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(slices)
    except OSError as exc:
        # The reader is gone; send the unflushed rest to /dev/null so the
        # flush at interpreter exit does not fail a second time.  Stderr may
        # be the same closed pipe (2>&1): its line is then written nowhere.
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"deltachain: cannot write output: {exc}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        sys.exit(2)


def _formula_command(args: argparse.Namespace, parser: argparse.ArgumentParser, expand) -> int:
    alpha = _alpha_arg(parser, args)
    expr = expand(alpha)
    text = render(expr, args.format)
    if args.format == "latex":
        _emit(args.output, "\\[\n", text, "\n\\]")
    else:
        _emit(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltachain",
        description="Symbolic and exact-numeric engine for higher-order finite "
        "differences of composed maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alpha(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", help="binary multi-index as a bitstring, e.g. 101")
        p.add_argument("--order", type=int, help="shorthand for the all-ones multi-index of this length")

    p_expand = sub.add_parser("expand", help="difference expansion of a map applied over a cuboid")
    add_alpha(p_expand)
    p_expand.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_expand.add_argument("--output", help="write to this file instead of stdout")

    p_chain = sub.add_parser("chain", help="difference expansion of a composite f(g(x))")
    add_alpha(p_chain)
    p_chain.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_chain.add_argument("--output", help="write to this file instead of stdout")

    p_asets = sub.add_parser("asets", help="dump the per-partition index-set families")
    add_alpha(p_asets)
    p_asets.add_argument("--validate", action="store_true", help="include per-condition results")
    p_asets.add_argument("--output", help="write to this file instead of stdout")

    p_verify = sub.add_parser("verify", help="run numeric verification suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"root seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--trials", type=int, help="trial count per check (default per suite)")
    p_verify.add_argument("--kmax", type=int, help="largest cube dimension where the suite sweeps dimensions")
    p_verify.add_argument(
        "--alpha",
        help="restrict scaling or smooth-chain checks to this bitstring;"
        f" scaling takes at most {MAX_SCALING_ORDER} ones",
    )
    p_verify.add_argument("--output", help="write the JSON report to this file instead of stdout")
    # usage errors found after parsing are reported with the subcommand's usage line
    for p in (p_expand, p_chain, p_asets, p_verify):
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.parser

    if args.command == "expand":
        return _formula_command(args, parser, expand_tangent)
    if args.command == "chain":
        return _formula_command(args, parser, expand_chain)

    if args.command == "asets":
        alpha = _alpha_arg(parser, args)
        _emit(args.output, asets_to_json(alpha, include_validation=args.validate))
        return 0

    if args.command == "verify":
        if args.trials is not None and args.trials < 1:
            parser.error("--trials must be at least 1")
        if args.kmax is not None:
            if args.kmax < 1:
                parser.error("--kmax must be at least 1")
            _check_size(parser, "--kmax", args.kmax)
        alpha = None if args.alpha is None else _bitstring_arg(parser, args.alpha)
        if alpha is not None and args.suite in ("scaling", "all") and alpha.order > MAX_SCALING_ORDER:
            parser.error(
                f"--alpha {args.alpha} has order {alpha.order}, above the scaling limit {MAX_SCALING_ORDER}:"
                " a scaling trial's cost grows steeply with the order"
            )

        reports = run_suite(args.suite, args.seed, trials=args.trials, kmax=args.kmax, alpha=alpha)
        passed = all(r.passed for r in reports)
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "passed": passed,
            "reports": [r.to_obj() for r in reports],
        }
        _emit(args.output, json.dumps(payload, indent=2, sort_keys=True))
        return 0 if passed else 1

    parser.error(f"unknown command {args.command!r}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
