import hashlib
import io
import json
import subprocess
import sys

import pytest

from deltachain import cli, numeric
from deltachain.numeric import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- formula commands ---------------------------------------------------------

def test_expand_text(capsys):
    code, out = run_cli(capsys, "expand", "--alpha", "11")
    assert code == 0
    assert out == "Δ_{u_{1,2}} f(u_0 + u_2 + u_1) + Δ^2_{u_2, u_1} f(u_0)\n"


def test_expand_order_is_shorthand_for_all_ones(capsys):
    a = run_cli(capsys, "expand", "--alpha", "111")
    b = run_cli(capsys, "expand", "--order", "3")
    assert a == b


def test_expand_latex_is_wrapped_for_display(capsys):
    code, out = run_cli(capsys, "chain", "--alpha", "11", "--format", "latex")
    assert code == 0
    assert out.startswith("\\[") and out.rstrip().endswith("\\]")
    assert "\\Delta^{2}" in out


def test_expand_json_parses_back(capsys):
    from deltachain.combinatorics import MultiIndex
    from deltachain.symbolic import expand_tangent, parse

    code, out = run_cli(capsys, "expand", "--alpha", "101", "--format", "json")
    assert code == 0
    assert parse(out, "json") == expand_tangent(MultiIndex.from_string("101"))


def test_chain_text(capsys):
    code, out = run_cli(capsys, "chain", "--alpha", "11")
    assert code == 0
    assert out == (
        "Δ_{Δ^2_{v_1, v_2} g(x)} f(g(x) + Δ_{v_1} g(x) + Δ_{v_2} g(x))"
        " + Δ^2_{Δ_{v_1} g(x), Δ_{v_2} g(x)} f(g(x))\n"
    )


def test_output_flag_writes_the_same_bytes(tmp_path, capsys):
    for fmt in ("json", "latex"):
        code, out = run_cli(capsys, "expand", "--alpha", "11", "--format", fmt)
        target = tmp_path / f"formula.{fmt}"
        code2 = cli.main(["expand", "--alpha", "11", "--format", fmt, "--output", str(target)])
        capsys.readouterr()
        assert code == code2 == 0
        assert target.read_text() == out


def test_output_is_written_in_slices_with_the_same_bytes(tmp_path, capsys, monkeypatch):
    # No write is longer than the slice; stdout and --output get the bytes
    # that one write of each text gave.
    wanted = {}
    for fmt in ("json", "latex", "text"):
        argv = ["chain", "--order", "4", "--format", fmt]
        wanted[fmt] = run_cli(capsys, *argv)[1]
    writes = []

    class Recorder(io.StringIO):
        def write(self, s):
            writes.append(len(s))
            return super().write(s)

    monkeypatch.setattr(cli, "_SLICE", 7)
    for fmt, want in wanted.items():
        argv = ["chain", "--order", "4", "--format", fmt]
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == 0
        assert stdout.getvalue() == want
        target = tmp_path / f"formula.{fmt}"
        assert cli.main([*argv, "--output", str(target)]) == 0
        assert target.read_bytes() == want.encode("utf-8")
    assert writes and max(writes) == 7


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["asets", "--alpha", "1101110", "--validate"], "b2d7b5135c8b393d83dd926655d9d997ad672883ccbf4409292d5972fc2f85bb"),
        (["chain", "--order", "6", "--format", "json"], "0255230f665e980a64e6b5b7e410dd698e8b40b90b9241b64283daa37993f7ac"),
        (["expand", "--alpha", "10111010", "--format", "text"], "b152a1321aa42e6d5a860f1cd959ba7f84afc8b8683cf9e3070887411e7f7276"),
        (["verify", "--suite", "scaling", "--seed", "280623061", "--trials", "3"], "2ee96e06d10b5579a788f6392e894c6b23b3de93eb61f24a0ad3d870546382fd"),
        (["verify", "--suite", "scaling", "--seed", "124551739", "--trials", "3"], "2dd093e6284c499bbefeb45764d1cd819b891e0fe4c124c387c36d50a39f8335"),
        (["verify", "--suite", "scaling", "--alpha", "1111", "--seed", "7", "--trials", "1"], "3654c716a36bc8cb6ceceb18575f624e909480f4c827fc7b946d2d028e3ecac8"),
        (["verify", "--suite", "all", "--trials", "1"], "053271ca33207fa0315be8c29bda4d1fb186a805a4aee9184da332a563b92e93"),
        (["verify", "--suite", "all", "--trials", "3", "--kmax", "3", "--seed", "11"], "3524cdef23266777824645601167bb71c31e9529deda6eeaa6bec005a78cc60f"),
        (["verify", "--suite", "smooth-chain", "--alpha", "101", "--trials", "4", "--seed", "11"], "5efa1bdf4a2f06633e2c0ded0c97e4dd520ca3d86745b3c2d71c82c9d4789c8e"),
        (["verify", "--suite", "theorem-b", "--kmax", "6", "--trials", "2", "--seed", "11"], "e7c53187cccff71001a085cdbb3d89a5b46752594ef28571436b5d62de8a47ca"),
        (["verify", "--suite", "eq9", "--kmax", "6", "--trials", "3", "--seed", "11"], "c5c2989a14362014be6af967b966850474c99c01db63174c3f803b147bd4c8d5"),
        (["verify", "--suite", "scaling", "--alpha", "1011", "--seed", "8", "--trials", "2"], "865c2fac647e1c7f6cdce86a1775ca77001d78ca774838dce2510fcc18aa1caa"),
        (["expand", "--order", "6", "--format", "json"], "137137b2aeed93aa94997330c48c50bfb4c879284224f58098890c2f88642573"),
    ],
)
def test_outputs_match_recorded_digests(argv, digest, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- usage errors ------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["expand"],
        ["expand", "--alpha", "11", "--order", "2"],
        ["expand", "--alpha", "10x"],
        ["expand", "--order", "0"],
        ["asets"],
        ["verify", "--suite", "nosuch"],
        ["verify", "--trials", "0"],
        ["verify", "--kmax", "0"],
        ["verify", "--alpha", "2"],
        ["verify", "--seed", "not-a-number"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: deltachain {argv[0]} ")


@pytest.mark.parametrize("flag", ["--eps-pow-min", "--eps-pow-max"])
def test_the_removed_scale_grid_options_exit_2(flag, capsys):
    # The scale grid is fixed: the options are unknown to every parser.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "scaling", flag, "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: deltachain [")
    assert f"unrecognized arguments: {flag} 5" in captured.err


@pytest.mark.parametrize(
    "argv, flag, k",
    [
        (["chain", "--order", "12"], "--order", 12),
        (["expand", "--alpha", "1" * 9], "--alpha", 9),
        (["asets", "--alpha", "0" * 8 + "1"], "--alpha", 9),
        (["verify", "--kmax", "9"], "--kmax", 9),
        (["verify", "--suite", "smooth-chain", "--alpha", "1" * 10], "--alpha", 10),
    ],
)
def test_sizes_above_the_limit_exit_2_naming_the_bell_number(argv, flag, k, capsys):
    from deltachain.combinatorics import bell_number

    assert k > cli.MAX_ORDER >= 8
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: deltachain {argv[0]} ")
    assert f"{flag} asks for cube dimension {k}, above the limit {cli.MAX_ORDER}" in err
    assert f"Bell({k}) = {bell_number(k):,} set partitions" in err


def test_sizes_at_the_limit_are_accepted(capsys):
    code, out = run_cli(capsys, "expand", "--alpha", "0" * (cli.MAX_ORDER - 1) + "1")
    assert code == 0
    assert out == f"Δ_{{u_{cli.MAX_ORDER}}} f(u_0)\n"
    code, _ = run_cli(capsys, "verify", "--suite", "identities", "--trials", "1", "--kmax", str(cli.MAX_ORDER))
    assert code == 0


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "identities", "--trials", "1", "--output", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("deltachain: cannot write output: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_closed_stdout_pipe_exits_2_with_one_line():
    # The formula is larger than a pipe buffer, so the write fails even if
    # the child starts writing before the read end is closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltachain", "chain", "--order", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("deltachain: cannot write output: ")
    assert err.count("\n") == 1


def test_closed_pipe_shared_with_stderr_exits_2():
    # As in `deltachain chain --order 6 2>&1 | head -c 10`: the error line
    # meets the same closed pipe, and is dropped; the exit code stands.
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltachain", "chain", "--order", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait() == 2


# -- aset inspection -----------------------------------------------------------------

def test_asets_dump(capsys):
    code, out = run_cli(capsys, "asets", "--alpha", "11")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["partition"] == ["11"]
    assert all(r["valid"] for r in rows)


def test_asets_validate_reports_the_known_violations(capsys):
    code, out = run_cli(capsys, "asets", "--alpha", "1111", "--validate")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 15
    flagged = [r for r in rows if not r["valid"]]
    assert flagged
    for r in flagged:
        bad = {n for n, c in r["conditions"].items() if not c["ok"]}
        assert bad <= {"base-extras", "block-extras"}


# -- verification ---------------------------------------------------------------------

def test_verify_small_suite_passes(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "eq9", "--trials", "2", "--kmax", "2", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "eq9"
    assert payload["seed"] == 5
    assert payload["passed"] is True
    assert len(payload["reports"]) == 2


def test_verify_output_is_byte_deterministic(capsys):
    args = ("verify", "--suite", "identities", "--trials", "2", "--seed", "9")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_verify_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("DELTACHAIN_SEED", "321")
    code, out = run_cli(capsys, "verify", "--suite", "identities", "--trials", "1", "--seed", "4")
    assert code == 0
    assert json.loads(out)["seed"] == 4


def test_verify_rejects_malformed_env(capsys, monkeypatch):
    # A malformed seed exits 2 from the flag; the environment plays no part,
    # so a malformed DELTACHAIN_SEED neither causes nor hides the error.
    monkeypatch.setenv("DELTACHAIN_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "identities", "--trials", "1", "--seed", "not-a-number"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'not-a-number'" in capsys.readouterr().err


def test_verify_reads_no_environment_variable(capsys, monkeypatch):
    # The seed and the trial counts come from the flags alone; with none,
    # every suite runs at its defaults under seed 1729.
    monkeypatch.setenv("DELTACHAIN_SEED", "5")
    monkeypatch.setenv("DELTACHAIN_TRIALS", "1")
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b58d0071b63dc75bada0f292e9264811f3b36600ecba0de4d323383a22c7b1a9"
    )


def test_the_suite_table_holds_every_default():
    # (default trials, default kmax) per suite; a suite that sweeps no
    # dimensions has no kmax.  The one-suite wrappers default to None, which
    # run_suite reads from this table.
    defaults = {name: row[1:] for name, row in numeric._SUITES.items()}
    assert defaults == {
        "theorem-b": (50, 5),
        "eq9": (50, 5),
        "identities": (1000, None),
        "scaling": (3, None),
        "smooth-chain": (25, 3),
    }
    verify = cli.build_parser().parse_args(["verify"]).parser
    (suite,) = [a for a in verify._actions if a.dest == "suite"]
    assert tuple(suite.choices) == (*numeric._SUITES, "all")
    assert sorted(o for a in verify._actions for o in a.option_strings if o not in ("-h", "--help")) == [
        "--alpha", "--kmax", "--output", "--seed", "--suite", "--trials",
    ]


@pytest.mark.parametrize("suite", ["scaling", "all"])
@pytest.mark.parametrize("alpha", ["111111", "11111111", "1011111"])
def test_a_scaling_alpha_above_the_order_limit_exits_2(suite, alpha, capsys, monkeypatch):
    # A scaling trial at order 6 takes over 20 s; no suite runs at all.
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", suite, "--alpha", alpha, "--trials", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    order = alpha.count("1")
    assert f"--alpha {alpha} has order {order}, above the scaling limit 5" in captured.err
    help_text = " ".join(cli.build_parser().parse_args(["verify"]).parser.format_help().split())
    assert "scaling takes at most 5 ones" in help_text


def test_a_smooth_chain_alpha_of_order_6_is_not_held_to_the_scaling_limit(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "smooth-chain", "--alpha", "111111", "--trials", "1")
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "seed, low_slope",
    [(280623061, "threshold 2.800; trial 0: slope 2.994; trial 1: slope 3.015; trial 2: slope 2.537"),
     (124551739, "threshold 3.800; trial 0: slope 3.560; trial 1: slope 4.009; trial 2: slope 3.952")],
)
def test_verify_scaling_passes_a_slope_below_threshold_on_an_exact_valuation(seed, low_slope, capsys):
    # Both remainders are zero mod eps^(|alpha|+1): the fitted slope falls
    # short of the threshold, and is reported, but does not decide.
    code, out = run_cli(capsys, "verify", "--suite", "scaling", "--seed", str(seed), "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert low_slope in [r["detail"] for r in payload["reports"]]
    assert all(not r["failures"] and r["exact"] is False for r in payload["reports"])


def test_verify_exit_code_reflects_failures(capsys, monkeypatch):
    from deltachain.numeric import Failure

    def fake_run_suite(name, seed, **kwargs):
        return [VerificationReport("demo", 1, (Failure(1, "11", "forced"),), True)]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = cli.main(["verify", "--suite", "identities", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["passed"] is False


# -- module entry points -----------------------------------------------------------------

def test_module_invocation_round_trip(capsys):
    expected = run_cli(capsys, "expand", "--alpha", "11")[1]
    proc = subprocess.run(
        [sys.executable, "-m", "deltachain", "expand", "--alpha", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
    proc2 = subprocess.run(
        [sys.executable, "-m", "deltachain.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 0
    assert proc2.stdout.startswith("deltachain ")
