"""Command-line interface: output pins, CSV determinism, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import wrightasym.cli as cli
from wrightasym.cli import main
from wrightasym.coeffs import DegenerateSaddle
from wrightasym.core import DomainError
from wrightasym.expansions import WrongRegime
from wrightasym.oracle import NoConvergence, PrecisionLoss
from wrightasym.saddles import ConvergenceFailure, NoBoundary, \
    NoRealSaddle, OnStokesBoundary, StepFailure, stokes_boundary


@dataclass
class _Result:
    exit_code: int
    output: str
    exception: BaseException | None


class _Runner:
    """main(argv) in this process, with its stdout and stderr captured
    into one buffer, as a terminal shows both."""

    def invoke(self, main, argv, catch_exceptions=True):
        buf = io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                main(argv)
            except SystemExit as e:
                code = e.code or 0
                exception = e if code else None
            except Exception as e:
                if not catch_exceptions:
                    raise
                code, exception = 1, e
        return _Result(code, buf.getvalue(), exception)


@pytest.fixture()
def runner():
    return _Runner()


def _run(runner, *argv):
    return runner.invoke(main, list(argv), catch_exceptions=False)


# -- eval -----------------------------------------------------------------

def test_eval_plus_pinned_value(runner):
    res = _run(runner, "eval", "--lambda", "3", "--a", "0.2",
               "--x", "20", "--sign", "plus")
    assert res.exit_code == 0
    assert "7.07066050e+05" in res.output


def test_eval_small_x(runner):
    res = _run(runner, "eval", "--lambda", "1", "--a", "1",
               "--x", "0.0001", "--sign", "minus")
    assert res.exit_code == 0
    assert "9.99067797e-01" in res.output


def test_eval_json_payload(runner):
    res = _run(runner, "eval", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["value"] == pytest.approx(-202.374963445, rel=1e-9)
    assert payload["significant_digits"] >= 40
    assert not payload["low_precision"]


def test_eval_domain_error_exits_2(runner):
    res = _run(runner, "eval", "--lambda", "-2", "--a", "1",
               "--x", "10", "--sign", "minus")
    assert res.exit_code == 2


def test_eval_precision_loss_exits_3(runner):
    res = _run(runner, "eval", "--lambda", "-0.25", "--a", "1",
               "--x", "200", "--sign", "minus", "--precision", "30")
    assert res.exit_code == 3


_FORMATS = (("text", ()), ("json", ("--json",)))


@pytest.mark.parametrize("point,flow,fmt", [
    pytest.param(point, flow, fmt, id=prefix + name)
    for prefix, point, flow in (
        ("", ("1", "0.5", "3000", "plus"), "overflows"),
        # W- = 6.4e-2266 and W+ = 4.3e-460
        ("underflow-minus-", ("3", "5", "800", "minus"), "underflows"),
        ("underflow-plus-", ("0.5", "2", "2000", "plus"), "underflows"))
    for name, fmt in _FORMATS])
def test_eval_overflow_exits_2(runner, tmp_path, point, flow, fmt):
    # the series sums to a finite, nonzero mp value that its double
    # rounding loses
    lam, a, x, sign = point
    out = tmp_path / "eval.csv"
    res = _run(runner, "eval", "--lambda", lam, "--a", a, "--x", x,
               "--sign", sign, "--out", str(out), *fmt)
    assert res.exit_code == 2
    assert f"error: the value {flow} double precision" in res.output
    assert "Infinity" not in res.output and "inf" not in res.output
    assert "0.00000000e+00" not in res.output
    assert not out.exists()


def test_eval_low_precision_flag_exits_3(runner):
    res = _run(runner, "eval", "--lambda", "1.5", "--a", "0.5",
               "--x", "80", "--sign", "minus", "--precision", "30")
    assert res.exit_code == 3
    assert "raise --precision" in res.output


def test_eval_csv_deterministic(runner, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        res = _run(runner, "eval", "--lambda", "1.5", "--a", "0.5",
                   "--x", "40", "--sign", "minus", "--out", str(p))
        assert res.exit_code == 0
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("# wright eval\n# version ")
    assert "\r" not in text
    header_free = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert header_free[0] == "value,significant_digits,terms"


# -- expand ---------------------------------------------------------------

def test_expand_real_saddle_pinned_error(runner):
    res = _run(runner, "expand", "--lambda", "-0.25", "--a", "1",
               "--x", "40", "--sign", "minus", "--order", "5")
    assert res.exit_code == 0
    assert "route: real-saddle" in res.output
    assert "6.262e-14" in res.output


def test_expand_auto_double_route(runner):
    res = _run(runner, "expand", "--lambda", "1", "--a", "1",
               "--x", "40", "--sign", "minus")
    assert res.exit_code == 0
    assert "route: double-saddle" in res.output


def test_expand_plus_chain_components(runner):
    res = _run(runner, "expand", "--lambda", "3", "--a", "0.2",
               "--x", "20", "--sign", "plus", "--optimal")
    assert res.exit_code == 0
    assert "route: chain" in res.output
    assert "I_0" in res.output and "I_1" in res.output


def test_expand_reports_truncation_reasons(runner):
    argv = ("expand", "--lambda", "3", "--a", "0.2", "--x", "40",
            "--sign", "plus", "--order", "3")
    res = _run(runner, *argv)
    assert res.exit_code == 0
    assert "I_0 = 5.92085419e+12   (k = 3, fixed)" in res.output
    assert "(k = 40, capped)" in res.output
    payload = json.loads(_run(runner, *argv, "--json").output)
    assert payload["truncation_reasons"] == ["fixed", "capped"]
    res = _run(runner, "expand", "--lambda", "-0.25", "--a", "1",
               "--x", "40", "--sign", "minus")
    assert "truncation: k = 40 (optimal: capped)" in res.output


def test_expand_include_subdominant(runner):
    # at x = 20 the subdominant I_2 is about 1e-3 and moves the value by
    # 2e-8 relative; at x = 40 it would sit below double rounding
    argv = ("expand", "--lambda", "6", "--a", "0.2", "--x", "20",
            "--sign", "plus", "--optimal", "--json")
    left_out = json.loads(_run(runner, *argv).output)
    kept = json.loads(_run(runner, *argv, "--include-subdominant").output)
    assert len(kept["components"]) == 3
    assert kept["components"] == left_out["components"]
    i0, i1, i2 = kept["components"]
    assert left_out["value"] == pytest.approx(i0 + i1, rel=1e-12)
    assert kept["value"] == pytest.approx(i0 + i1 + i2, rel=1e-12)
    assert kept["value"] != left_out["value"]


def test_expand_flag_conflict_exits_2(runner):
    res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--order", "3", "--optimal")
    assert res.exit_code == 2


def test_expand_negative_order_exits_2(runner):
    # an order above the cap is refused before any coefficient is computed
    for order, message in (("-1", "must be nonnegative"),
                           ("100000000", "must be at most 40")):
        res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
                   "--x", "40", "--sign", "minus", "--order", order)
        assert res.exit_code == 2
        assert f"error: truncation order {message}" in res.output


@pytest.mark.parametrize("point,flow,exponent,fmt", [
    pytest.param(point, flow, exponent, fmt, id=prefix + name)
    for prefix, point, flow, exponent in (
        ("", ("2", "0.5", "1e6"), "overflows", "326713"),
        ("underflow-", ("3", "5", "800"), "underflows", "-5210.74"))
    for name, fmt in _FORMATS])
def test_expand_overflow_exits_2(runner, tmp_path, point, flow, exponent,
                                 fmt):
    # x*h0 = 3.3e5 or -5.2e3: the extended-precision value is finite and
    # nonzero, its double rounding loses it, and the oracle is never reached
    lam, a, x = point
    out = tmp_path / "expand.csv"
    res = _run(runner, "expand", "--lambda", lam, "--a", a, "--x", x,
               "--sign", "minus", "--order", "3", "--out", str(out), *fmt)
    assert res.exit_code == 2
    assert f"error: the value {flow} double precision" in res.output
    assert f"x*h0 = {exponent}" in res.output
    assert "Infinity" not in res.output
    assert "0.00000000e+00" not in res.output
    assert not out.exists()


def test_expand_says_why_the_error_is_missing(runner, monkeypatch):
    import wrightasym.cli as cli_mod
    from wrightasym.oracle import NoConvergence

    def failing(args, prec):
        raise NoConvergence("series did not settle within 5 terms")

    monkeypatch.setattr(cli_mod, "w_minus", failing)
    res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--order", "3")
    assert res.exit_code == 0
    assert ("relative error vs series: not available "
            "(series did not settle within 5 terms)") in res.output


def test_expand_precision_below_floor_exits_2(runner):
    res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--order", "3",
               "--precision", "3")
    assert res.exit_code == 2
    assert "error: decimal_digits must be at least 30" in res.output


def test_expand_reference_runs_at_the_given_precision(runner, monkeypatch):
    import wrightasym.cli as cli_mod

    seen = []
    reference = cli_mod.w_minus

    def recorded(args, prec):
        seen.append(prec.decimal_digits)
        return reference(args, prec)

    monkeypatch.setattr(cli_mod, "w_minus", recorded)
    res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--order", "3",
               "--precision", "40")
    assert res.exit_code == 0
    assert seen == [40]


def test_expand_refuses_a_cancelled_reference(runner):
    res = _run(runner, "expand", "--lambda", "-0.9", "--a", "1",
               "--x", "100", "--sign", "minus", "--order", "3")
    assert res.exit_code == 0
    assert ("relative error vs series: not available (the leading saddle "
            "term predicts 100.1 decimal digits of cancellation: only -40 "
            "would survive the summation)") in res.output


def test_expand_json_terms(runner):
    res = _run(runner, "expand", "--lambda", "1.5", "--a", "0.5",
               "--x", "40", "--sign", "minus", "--order", "4", "--json")
    payload = json.loads(res.output)
    assert payload["route"] == "conjugate-pair"
    assert payload["truncation_index"] == 4
    assert len(payload["terms"]) == 5
    assert payload["relative_error"] < 1e-6


def test_expand_csv_terms_schema(runner, tmp_path):
    p = tmp_path / "terms.csv"
    res = _run(runner, "expand", "--lambda", "1", "--a", "1.2",
               "--x", "40", "--sign", "minus", "--order", "3",
               "--out", str(p))
    assert res.exit_code == 0
    lines = [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "k,term_re,term_im"
    assert len(lines) == 5  # header + terms 0..3


# -- saddles --------------------------------------------------------------

def test_saddles_minus_conjugate_pair(runner):
    res = _run(runner, "saddles", "--lambda", "1.5", "--a", "0.5",
               "--sign", "minus")
    assert res.exit_code == 0
    assert "regime: conjugate_pair" in res.output
    assert "0.24834557" in res.output and "0.90919096" in res.output


def test_saddles_plus_no_contributory_pairs(runner):
    res = _run(runner, "saddles", "--lambda", "1", "--a", "0.5",
               "--sign", "plus")
    assert res.exit_code == 0
    assert "N = 0" in res.output


def test_saddles_plus_chain_listing(runner):
    res = _run(runner, "saddles", "--lambda", "2", "--a", "0.6",
               "--sign", "plus", "--chain", "1", "--json")
    payload = json.loads(res.output)
    assert payload["n_pairs"] == 0
    chain = [s for s in payload["saddles"] if s["kind"] == "complex_pair"]
    assert len(chain) == 1
    assert 1.5707 < chain[0]["im_u"] < 4.7124  # (pi/2, 3 pi/2)


def test_saddles_chain_solves_only_uncounted_members(runner, monkeypatch):
    # the count solves members 1..N+1 (N = 2); the listing adds 3 and 4
    import wrightasym.cli as cli_mod
    import wrightasym.saddles as saddles_mod
    calls = 0
    member = saddles_mod.chain_member

    def counted(phase, k):
        nonlocal calls
        calls += 1
        return member(phase, k)

    monkeypatch.setattr(saddles_mod, "chain_member", counted)
    monkeypatch.setattr(cli_mod, "chain_member", counted)
    res = _run(runner, "saddles", "--lambda", "6", "--a", "0.2",
               "--sign", "plus", "--chain", "4", "--json")
    payload = json.loads(res.output)
    assert payload["n_pairs"] == 2
    im = [s["im_u"] for s in payload["saddles"]]
    assert len(im) == 5 and im == sorted(im)
    assert calls <= 5


def test_saddles_two_real_solves_the_real_saddles_once(runner, monkeypatch):
    # the contour keeps the smaller root it solved; the listing reuses it
    import wrightasym.cli as cli_mod
    import wrightasym.saddles as saddles_mod
    calls = 0
    solve = saddles_mod.solve_real_saddle

    def counted(phase):
        nonlocal calls
        calls += 1
        return solve(phase)

    monkeypatch.setattr(saddles_mod, "solve_real_saddle", counted)
    # counted too if the command solves them itself
    monkeypatch.setattr(cli_mod, "solve_real_saddle", counted, raising=False)
    res = _run(runner, "saddles", "--lambda", "1", "--a", "1.2",
               "--sign", "minus", "--json")
    payload = json.loads(res.output)
    assert payload["regime"] == "two_real"
    assert [s["kind"] for s in payload["saddles"]] == ["real_simple"] * 2
    re_u = [s["re_u"] for s in payload["saddles"]]
    assert re_u == sorted(re_u) and re_u[0] < re_u[1]
    assert calls == 1


def test_saddles_reports_double_in_the_near_curve_band(runner):
    from wrightasym.saddles import double_saddle_curve
    curve = double_saddle_curve(2.0)
    for a, regime in ((curve * (1 + 5e-7), "double"),
                      (curve * (1 - 5e-7), "double"),
                      (curve * (1 + 2e-6), "two_real"),
                      (curve * (1 - 2e-6), "conjugate_pair")):
        res = _run(runner, "saddles", "--lambda", "2", "--a", repr(a),
                   "--sign", "minus")
        assert res.output.splitlines()[0] == f"regime: {regime}"


def test_saddles_on_stokes_boundary_exits_4(runner):
    a_flip = stokes_boundary(2.0, 1)
    res = _run(runner, "saddles", "--lambda", "2", "--a", repr(a_flip),
               "--sign", "plus")
    assert res.exit_code == 4


def test_saddles_trace_csv(runner, tmp_path):
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for p in (p1, p2):
        res = _run(runner, "saddles", "--lambda", "2", "--a", "0.2",
                   "--sign", "plus", "--trace", "--out", str(p))
        assert res.exit_code == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "re_u,im_u,re_h,im_h"
    assert len(data) > 10
    # every data row is four scientific-notation fields
    for row in data[1:4]:
        parts = row.split(",")
        assert len(parts) == 4
        for v in parts:
            float(v)


_SADDLE_COLUMNS = "index,kind,re_u,im_u,re_h,im_h,re_h2,im_h2"


@pytest.mark.parametrize("argv,header,rows", [
    # the off-contour saddle is listed first
    (("--lambda", "1", "--a", "1.2", "--sign", "minus"),
     ["lam=1.0", "a=1.2", "sign=minus"],
     ["0,real_simple,-6.22362504e-01,0.00000000e+00,8.35100464e-02,"
      "0.00000000e+00,-6.63324958e-01,0.00000000e+00",
      "0,real_simple,6.22362504e-01,0.00000000e+00,-8.35100464e-02,"
      "0.00000000e+00,6.63324958e-01,0.00000000e+00"]),
    (("--lambda", "6", "--a", "0.2", "--sign", "plus", "--chain", "4"),
     ["lam=6.0", "a=0.2", "sign=plus"],
     ["0,real_simple,3.05822778e-01,0.00000000e+00,6.97518082e-01,"
      "0.00000000e+00,3.55209582e+00,0.00000000e+00",
      "1,complex_pair,2.81812083e-01,8.58010811e-01,4.15950238e-01,"
      "4.13376444e-01,1.83387593e+00,3.50987164e+00",
      "2,complex_pair,2.42151672e-01,1.75461902e+00,-2.17605155e-01,"
      "3.79714867e-01,-2.01504892e+00,4.38383202e+00",
      "3,complex_pair,2.19004591e-01,2.67687803e+00,-7.26280071e-01,"
      "-2.09936425e-01,-5.09487492e+00,1.95263509e+00",
      "4,complex_pair,2.19004591e-01,3.60630728e+00,-7.26280071e-01,"
      "-1.04670064e+00,-5.09487492e+00,-1.95263509e+00"]),
])
def test_saddles_csv_pinned(runner, tmp_path, argv, header, rows):
    p = tmp_path / "saddles.csv"
    res = _run(runner, "saddles", *argv, "--out", str(p))
    assert res.exit_code == 0
    assert p.read_bytes().decode() == "".join(
        line + "\n" for line in ("# wright saddles",
                                 f"# version {cli.__version__}",
                                 *(f"# {h}" for h in header),
                                 _SADDLE_COLUMNS, *rows))


# -- table ----------------------------------------------------------------

def test_table_t1_passes(runner):
    res = _run(runner, "table", "t1")
    assert res.exit_code == 0
    assert res.output.rstrip().endswith("PASS")
    assert "max deviation" in res.output


def test_table_text_prints_the_correction_note(runner):
    res = _run(runner, "table", "t3")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    i = next(i for i, ln in enumerate(lines) if "lam=1 " in ln
             and "err k=4 " in ln)
    assert lines[i + 1] == (
        "       note: tabulated with a slipped digit in the quartic "
        "closed-form coefficient (826 for 836); target is the "
        "proven-coefficient value")


def test_table_csv_and_json(runner, tmp_path):
    p = tmp_path / "t2.csv"
    res = _run(runner, "table", "t2", "--json", "--out", str(p))
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["table"] == "t2" and payload["passed"]
    lines = [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "row,label,computed,printed,target,deviation,ok"
    assert len(lines) == 1 + len(payload["cells"])


def test_table_sweep_csv(runner, tmp_path):
    p = tmp_path / "curve.csv"
    res = _run(runner, "table", "fig2-curve", "--out", str(p))
    assert res.exit_code == 0
    lines = [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "lam,a"
    assert len(lines) > 100


def test_table_mismatch_exits_5(runner, monkeypatch):
    import wrightasym.cli as cli_mod
    from wrightasym.reference import TableSpec
    from wrightasym.tables import CellCheck, TableReport

    bad = TableReport(TableSpec.T1, [CellCheck(
        "row", "label", computed=2.0, printed=1.0, target=1.0,
        tol=1e-6, relative=True)])
    monkeypatch.setattr(cli_mod, "compute_table", lambda spec: bad)
    res = _run(runner, "table", "t1")
    assert res.exit_code == 5
    assert "FAIL" in res.output


# -- input contract ---------------------------------------------------------

_EVAL_POINT = ("--lambda", "1.5", "--a", "0.5", "--x", "40", "--sign", "minus")


def test_version(runner):
    res = _run(runner, "--version")
    assert res.exit_code == 0
    assert res.output == f"wright, version {cli.__version__}\n"


@pytest.mark.parametrize("argv", [
    pytest.param((), id="no-subcommand"),
    pytest.param(("eval", *_EVAL_POINT[2:]), id="missing-lambda"),
    pytest.param(("eval", "--lambda", "x", *_EVAL_POINT[2:]),
                 id="lambda-not-a-float"),
    pytest.param(("table", "t9"), id="no-such-table"),
    # an option is spelled out in full, never abbreviated
    pytest.param(("expand", *_EVAL_POINT, "--prec", "40"),
                 id="abbreviated-option"),
])
def test_usage_errors_exit_2(runner, argv):
    assert _run(runner, *argv).exit_code == 2


def test_out_naming_a_directory_exits_2_and_writes_nothing(runner, tmp_path):
    res = _run(runner, "eval", *_EVAL_POINT, "--out", str(tmp_path))
    assert res.exit_code == 2
    assert "W-(" not in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", ["-0.5", "-5e-1", "-.5", "-5E-1"])
def test_a_negative_value_in_exponent_notation_is_a_value(runner, lam):
    res = _run(runner, "eval", "--lambda", lam, "--a", "1", "--x", "40",
               "--sign", "minus")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] \
        == "W-(lam=-0.5, a=1; x=40) = 4.51720408e-10"


def _wright(*argv, stderr=subprocess.PIPE):
    # stdout block-buffered, as it is by default into a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "wrightasym.cli", *argv],
                          env=env, stdout=subprocess.PIPE, stderr=stderr,
                          text=True)


def test_the_module_runs_as_a_program():
    res = _wright("eval", "--lambda", "-2", "--a", "1", "--x", "10",
                  "--sign", "minus")
    assert (res.returncode, res.stdout, res.stderr) \
        == (2, "", "error: lam must exceed -1, got -2.0\n")
    res = _wright("table", "fig2-curve")
    assert res.returncode == 0
    assert res.stdout.endswith("\nPASS\n")
    # one stream taking stdout and stderr gets the lines in written order
    res = _wright("eval", *_EVAL_POINT[:4], "--x", "80", *_EVAL_POINT[6:],
                  "--precision", "30", stderr=subprocess.STDOUT)
    assert res.returncode == 3
    assert [line.split()[0] for line in res.stdout.splitlines()] \
        == ["W-(lam=1.5,", "terms", "warning:"]


# -- exit codes -------------------------------------------------------------

# what the module docstring documents for eval, expand and saddles (5 is
# the table check's own)
_DOCUMENTED = {0, 1, 2, 3, 4}


@pytest.mark.parametrize("lam,a", [(-0.5, 0.666), (0.0, 1.0)])
def test_saddles_trace_on_the_plus_axis_at_lam_at_most_0(runner, lam, a):
    # no chain to run into: the path from the real saddle goes right
    res = _run(runner, "saddles", "--lambda", repr(lam), "--a", repr(a),
               "--sign", "plus", "--trace", "--json")
    assert res.exit_code == 0
    [path] = json.loads(res.output)["traces"]
    assert (path["saddle_index"], path["terminus"]) \
        == (0, "infinity_plus_pi")


def test_seeded_sweep_ends_every_run_with_a_documented_exit_code(runner):
    # 50 seeded points over lam in (-0.99, 8], either sign, through eval,
    # expand and saddles --trace, and the two lam <= 0 plus points above:
    # no run may end in an exception the commands do not map
    rng = random.Random(43)
    points = [(-0.5, 0.666, 40.0, "plus"), (0.0, 1.0, 40.0, "plus")]
    for _ in range(50):
        points.append((rng.uniform(-0.99, 8.0), rng.uniform(0.05, 4.0),
                       10 ** rng.uniform(0.0, 2.5),
                       rng.choice(["plus", "minus"])))
    codes = set()
    for lam, a, x, sign in points:
        point = ["--lambda", repr(lam), "--a", repr(a), "--sign", sign]
        for argv in (["eval", *point, "--x", repr(x)],
                     ["expand", *point, "--x", repr(x)],
                     ["saddles", *point, "--trace"]):
            res = runner.invoke(main, argv)
            assert res.exception is None \
                or isinstance(res.exception, SystemExit), (argv, res.output)
            assert res.exit_code in _DOCUMENTED, argv
            codes.add(res.exit_code)
    # among them a cancelled minus sum (3) and a first chain member the
    # Newton ladder misses at (0.93, 3.73, plus) (1)
    assert {0, 1, 3} <= codes


# each command's argv and the package function its body calls first
_COMMANDS = {
    "eval": (["eval", "--lambda", "1.5", "--a", "0.5", "--x", "40",
              "--sign", "minus"], "w_minus"),
    "expand": (["expand", "--lambda", "1.5", "--a", "0.5", "--x", "40",
                "--sign", "minus", "--order", "3"], "expand_minus_auto"),
    "saddles": (["saddles", "--lambda", "1.5", "--a", "0.5",
                 "--sign", "minus"], "contour"),
    "table": (["table", "t1"], "compute_table"),
}


@pytest.mark.parametrize("error,code", [
    (PrecisionLoss(0), 3),
    (WrongRegime("wrong regime"), 4),
    (NoRealSaddle("no real saddle"), 4),
    (OnStokesBoundary("on a boundary"), 4),
    (DegenerateSaddle("degenerate"), 4),
    (NoBoundary("no boundary"), 4),
    (DomainError("out of domain"), 2),
    (ConvergenceFailure("not located"), 1),
    (NoConvergence("not settled"), 1),
    (StepFailure("stalled"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_maps_each_package_error_to_its_exit_code(
        runner, monkeypatch, command, error, code):
    argv, callee = _COMMANDS[command]

    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, raising)
    res = _run(runner, *argv)
    assert res.exit_code == code
    assert res.output == f"error: {error}\n"


# -- run-time dependencies --------------------------------------------------

_EVERY_ROUTE_AND_TABLE = """
import sys
import wrightasym.cli
from wrightasym import expansions as ex, oracle
from wrightasym.core import ScaledArgs, Sign
from wrightasym.reference import TableSpec
from wrightasym.saddles import double_saddle_curve
from wrightasym.tables import compute_table

fixed = ex.TruncationPolicy.fixed(2)
for lam, a, sign, route in (
        (1.0, 1.5, Sign.MINUS, "real-saddle"),
        (2.0, 0.6, Sign.MINUS, "conjugate-pair"),
        (2.0, double_saddle_curve(2.0), Sign.MINUS, "double-saddle"),
        (3.0, 0.2, Sign.PLUS, "chain")):
    expand = ex.expand_minus_auto if sign is Sign.MINUS else ex.expand_plus
    assert expand(ScaledArgs(lam, a, 25.0, sign), fixed).route == route
oracle.w_minus(ScaledArgs(1.0, 1.5, 24.0, Sign.MINUS))
oracle.w_plus(ScaledArgs(1.0, 1.5, 24.0, Sign.PLUS))
for spec in TableSpec:
    compute_table(spec)
print(sorted({"scipy", "numpy", "click"} & set(sys.modules)))
"""


def test_no_route_or_table_imports_scipy_or_numpy():
    # a lazy import would put its cost inside a timed operation; click is
    # no dependency at all
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _EVERY_ROUTE_AND_TABLE],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
