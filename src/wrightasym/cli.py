"""Command-line interface.

Four subcommands: eval (convergent series at controlled precision),
expand (steepest-descent expansion with fixed or optimal truncation),
saddles (saddle inventory, chain members, descent-path tracing), and
table (recompute a reference table and compare cell by cell).

Exit codes: 0 success, 1 a solver, path tracer or summation that did
not converge, 2 domain error or a value outside the double range,
3 precision loss (fewer than 16 significant digits survive), 4 wrong
regime or a parameter-plane boundary, 5 reference-table mismatch.  One
table (_EXIT_CODES) maps the package's errors to them for every command.

CSV outputs start with a '#' header block (command, version, precision,
parameters), use 9-significant-digit scientific notation and LF line
endings, and contain nothing run-dependent, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math

import click
import mpmath as mp

from . import __version__
from .core import DomainError, ScaledArgs, Sign
from .oracle import NoConvergence, PrecisionConfig, PrecisionLoss, \
    w_minus, w_plus
from .coeffs import DegenerateSaddle
from .expansions import TruncationPolicy, WrongRegime, expand_minus_auto, \
    expand_plus
from .reference import TableSpec
from .saddles import ConvergenceFailure, NoBoundary, NoRealSaddle, \
    OnStokesBoundary, PathBranch, Phase, SaddleKind, StepFailure, \
    chain_member, contour, double_saddle_curve, trace_descent_path
from .tables import compute_table, relative_error

EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_REGIME = 4
EXIT_TABLE = 5
# the exit code of each package error a command body may raise
_EXIT_CODES = {
    PrecisionLoss: EXIT_PRECISION,
    WrongRegime: EXIT_REGIME, NoRealSaddle: EXIT_REGIME,
    OnStokesBoundary: EXIT_REGIME, DegenerateSaddle: EXIT_REGIME,
    NoBoundary: EXIT_REGIME,
    DomainError: EXIT_DOMAIN,
    ConvergenceFailure: 1, NoConvergence: 1, StepFailure: 1,
}


def _sci(v: float) -> str:
    return f"{v:.8e}"


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _exit_codes(command):
    """command with every error _EXIT_CODES names reported and turned
    into its exit code."""
    @functools.wraps(command)
    def body(**kwargs):
        try:
            return command(**kwargs)
        except tuple(_EXIT_CODES) as e:
            _fail(next(code for cls, code in _EXIT_CODES.items()
                       if isinstance(e, cls)), str(e))
    return body


def _write_csv(path: str, header: list[str], columns: tuple[str, ...],
               rows: list) -> None:
    # rows: tuples of preformatted fields, or bare strings for '#' comments
    with open(path, "w", newline="") as f:
        for line in header:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(row + "\n" if isinstance(row, str)
                    else ",".join(row) + "\n")


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _header(subcommand: str, precision: int | None,
            params: dict) -> list[str]:
    lines = [f"wright {subcommand}", f"version {__version__}"]
    if precision is not None:
        lines.append(f"precision {precision}")
    for key, val in params.items():
        lines.append(f"{key}={val}")
    return lines


def _parse_sign(sign: str) -> Sign:
    return Sign.MINUS if sign == "minus" else Sign.PLUS


def _flushed(res) -> str | None:
    """Whether the double rounding of a result loses its finite, nonzero
    mp_value: "overflows", "underflows" or None."""
    if not math.isfinite(res.value) and mp.isfinite(res.mp_value):
        return "overflows"
    return "underflows" if res.value == 0 and res.mp_value != 0 else None


@click.group()
@click.version_option(__version__, prog_name="wright")
def main() -> None:
    """Scaled Wright functions: series evaluation, steepest-descent
    expansions, saddle geometry, reference-table checks."""


@main.command("eval")
@click.option("--lambda", "lam", type=float, required=True,
              help="Shape parameter, lambda > -1.")
@click.option("--a", type=float, required=True,
              help="Order-scaling ratio a = nu/x > 0.")
@click.option("--x", type=float, required=True, help="Argument x > 0.")
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True,
              help="Sign of the series argument.")
@click.option("--precision", type=int,
              default=PrecisionConfig().decimal_digits, show_default=True,
              help="Working decimal digits for the summation.")
@click.option("--json", "as_json", is_flag=True, help="JSON to stdout.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write a CSV record to this path.")
@_exit_codes
def cmd_eval(lam, a, x, sign, precision, as_json, out):
    """Evaluate the scaled function by its convergent series."""
    args = ScaledArgs(lam, a, x, _parse_sign(sign))
    prec = PrecisionConfig(decimal_digits=precision)
    fn = w_minus if args.sign is Sign.MINUS else w_plus
    res = fn(args, prec)
    if flushed := _flushed(res):
        _fail(EXIT_DOMAIN, f"the value {flushed} double precision")
    tag = "W-" if args.sign is Sign.MINUS else "W+"
    if as_json:
        _emit_json({
            "lam": lam, "a": a, "x": x, "sign": sign,
            "value": res.value,
            "significant_digits": res.significant_digits,
            "terms": res.truncation_index + 1,
            "last_term_magnitude": res.last_term_magnitude,
            "low_precision": res.low_precision,
        })
    else:
        click.echo(f"{tag}(lam={lam:g}, a={a:g}; x={x:g}) = {_sci(res.value)}")
        click.echo(f"terms summed: {res.truncation_index + 1}, "
                   f"surviving digits: {res.significant_digits}")
    if out:
        _write_csv(
            out,
            _header("eval", precision,
                    {"lam": lam, "a": a, "x": x, "sign": sign}),
            ("value", "significant_digits", "terms"),
            [(_sci(res.value), str(res.significant_digits),
              str(res.truncation_index + 1))],
        )
    if res.low_precision:
        click.echo(f"warning: only {res.significant_digits} digits survive "
                   f"cancellation; raise --precision", err=True)
        raise SystemExit(EXIT_PRECISION)


@main.command("expand")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--a", type=float, required=True)
@click.option("--x", type=float, required=True)
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True)
@click.option("--order", "-k", type=int, default=None,
              help="Fixed truncation index for the primary series.")
@click.option("--optimal", is_flag=True,
              help="Cut at the smallest term (default when no --order).")
@click.option("--include-subdominant", is_flag=True,
              help="Keep an exponentially subdominant final pair in the "
                   "value instead of only reporting it.")
@click.option("--precision", type=int,
              default=PrecisionConfig().decimal_digits, show_default=True,
              help="Oracle digits for the accuracy report.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes
def cmd_expand(lam, a, x, sign, order, optimal, include_subdominant,
               precision, as_json, out):
    """Steepest-descent expansion, with an accuracy report against the
    series oracle."""
    if order is not None and optimal:
        _fail(EXIT_DOMAIN, "--order and --optimal are mutually exclusive")
    trunc = (TruncationPolicy.optimal() if order is None
             else TruncationPolicy.fixed(order))
    args = ScaledArgs(lam, a, x, _parse_sign(sign))
    prec = PrecisionConfig(decimal_digits=precision)
    if args.sign is Sign.MINUS:
        res = expand_minus_auto(args, trunc)
    else:
        res = expand_plus(args, trunc,
                          include_subdominant=include_subdominant)

    if flushed := _flushed(res):
        _fail(EXIT_DOMAIN, f"the value {flushed} double precision "
                           f"(exponent x*h0 = {res.exponent:.6g})")
    rel_err = None
    oracle = w_minus if args.sign is Sign.MINUS else w_plus
    try:
        rel_err = relative_error(res.mp_value, oracle(args, prec).mp_value)
        rel_text = f"{rel_err:.3e}"
    except (PrecisionLoss, NoConvergence) as e:
        rel_text = f"not available ({e})"

    if as_json:
        _emit_json({
            "lam": lam, "a": a, "x": x, "sign": sign,
            "route": res.route,
            "value": res.value,
            "exponent": res.exponent,
            "truncation_index": res.truncation_index,
            "truncation_mode": res.truncation_mode.value,
            "components": list(res.components),
            "component_truncations": list(res.component_truncations),
            "truncation_reasons": list(res.truncation_reasons),
            "terms": [[t.real, t.imag] for t in res.terms],
            "relative_error": rel_err,
        })
    else:
        click.echo(f"route: {res.route}")
        if res.route == "double-saddle":
            click.echo(f"evaluated on the coalescence curve "
                       f"a = {double_saddle_curve(lam):.12g}")
        click.echo(f"value = {_sci(res.value)}   "
                   f"(exponent x*h0 = {res.exponent:.6f})")
        mode = res.truncation_mode.value
        reason = res.truncation_reasons[0]
        if reason != mode:
            mode = f"{mode}: {reason}"
        click.echo(f"truncation: k = {res.truncation_index} ({mode})")
        if len(res.components) > 1:
            for j, (c, kc, why) in enumerate(zip(res.components,
                                                 res.component_truncations,
                                                 res.truncation_reasons)):
                click.echo(f"  I_{j} = {_sci(c)}   (k = {kc}, {why})")
        click.echo(f"relative error vs series: {rel_text}")
    if out:
        _write_csv(
            out,
            _header("expand", precision,
                    {"lam": lam, "a": a, "x": x, "sign": sign,
                     "route": res.route,
                     "truncation_index": res.truncation_index,
                     "value": _sci(res.value),
                     "relative_error":
                         "" if rel_err is None else f"{rel_err:.3e}"}),
            ("k", "term_re", "term_im"),
            [(str(k), _sci(t.real), _sci(t.imag))
             for k, t in enumerate(res.terms)],
        )


def _saddle_row(s) -> dict:
    """One listed saddle, as --json prints it and --out writes it."""
    return {
        "index": s.index,
        "kind": s.kind.value,
        "re_u": s.location.real, "im_u": s.location.imag,
        "re_h": s.phase_value.real, "im_h": s.phase_value.imag,
        "re_h2": s.second_derivative.real,
        "im_h2": s.second_derivative.imag,
    }


def _echo_saddle(s, tag: str = "") -> None:
    loc = f"{s.location.real:.8f} {s.location.imag:+.8f}i"
    click.echo(f"  u = {loc}   h = {s.phase_value.real:+.8f} "
               f"{s.phase_value.imag:+.8f}i   [{s.kind.value}]{tag}")


@main.command("saddles")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--a", type=float, required=True)
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True)
@click.option("--chain", "chain_n", type=int, default=0,
              help="Also list the first N complex-chain pairs (plus sign).")
@click.option("--trace", is_flag=True,
              help="Trace steepest descent paths from the listed saddles.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes
def cmd_saddles(lam, a, sign, chain_n, trace, as_json, out):
    """Saddle inventory for one parameter point."""
    payload: dict = {"lam": lam, "a": a, "sign": sign}
    phase = Phase(lam, a, _parse_sign(sign))
    c = contour(lam, a, phase.sign)
    listed = [s for s in (c.off_contour, *c.saddles) if s is not None]
    if phase.sign is Sign.MINUS:
        payload["regime"] = c.regime.value
    else:
        n_pairs = len(c.saddles) - 1
        payload["n_pairs"] = n_pairs
        payload["last_pair_subdominant"] = c.last_pair_subdominant
        # the counted members are listed already; solve only the rest
        listed += [chain_member(phase, k)
                   for k in range(n_pairs + 1, chain_n + 1)]

    traces = []
    if trace:
        for s in listed:
            if s.kind is SaddleKind.REAL_DOUBLE:
                continue
            branches = ((PathBranch.UPPER_LEFT, PathBranch.UPPER_RIGHT)
                        if s.kind is SaddleKind.COMPLEX_PAIR
                        else (PathBranch.UPPER_RIGHT,))
            for br in branches:
                traces.append((s, br, trace_descent_path(phase, s, br)))

    saddle_rows = [_saddle_row(s) for s in listed]
    if as_json:
        payload["saddles"] = saddle_rows
        if trace:
            payload["traces"] = [{
                "saddle_index": s.index,
                "branch": br.value,
                "terminus": outc.terminus.value,
                "strip_index": outc.strip_index,
                "hit_index": outc.hit_index,
                "samples": len(outc.samples),
            } for s, br, outc in traces]
        _emit_json(payload)
    else:
        if "regime" in payload:
            click.echo(f"regime: {payload['regime']}")
        else:
            sub = (" (last pair subdominant)"
                   if payload.get("last_pair_subdominant") else "")
            click.echo(f"contributory pairs: N = {payload['n_pairs']}{sub}")
        for s in listed:
            _echo_saddle(s)
        for s, br, outc in traces:
            where = outc.terminus.value
            if outc.strip_index is not None:
                where += f" (strip {outc.strip_index})"
            if outc.hit_index is not None:
                where += f" (saddle {outc.hit_index})"
            click.echo(f"  path from u_{s.index} [{br.value}]: {where}")

    if out:
        if trace:
            rows = []
            header = _header("saddles trace", None,
                             {"lam": lam, "a": a, "sign": sign})
            for s, br, outc in traces:
                header.append(f"path saddle={s.index} branch={br.value} "
                              f"terminus={outc.terminus.value}")
            for s, br, outc in traces:
                rows.append(f"# saddle={s.index} branch={br.value}")
                for u in outc.samples:
                    hval = phase.h(u)
                    rows.append((_sci(u.real), _sci(u.imag),
                                 _sci(hval.real), _sci(hval.imag)))
            _write_csv(out, header, ("re_u", "im_u", "re_h", "im_h"), rows)
        else:
            _write_csv(
                out,
                _header("saddles", None,
                        {"lam": lam, "a": a, "sign": sign}),
                tuple(saddle_rows[0]),
                [tuple(_sci(v) if isinstance(v, float) else str(v)
                       for v in row.values()) for row in saddle_rows],
            )


@main.command("table")
@click.argument("spec", type=click.Choice([t.value for t in TableSpec]))
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes
def cmd_table(spec, as_json, out):
    """Recompute a reference table and compare against its pinned values.

    Exits 5 when any cell deviates beyond tolerance."""
    tspec = TableSpec(spec)
    report = compute_table(tspec)

    if as_json:
        _emit_json({
            "table": tspec.value,
            "passed": report.passed,
            "cells": [{
                "row": c.row, "label": c.label,
                "computed": c.computed, "printed": c.printed,
                "target": c.target, "deviation": c.deviation,
                "tol": c.tol, "relative": c.relative,
                "ok": c.ok, "note": c.note,
            } for c in report.cells],
            "sweep_columns": report.sweep_columns,
            "sweep": report.sweep_rows,
        })
    else:
        for c in report.cells:
            mark = "ok " if c.ok else "FAIL"
            kind = "rel" if c.relative else "abs"
            click.echo(f"[{mark}] {c.row:<22} {c.label:<18} "
                       f"computed {_sci(c.computed)}  target {_sci(c.target)}"
                       f"  dev {c.deviation:.2e} ({kind} tol {c.tol:.0e})")
            if c.note:
                click.echo(f"       note: {c.note}")
        worst = report.worst
        if worst is not None:
            click.echo(f"max deviation: {worst.deviation:.2e} at "
                       f"{worst.row} / {worst.label}")
        click.echo("PASS" if report.passed else "FAIL")

    if out:
        header = _header(f"table {tspec.value}",
                         PrecisionConfig().decimal_digits, {})
        if report.sweep_rows is not None:
            for c in report.cells:
                header.append(f"landmark {c.row} {c.label}: "
                              f"computed {_sci(c.computed)} "
                              f"target {_sci(c.target)} ok={c.ok}")
            _write_csv(out, header, report.sweep_columns,
                       [tuple(_sci(v) for v in row)
                        for row in report.sweep_rows])
        else:
            _write_csv(
                out, header,
                ("row", "label", "computed", "printed", "target",
                 "deviation", "ok"),
                [(c.row, c.label, _sci(c.computed), _sci(c.printed),
                  _sci(c.target), f"{c.deviation:.3e}",
                  "1" if c.ok else "0") for c in report.cells],
            )

    if not report.passed:
        raise SystemExit(EXIT_TABLE)


if __name__ == "__main__":
    main()
