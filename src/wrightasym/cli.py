"""Command-line interface.

Four subcommands: eval (convergent series at controlled precision),
expand (steepest-descent expansion with fixed or optimal truncation),
saddles (saddle inventory, chain members, descent-path tracing), and
table (recompute a reference table and compare cell by cell).  The
parser is argparse; no option may be abbreviated.

Exit codes: 0 success, 1 a solver, path tracer or summation that did
not converge, 2 a usage error, a domain error or a value outside the
double range, 3 precision loss (fewer than 16 significant digits
survive), 4 wrong regime or a parameter-plane boundary, 5 reference-table
mismatch.  One table (_EXIT_CODES) maps the package's errors to them for
every command.

CSV outputs start with a '#' header block (command, version, precision,
parameters), use 9-significant-digit scientific notation and LF line
endings, and contain nothing run-dependent, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

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


def _exit(code: int, line: str) -> None:
    # stdout first, so that one stream taking both keeps the lines in order
    sys.stdout.flush()
    print(line, file=sys.stderr)
    raise SystemExit(code)


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
    print(json.dumps(payload, indent=2, sort_keys=True))


def _header(subcommand: str, precision: int | None,
            params: dict) -> list[str]:
    lines = [f"wright {subcommand}", f"version {__version__}"]
    if precision is not None:
        lines.append(f"precision {precision}")
    for key, val in params.items():
        lines.append(f"{key}={val}")
    return lines


def _flushed(res) -> str | None:
    """Whether the double rounding of a result loses its finite, nonzero
    mp_value: "overflows", "underflows" or None."""
    if not math.isfinite(res.value) and mp.isfinite(res.mp_value):
        return "overflows"
    return "underflows" if res.value == 0 and res.mp_value != 0 else None


def cmd_eval(lam, a, x, sign, precision, as_json, out):
    """Evaluate the scaled function by its convergent series."""
    args = ScaledArgs(lam, a, x, Sign(sign))
    prec = PrecisionConfig(decimal_digits=precision)
    fn = w_minus if args.sign is Sign.MINUS else w_plus
    res = fn(args, prec)
    if flushed := _flushed(res):
        _exit(EXIT_DOMAIN, f"error: the value {flushed} double precision")
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
        print(f"{tag}(lam={lam:g}, a={a:g}; x={x:g}) = {_sci(res.value)}")
        print(f"terms summed: {res.truncation_index + 1}, "
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
        _exit(EXIT_PRECISION, f"warning: only {res.significant_digits} "
              "digits survive cancellation; raise --precision")


def cmd_expand(lam, a, x, sign, order, optimal, include_subdominant,
               precision, as_json, out):
    """Steepest-descent expansion, with an accuracy report against the
    series oracle."""
    trunc = (TruncationPolicy.optimal() if order is None
             else TruncationPolicy.fixed(order))
    args = ScaledArgs(lam, a, x, Sign(sign))
    prec = PrecisionConfig(decimal_digits=precision)
    if args.sign is Sign.MINUS:
        res = expand_minus_auto(args, trunc)
    else:
        res = expand_plus(args, trunc,
                          include_subdominant=include_subdominant)

    if flushed := _flushed(res):
        _exit(EXIT_DOMAIN, f"error: the value {flushed} double precision "
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
        print(f"route: {res.route}")
        if res.route == "double-saddle":
            print(f"evaluated on the coalescence curve "
                  f"a = {double_saddle_curve(lam):.12g}")
        print(f"value = {_sci(res.value)}   "
              f"(exponent x*h0 = {res.exponent:.6f})")
        mode = res.truncation_mode.value
        reason = res.truncation_reasons[0]
        if reason != mode:
            mode = f"{mode}: {reason}"
        print(f"truncation: k = {res.truncation_index} ({mode})")
        if len(res.components) > 1:
            for j, (c, kc, why) in enumerate(zip(res.components,
                                                 res.component_truncations,
                                                 res.truncation_reasons)):
                print(f"  I_{j} = {_sci(c)}   (k = {kc}, {why})")
        print(f"relative error vs series: {rel_text}")
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


def cmd_saddles(lam, a, sign, chain_n, trace, as_json, out):
    """Saddle inventory for one parameter point."""
    payload: dict = {"lam": lam, "a": a, "sign": sign}
    phase = Phase(lam, a, Sign(sign))
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
                "samples": len(outc.samples),
            } for s, br, outc in traces]
        _emit_json(payload)
    else:
        if "regime" in payload:
            print(f"regime: {payload['regime']}")
        else:
            sub = (" (last pair subdominant)"
                   if payload.get("last_pair_subdominant") else "")
            print(f"contributory pairs: N = {payload['n_pairs']}{sub}")
        for s in listed:
            print(f"  u = {s.location.real:.8f} {s.location.imag:+.8f}i   "
                  f"h = {s.phase_value.real:+.8f} {s.phase_value.imag:+.8f}i"
                  f"   [{s.kind.value}]")
        for s, br, outc in traces:
            where = outc.terminus.value
            if outc.strip_index is not None:
                where += f" (strip {outc.strip_index})"
            print(f"  path from u_{s.index} [{br.value}]: {where}")

    if out:
        header = _header("saddles trace" if trace else "saddles", None,
                         {"lam": lam, "a": a, "sign": sign})
        if trace:
            rows = []
            for s, br, outc in traces:
                header.append(f"path saddle={s.index} branch={br.value} "
                              f"terminus={outc.terminus.value}")
                rows.append(f"# saddle={s.index} branch={br.value}")
                for u in outc.samples:
                    hval = phase.h(u)
                    rows.append((_sci(u.real), _sci(u.imag),
                                 _sci(hval.real), _sci(hval.imag)))
            _write_csv(out, header, ("re_u", "im_u", "re_h", "im_h"), rows)
        else:
            _write_csv(out, header, tuple(saddle_rows[0]),
                       [tuple(_sci(v) if isinstance(v, float) else str(v)
                              for v in row.values()) for row in saddle_rows])


def cmd_table(spec, as_json, out):
    """Recompute a reference table and compare against its pinned values.

    Exits 5 when any cell deviates beyond tolerance."""
    report = compute_table(TableSpec(spec))

    if as_json:
        _emit_json({
            "table": spec,
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
            print(f"[{mark}] {c.row:<22} {c.label:<18} "
                  f"computed {_sci(c.computed)}  target {_sci(c.target)}"
                  f"  dev {c.deviation:.2e} ({kind} tol {c.tol:.0e})")
            if c.note:
                print(f"       note: {c.note}")
        worst = report.worst
        if worst is not None:
            print(f"max deviation: {worst.deviation:.2e} at "
                  f"{worst.row} / {worst.label}")
        print("PASS" if report.passed else "FAIL")

    if out:
        header = _header(f"table {spec}", PrecisionConfig().decimal_digits, {})
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


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option, and takes a negative
    number in exponent notation ("-1e-3") after an option for its value,
    as argparse does from Python 3.13 on."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _out_path(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _parser() -> argparse.ArgumentParser:
    point = _Parser(add_help=False)
    point.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="Shape parameter, lambda > -1.")
    point.add_argument("--a", type=float, required=True,
                       help="Order-scaling ratio a = nu/x > 0.")
    point.add_argument("--sign", choices=["plus", "minus"], required=True,
                       help="Sign of the series argument.")
    series = _Parser(add_help=False)
    series.add_argument("--x", type=float, required=True,
                        help="Argument x > 0.")
    series.add_argument("--precision", type=int,
                        default=PrecisionConfig().decimal_digits,
                        help="Oracle working digits (default: %(default)s).")
    output = _Parser(add_help=False)
    output.add_argument("--json", dest="as_json", action="store_true",
                        help="JSON to stdout.")
    output.add_argument("--out", type=_out_path,
                        help="Write a CSV record to this path.")

    parser = _Parser(prog="wright", description=main.__doc__)
    parser.add_argument("--version", action="version",
                        version=f"wright, version {__version__}")
    commands = parser.add_subparsers(metavar="command", required=True)

    def command(name, run, *parents):
        sub = commands.add_parser(name, parents=[*parents, output],
                                  help=run.__doc__.partition(".")[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    command("eval", cmd_eval, point, series)
    expand = command("expand", cmd_expand, point, series)
    order = expand.add_mutually_exclusive_group()
    order.add_argument("--order", "-k", type=int,
                       help="Fixed truncation index for the primary series.")
    order.add_argument("--optimal", action="store_true",
                       help="Cut at the least term (default without --order).")
    expand.add_argument("--include-subdominant", action="store_true",
                        help="Keep an exponentially subdominant final pair "
                             "in the value instead of only reporting it.")
    saddles = command("saddles", cmd_saddles, point)
    saddles.add_argument("--chain", dest="chain_n", type=int, default=0,
                         help="Also list the first N chain pairs (plus sign).")
    saddles.add_argument("--trace", action="store_true",
                         help="Trace descent paths from the listed saddles.")
    command("table", cmd_table).add_argument(
        "spec", choices=[t.value for t in TableSpec])
    return parser


def main(argv: list[str] | None = None) -> None:
    """Scaled Wright functions: series evaluation, steepest-descent
    expansions, saddle geometry, reference-table checks."""
    options = vars(_parser().parse_args(argv))
    run = options.pop("run")
    try:
        run(**options)
    except tuple(_EXIT_CODES) as e:
        _exit(next(code for cls, code in _EXIT_CODES.items()
                   if isinstance(e, cls)), f"error: {e}")


if __name__ == "__main__":
    main()
