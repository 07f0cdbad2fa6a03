"""Same outputs: a parent commit against the working tree, result by result.

    python3 tools/same_outputs.py --parent HEAD --seeds 101-110

Run from the root of a checkout.  The parent commit is exported with
`git archive` into a temporary directory.  Then one fresh interpreter per
tree imports that tree's package and, for every seed, runs the operations
perfbench's `build_ops` gives for the eval-oracle, expand-fixed and
expand-optimal workloads (the calls perfbench's runner makes).  Then it
runs w_minus/w_plus at the T1-T5 points and on a grid of lam for which
q*lam is an integer for a power of two q <= 8 (the oracle's Gamma-ratio
chain, which perfbench's random lam never reach), then wright_series at
unscaled points whose z has a mantissa of 1 or 2 bits (the oracle's
z^n/n! is renormalised after every division by n).  Last it runs the CLI,
each command as text and with `--json`: `wright table <spec>` for every
table spec; `wright eval` at the T1-T5 points, at (-0.9, 1, 100, minus),
whose cancellation is refused, at (3, 5, 800, minus) and (0.5, 2, 2000,
plus), which underflow doubles, and at (1, 0.5, 3000, plus), which
overflows them; `wright expand` with `--order 3` and with optimal truncation
at the T1-T5 points, at one point within 1e-6 of the coalescence curve
and, with `--include-subdominant`, at (6, 0.2, 40, plus); and `wright
saddles` (minus) at lam = 2 on the curve a*, 1e-9 either side of it
(inside the 1e-6 band where the minus contour is the double saddle) and
at a*(1 -+ 2e-6) (just outside it), with `--trace` at (1, 1.2) and
(1.5, 0.5), and (plus) at (6, 0.2) with `--chain 4` and at (2, 0.2)
with `--trace`.  Every command takes `--out`, so each command line runs
once more with `--out` and the bytes of the file it writes are one more
result attribute (so `saddles --trace --out` writes the traced paths).
Both trees take their inputs from this checkout's perfbench/, which is
only read.

Each result is dumped as the repr of every public, non-callable attribute,
with mpmath numbers printed to enough digits to tell any two apart; an
exception as its type and message; a CLI run as its exit code, its
output (stdout and stderr in one) and its `--out` file (None where it
wrote none).  The CLI runs in-process, as `main(argv)` with both streams
captured.  Differences are counted in three classes, and the first of
each is reported with both sides:

- outcome: a value on one side and an exception on the other, or two
  exceptions of different types;
- message: two exceptions of one type with different messages;
- attribute: one attribute of two results (a CLI run's exit code or
  output included).

Attribute differences are also listed by attribute name, with their
count and, where every differing pair of reprs parses as a number or a
tuple of numbers of one length (ints, floats, complex, mpf, mpc), the
largest relative difference |p - c| / max(|p|, |c|) over them, so a
last-bit move reads as its size.

The exit code is 1 if there is any difference.  An attribute that exists
on one side only is listed, but is not a difference.

--parent names the commit the working tree is compared with: HEAD while
the change is uncommitted, HEAD~1 once it is committed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath as mp

from bench_pairs import _export, _seeds

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import runner  # noqa: E402

WORKLOADS = ("eval-oracle", "expand-fixed", "expand-optimal")
# oracle points on the Gamma-ratio chain: every lam, x and sign, at one a
CHAIN_LAMS = (-0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0)
CHAIN_XS = (40.0, 200.0, 400.0)
CHAIN_A = 0.5
# unscaled (lam, mu, z) whose z has a mantissa of 1 or 2 bits, the first
# two with Gamma poles
UNSCALED = ((-0.5, 0.5, -3.0), (-0.5, 1.0, 2.0), (0.3, 1.0, 2.0),
            (1.7, 0.5, -1.0), (-0.55, 2.0, 0.5))
# `wright eval` points past the T1-T5 ones: a sum refused for its
# cancellation, two values under the double range and one over it
EVAL_EDGES = ((-0.9, 1.0, 100.0, "minus"), (3.0, 5.0, 800.0, "minus"),
              (0.5, 2.0, 2000.0, "plus"), (1.0, 0.5, 3000.0, "plus"))
# bits of the working precision the reprs are printed at: above every
# mantissa the package makes (50-60 digits are about 170-200 bits)
REPR_BITS = 256


def _attrs(result) -> dict[str, str]:
    out = {}
    with mp.workprec(REPR_BITS):
        for name in dir(result):
            if name.startswith("_"):
                continue
            value = getattr(result, name)
            if not callable(value):
                out[name] = repr(value)
    return out


def _table_points() -> list[tuple]:
    """(lam, a, x, sign) of every row of tables T1-T5."""
    from wrightasym import reference as ref
    from wrightasym.saddles import double_saddle_curve

    x_err, x_chain = ref.X_DEFAULT_ERROR_TABLES, ref.X_DEFAULT_CHAIN_TABLE
    points = [(c.lam, c.a, x_err, "minus")
              for c in (*ref.T1_CASES, ref.T2_CASE)]
    points += [(lam, double_saddle_curve(lam), x_err, "minus")
               for lam in sorted(ref.T3_ERRORS)]
    points += [(r.lam, r.a, x_chain, "plus") for r in ref.T4_ROWS]
    points += [(r.lam, r.a, r.x, "plus") for r in ref.T5_ROWS]
    return points


def _oracle_ops() -> list[dict]:
    """perfbench runner operations for the oracle at the T1-T5 points,
    then on the chain grid."""
    points = _table_points() + [(lam, CHAIN_A, x, sign) for lam in CHAIN_LAMS
                                for x in CHAIN_XS
                                for sign in ("minus", "plus")]
    return [{"route": "oracle", "lam": lam, "a": a, "x": x, "sign": sign}
            for lam, a, x, sign in points]


def _cli_argvs() -> list[list[str]]:
    """`wright` command lines, each as text and with --json."""
    from wrightasym.reference import TableSpec
    from wrightasym.saddles import double_saddle_curve

    curve = double_saddle_curve(2.0)
    argvs = [["table", spec.value] for spec in TableSpec]
    for lam, a, x, sign in _table_points() + list(EVAL_EDGES):
        argvs.append(["eval", "--lambda", repr(lam), "--a", repr(a),
                      "--x", repr(x), "--sign", sign])
    expand = [(lam, a, x, sign, ()) for lam, a, x, sign in _table_points()]
    expand += [(2.0, curve * (1.0 + 1e-9), 40.0, "minus", ()),
               (6.0, 0.2, 40.0, "plus", ("--include-subdominant",))]
    for lam, a, x, sign, extra in expand:
        for order in (("--order", "3"), ()):
            argvs.append(["expand", "--lambda", repr(lam), "--a", repr(a),
                          "--x", repr(x), "--sign", sign, *order, *extra])
    for a in (curve, curve - 1e-9, curve + 1e-9,
              curve * (1.0 - 2e-6), curve * (1.0 + 2e-6)):
        argvs.append(["saddles", "--lambda", "2.0", "--a", repr(a),
                      "--sign", "minus"])
    for lam, a in (("1.0", "1.2"), ("1.5", "0.5")):
        argvs.append(["saddles", "--lambda", lam, "--a", a,
                      "--sign", "minus", "--trace"])
    argvs.append(["saddles", "--lambda", "6.0", "--a", "0.2",
                  "--sign", "plus", "--chain", "4"])
    argvs.append(["saddles", "--lambda", "2.0", "--a", "0.2",
                  "--sign", "plus", "--trace"])
    return [argv + fmt for argv in argvs for fmt in ([], ["--json"])]


def _invoke(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and output (stdout and stderr in one) of one `wright`
    command line."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main(argv)
        except SystemExit as e:
            code = e.code or 0
        except Exception:  # an uncaught error, as the shell would see it
            code = 1
    return code, buf.getvalue()


def _dump(tree: Path, seeds: list[int], path: Path) -> None:
    """Run every operation on the package of `tree`; one JSON line per
    result, written to path."""
    runner._load(str(tree))
    from wrightasym.cli import main
    from wrightasym.core import WrightParams
    from wrightasym.oracle import wright_series

    with path.open("w") as fh:
        def emit(key: str, record: dict) -> None:
            fh.write(json.dumps({"key": key, **record}) + "\n")

        def call(key: str, run_op) -> None:
            try:
                result = run_op()
            except Exception as exc:
                emit(key, {"error": f"{type(exc).__name__}: {exc}"})
            else:
                emit(key, {"attrs": _attrs(result)})

        for seed in seeds:
            for workload in WORKLOADS:
                for i, op in enumerate(run.build_ops(workload, seed)[0]):
                    call(f"{workload} seed {seed} op {i} {json.dumps(op)}",
                         lambda: runner._call(op))
        for op in _oracle_ops():
            call(f"oracle {json.dumps(op)}", lambda: runner._call(op))
        for lam, mu, z in UNSCALED:
            call(f"wright_series {lam} {mu} {z}",
                 lambda: wright_series(WrightParams(lam, mu), z))
        with tempfile.TemporaryDirectory(prefix="same_outputs_out_") as tmp:
            out = Path(tmp) / "out.csv"
            for argv in _cli_argvs():
                code, output = _invoke(main, argv)
                _invoke(main, [*argv, "--out", str(out)])
                written = out.read_bytes().decode() if out.exists() else None
                out.unlink(missing_ok=True)
                emit("wright " + " ".join(argv),
                     {"attrs": {"exit_code": repr(code),
                                "output": output,
                                "out_file": repr(written)}})


CLASSES = ("outcome", "message", "attribute")


def _numbers(text: str) -> list | None:
    """The numbers a repr spells, in order, if it is a number or a tuple
    or list of numbers (ints, floats, complex, mpf('...') and
    mpc(real='...', imag='...')); None otherwise."""
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError:
        return None
    items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
    out = []
    for item in items:
        try:
            if isinstance(item, ast.Call):
                name = item.func.id if isinstance(item.func, ast.Name) else ""
                args = [ast.literal_eval(a) for a in item.args]
                kwargs = {k.arg: ast.literal_eval(k.value)
                          for k in item.keywords}
                if name not in ("mpf", "mpc"):
                    return None
                out.append(getattr(mp, name)(*args, **kwargs))
            else:
                try:
                    value = ast.literal_eval(item)
                except ValueError:
                    value = float(ast.unparse(item))  # inf, -inf, nan
                if isinstance(value, bool) or not isinstance(
                        value, (int, float, complex)):
                    return None
                out.append(mp.mpmathify(value))
        except (ValueError, TypeError, SyntaxError, AttributeError):
            return None
    return out


def _relative_move(vp: str, vc: str):
    """Largest relative difference between two reprs of numbers, or None
    where either does not parse or their lengths differ."""
    with mp.workprec(REPR_BITS):
        p, c = _numbers(vp), _numbers(vc)
        if p is None or c is None or len(p) != len(c):
            return None
        out = mp.mpf(0)
        for a, b in zip(p, c):
            if a == b or (mp.isnan(a) and mp.isnan(b)):
                continue
            if not (mp.isfinite(a) and mp.isfinite(b)):
                return mp.inf
            out = max(out, abs(a - b) / max(abs(a), abs(b)))
        return out


def _error_type(record: dict) -> str | None:
    return record["error"].split(":", 1)[0] if "error" in record else None


def _compare(parent: Path, change: Path) -> tuple[dict, set, int, dict]:
    """(differences per class, one-sided attributes, results compared,
    [count, largest relative move or None] per differing attribute name);
    the first difference of each class is printed."""
    diffs, one_sided, n = dict.fromkeys(CLASSES, 0), set(), 0
    moves: dict[str, list] = {}
    with parent.open() as fp, change.open() as fc:
        for lp, lc in zip(fp, fc, strict=True):
            p, c = json.loads(lp), json.loads(lc)
            n += 1
            if p["key"] != c["key"]:
                raise SystemExit(f"the trees ran different operations: "
                                 f"{p['key']} against {c['key']}")
            if _error_type(p) != _error_type(c):
                kind = "outcome"
                pairs = [("outcome", p.get("error", "a result"),
                          c.get("error", "a result"))]
            elif "error" in p:
                kind = "message"
                pairs = [("message", p["error"], c["error"])]
            else:
                kind = "attribute"
                pa, ca = p["attrs"], c["attrs"]
                one_sided |= {("parent", a) for a in pa.keys() - ca.keys()}
                one_sided |= {("change", a) for a in ca.keys() - pa.keys()}
                pairs = [(a, pa[a], ca[a]) for a in sorted(pa.keys()
                                                           & ca.keys())]
            for name, vp, vc in pairs:
                if vp == vc:
                    continue
                diffs[kind] += 1
                if kind == "attribute":
                    move = moves.setdefault(name, [0, mp.mpf(0)])
                    move[0] += 1
                    size = _relative_move(vp, vc) if move[1] is not None \
                        else None
                    move[1] = None if size is None else max(move[1], size)
                if diffs[kind] == 1:
                    print(f"first {kind} difference: {p['key']}\n"
                          f"  {name}:\n    parent {vp}\n    change {vc}")
    return diffs, one_sided, n, moves


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="commit to compare the working tree with")
    ap.add_argument("--seeds", default="101-110",
                    help="seeds: 101-110 or 101,103")
    ap.add_argument("--dump", nargs=2, metavar=("TREE", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    if args.dump:
        _dump(Path(args.dump[0]), seeds, Path(args.dump[1]))
        return 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        parent_root = tmp / "parent"
        parent_root.mkdir()
        commit = _export(args.parent, parent_root)
        outs = {"parent": tmp / "parent.jsonl", "change": tmp / "change.jsonl"}
        procs = [subprocess.Popen(
            [sys.executable, __file__, "--seeds", args.seeds, "--dump",
             str(tree), str(outs[side])], cwd=ROOT)
            for side, tree in (("parent", parent_root), ("change", ROOT))]
        if any([proc.wait() for proc in procs]):
            print("a dump run failed", file=sys.stderr)
            return 2
        diffs, one_sided, n, moves = _compare(outs["parent"],
                                              outs["change"])
    for side, name in sorted(one_sided):
        print(f"only on the {side} side (not compared): {name}")
    print(f"{n} results compared against {commit[:12]}: "
          f"{sum(diffs.values()) or 'no'} difference(s)")
    for kind in CLASSES:
        print(f"  {kind} changes: {diffs[kind]}")
    for name, (count, size) in sorted(moves.items()):
        how = ("not numbers" if size is None
               else f"largest relative move {mp.nstr(size, 3)}")
        print(f"    {name}: {count}, {how}")
    return 1 if any(diffs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
