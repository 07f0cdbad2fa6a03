"""Benchmark of the wrightasym package: one workload, one seed, one run.

    python3 perfbench/run.py --workload expand-fixed --seed 1 --seconds 35 \
        --trace 0

Run from the root of a checkout.  The package is imported from src/ of that
checkout, in fresh interpreters (runner.py): a few that only set up, then one
that sets up and runs the workload's fixed batch, closed loop, one call at a
time.  The workloads of a few multi-second calls run their batch in more
than one fresh interpreter (replicas) and take each operation's median time.
Each batch must finish within --seconds; a batch cut short by that cap is
no measurement of the fixed batch, and the run stops with exit code 2.
With --trace 1 the batch also runs traced, in one more interpreter, and the
per-layer metrics come from the traced copy.  Reference values (reference.py)
are computed afterwards, outside every timed region, for each operation
that returned a value.

Prints a few lines of text (metrics with units, the input mix, failures by
kind) and, last, one JSON object.  Exits 1 when an output check fails and 2
when the benchmark could not run at all (e.g. no package to import).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import points  # noqa: E402
from spans import COUNTS, LAYERS  # noqa: E402

SETUP_SAMPLES = 3
CHILD_LIMIT_S = 120.0
REFERENCE_WORKERS = 2
TAIL_MIN_SAMPLES = 100
# Seconds per runner yardstick at the reference speed.  Operation times are
# scaled by YARD_REF_S / (mean yardstick time sampled during and around the
# operation), which takes out the machine's drift; 0.15 ms is about the
# yardstick's median on the 2-vCPU Xeon VM the baseline was recorded on.
YARD_REF_S = 0.15e-3
# The same for the import yardstick sampled during set-up, which is scaled
# by SETUP_YARD_REF_S / (median sample): about that median on the same VM.
SETUP_YARD_REF_S = 0.185e-3
DIGITS_CAP = 20.0

# Fixed warm-up points, one per route; no generated point can equal them
# (the batch check below makes sure).
_CURVE2 = points.curve(2.0)
WARMUP = {
    "oracle-minus": {"route": "oracle", "lam": 1.0, "a": 1.5, "x": 24.0,
                     "sign": "minus", "k": None},
    "oracle-plus": {"route": "oracle", "lam": 1.0, "a": 1.5, "x": 24.0,
                    "sign": "plus", "k": None},
    "real": {"route": "expand", "lam": 1.0, "a": 1.5, "x": 25.0,
             "sign": "minus", "k": 2},
    "conjugate": {"route": "expand", "lam": 2.0, "a": 0.6, "x": 25.0,
                  "sign": "minus", "k": 2},
    "double": {"route": "expand", "lam": 2.0, "a": _CURVE2, "x": 25.0,
               "sign": "minus", "k": 2},
    "chain": {"route": "expand", "lam": -0.5, "a": 0.8, "x": 25.0,
              "sign": "plus", "k": 2},
}
_EXPAND_ROUTES = ("real", "conjugate", "double", "chain")

TABLES = ("t1", "t2", "t3", "t4", "fig2", "fig4")

# Per workload: the points of each kind, the routes to warm up, and the
# accuracy bound (relative error against the reference) an operation must
# meet.  The bounds pass the truncation error of every working route at
# these inputs (fixed k: worst 0.12, double saddle at k=0 and x near 20;
# optimal: worst 3e-6, conjugate pair at lam near 0.1) and fail the
# near-curve values (1e0 to 1e45) and oracle values that lost digits to
# cancellation.
WORKLOADS = {
    "eval-oracle": {
        "counts": {"real-neg": 72, "real": 72, "conjugate": 72, "double": 60,
                   "near-curve": 80, "chain0": 96, "chain1": 30,
                   "chain2": 30},
        "warmups": ("oracle-minus", "oracle-plus"),
        "bound": 1e-14,
        "replicas": 1,
    },
    "expand-fixed": {
        "counts": {"real-neg": 14, "real": 42, "conjugate": 42, "double": 42,
                   "near-curve": 40, "chain0": 63, "chain1": 1, "chain2": 1},
        "warmups": _EXPAND_ROUTES,
        "bound": 0.5,
        "replicas": 1,
    },
    "expand-optimal": {
        "counts": {"real": 1, "conjugate": 1, "double": 1, "near-curve": 1},
        "warmups": _EXPAND_ROUTES,
        "bound": 1e-4,
        "replicas": 2,
    },
    "tables-repro": {
        "warmups": ("oracle-minus",) + _EXPAND_ROUTES,
        "replicas": 3,
    },
}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("batch_s", "s"),
              ("latency_p50_ms", "ms"), ("ok_share", "1"),
              ("digits_p50", "digits"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run (exit 2, no result line)."""


# ---------------------------------------------------------------- inputs

def build_ops(workload: str, seed: int) -> tuple[list[dict], list]:
    """The batch as runner ops, and the generated points behind them."""
    spec = WORKLOADS[workload]
    if workload == "tables-repro":
        # fixed inputs: the seed has nothing to vary
        return [{"route": "table", "name": n} for n in TABLES], []
    pts = points.batch(seed, spec["counts"])
    seen_in_kind: dict[str, int] = {}
    ops = []
    for p in pts:
        i = seen_in_kind.get(p.kind, 0)
        seen_in_kind[p.kind] = i + 1
        if workload == "eval-oracle":
            route, k = "oracle", None
        elif workload == "expand-fixed":
            # k = 0..6 in turn within each kind, offset per kind
            route, k = "expand", (i + points.KINDS.index(p.kind)) % 7
        else:
            route, k = "expand", None
        ops.append({"route": route, **p.as_dict(), "k": k})
    keys = [(o["lam"], o["a"], o["x"], o["sign"]) for o in ops]
    keys += [(w["lam"], w["a"], w["x"], w["sign"])
             for name, w in WARMUP.items() if name in spec["warmups"]]
    if len(set(keys)) != len(keys):
        # a repeated point would be served from the package's lru caches
        raise BenchError("batch repeats a (lam, a, x, sign) point")
    return ops, pts


# ------------------------------------------------------------- processes

def run_child(root: Path, job: dict,
              deadline: float) -> tuple[dict, dict | None]:
    """Start runner.py, feed it the job, return (ready record, result
    record)."""
    limit = deadline - time.monotonic()
    if limit <= 0:
        raise BenchError("out of time before starting a run")
    proc = subprocess.Popen([sys.executable, str(HERE / "runner.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=root, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready_line = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready_line:
        raise BenchError(f"runner exited with code {code}")
    ready = json.loads(ready_line)
    rest = rest.strip()
    result = json.loads(rest.splitlines()[-1]) if rest else None
    return ready, result


def references(pts: list, deadline: float) -> list:
    """Reference values for the given points, computed by worker processes
    running reference.py, spread round-robin."""
    if not pts:
        return []
    chunks = [pts[i::REFERENCE_WORKERS] for i in range(REFERENCE_WORKERS)]
    procs = [subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) for _ in chunks]
    limit = max(deadline - time.monotonic(), 1.0)
    watchdogs = [threading.Timer(limit, proc.kill) for proc in procs]
    try:
        for proc, chunk, watchdog in zip(procs, chunks, watchdogs):
            watchdog.start()
            proc.stdin.write(json.dumps([[p.lam, p.a, p.x, p.minus]
                                         for p in chunk]))
            proc.stdin.close()
        outs = [proc.stdout.read() for proc in procs]
        codes = [proc.wait() for proc in procs]
    finally:
        for proc, watchdog in zip(procs, watchdogs):
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise BenchError("reference values failed or took too long")
    values = [None] * len(pts)
    with mp.workdps(40):
        for w, out in enumerate(outs):
            for j, v in enumerate(json.loads(out)):
                values[w + j * REFERENCE_WORKERS] = mp.mpf(v)
    return values


# ---------------------------------------------------------------- checks

def digits(value: float, ref) -> float:
    """Correct significant digits of value against ref, in [0, DIGITS_CAP]."""
    with mp.workdps(40):
        rel = abs(mp.mpf(value) - ref) / abs(ref)
        if rel == 0:
            return DIGITS_CAP
        return min(max(float(-mp.log10(rel)), 0.0), DIGITS_CAP)


def excused(workload: str, p, r: dict) -> bool:
    """Whether a failed operation is one of today's known defects.  Any
    other failure is a wrong output and fails the run: in particular an
    exception that is not one of the package's own, and a non-finite
    value."""
    if not r.get("typed", True) or (
            "value" in r and not math.isfinite(float(r["value"]))):
        return False
    if workload == "eval-oracle":
        # cancellation beyond the fixed working precision, reported
        return r.get("error") in ("PrecisionLoss", "NoConvergence") or bool(
            r.get("low_precision"))
    if p.kind == "near-curve":
        # no uniform expansion across the coalescence curve yet: a finite
        # but wrong value, or one of the package's exceptions
        return True
    # plus axis, 0 < lam < 1: the chain counter does not converge
    return (p.kind == "chain0" and 0.0 < p.lam < 1.0
            and r.get("error") == "ConvergenceFailure")


def judge_points(workload: str, pts: list, results: list, deadline: float):
    """Per-operation verdicts.  Returns (failed flags, digits, problems):
    problems are output-check failures that make the run incorrect."""
    bound = WORKLOADS[workload]["bound"]
    returned = [i for i, r in enumerate(results) if "value" in r]
    refs = dict(zip(returned, references([pts[i] for i in returned],
                                         deadline)))
    failed, digs, problems = [], [], []
    for i, r in enumerate(results):
        p = pts[i]
        if "value" in r and math.isfinite(float(r["value"])):
            d = digits(float(r["value"]), refs[i])
            bad = d < -math.log10(bound)
            what = f"is off by 10^-{d:.1f} (bound {bound:g})"
        else:
            d, bad = 0.0, True
            what = f"gave {r.get('error') or r['value']}"
        failed.append(bad)
        digs.append(d)
        if bad and not excused(workload, p, r):
            problems.append(f"{p} {what}")
    return failed, digs, problems


def judge_tables(results: list):
    failed, digs, problems = [], [], []
    for r in results:
        if "error" in r:
            failed.append(True)
            problems.append(f"table raised {r['error']}")
            continue
        failed.append(not r["passed"])
        if not r["passed"]:
            problems.append("table self-check failed")
        for computed, target, _ in r["cells"]:
            dev = abs(computed - target) / (abs(target) if target else 1.0)
            digs.append(DIGITS_CAP if dev == 0 else
                        min(max(-math.log10(dev), 0.0), DIGITS_CAP))
    return failed, digs, problems


# --------------------------------------------------------------- metrics

def p50(values: list[float]) -> float:
    """The median, estimated as the mean of the central tenth of the sorted
    values (just the median for small samples).  A latency or digit count
    drawn from a few clusters of operations can have its plain median fall
    in the gap between two of them, where one operation more on either side
    moves it a long way."""
    v = sorted(values)
    lo = math.floor(0.45 * (len(v) - 1))
    hi = math.ceil(0.55 * (len(v) - 1))
    return statistics.fmean(v[lo:hi + 1])


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples) or None for a small batch."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    i = n - 11
    return sorted(values)[i], 100.0 * (i + 1) / n, n


def outcome_key(r: dict):
    return r.get("error") or r.get("value") or json.dumps(r.get("cells"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "wrightasym" / "__init__.py").is_file():
        print(f"no package at {root / 'src' / 'wrightasym'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_LIMIT_S
    try:
        return run(root, args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


def run(root: Path, args, deadline: float) -> int:
    workload, traced = args.workload, bool(args.trace)
    ops, pts = build_ops(workload, args.seed)
    warmups = [WARMUP[name] for name in WORKLOADS[workload]["warmups"]]
    n_replicas = WORKLOADS[workload]["replicas"]
    job = {"root": str(root), "warmups": warmups, "ops": ops,
           "seconds": args.seconds, "trace": False,
           "setup_only": True, "spans_out": None}

    ready = [run_child(root, job, deadline)[0]
             for _ in range(max(SETUP_SAMPLES - n_replicas - traced, 0))]
    replicas = []
    for _ in range(n_replicas):
        r, out = run_child(root, {**job, "setup_only": False}, deadline)
        ready.append(r)
        replicas.append(out)
    batches = list(replicas)
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{workload}-{args.seed}.jsonl"
        r, out = run_child(root, {**job, "setup_only": False, "trace": True,
                                  "spans_out": str(spans_out)}, deadline)
        ready.append(r)
        batches.append(out)
    for out in batches:
        if len(out["ops"]) < len(ops):
            raise BenchError(
                f"a batch was cut by --seconds {args.seconds:g} after "
                f"{len(out['ops'])} of {len(ops)} operations")
    result = batches[-1]

    results = result["ops"]
    if workload == "tables-repro":
        failed, digs, problems = judge_tables(results)
    else:
        failed, digs, problems = judge_points(
            workload, pts, results, deadline + 45.0)
    outcomes = [outcome_key(r) for r in results]
    if any([outcome_key(r) for r in out["ops"]] != outcomes
           for out in batches):
        problems.append("runs of the same inputs returned different results")

    attempted = len(results)
    n_failed = sum(failed)
    # machine-scaled times: set-up per process, then each operation
    setup = [(r["import_s"] + r["first_call_s"]) * SETUP_YARD_REF_S
             / r["yard"] for r in ready]
    # each operation: median over replicas of its machine-scaled time
    lat_ms = [statistics.median(1e3 * out["ops"][i]["t"] * YARD_REF_S
                                / out["ops"][i]["yard"] for out in replicas)
              for i in range(len(ops))]
    e2e = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "batch_s": sum(lat_ms) / 1e3,
        "latency_p50_ms": p50(lat_ms),
        "ok_share": (attempted - n_failed) / attempted,
        "digits_p50": p50(digs),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]
                                         for out in replicas),
    }
    units = dict(END_TO_END)
    plain = replicas[0]

    print(f"workload {workload}, seed {args.seed}: {attempted} operations, "
          f"{n_failed} failed; {n_replicas} run(s) of the batch, times are "
          f"medians over them")
    if pts:
        mix = points.mix(pts)
        print("  mix: " + ", ".join(f"{k} {v:.1%}" for k, v in mix.items()))
        by_kind: dict[str, int] = {}
        for p, f in zip(pts, failed):
            if f:
                by_kind[p.kind] = by_kind.get(p.kind, 0) + 1
        print("  failed by kind: " + (", ".join(
            f"{k} {v}" for k, v in sorted(by_kind.items())) or "none"))
    for name, unit in END_TO_END:
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    raw_ms = [1e3 * r["t"] for r in plain["ops"]]
    raw_setup = statistics.median(r["import_s"] + r["first_call_s"]
                                  for r in ready)
    speed = YARD_REF_S / statistics.median(r["yard"] for r in plain["ops"])
    print(f"  unscaled: set-up {raw_setup:.6g} s, batch "
          f"{sum(raw_ms) / 1e3:.6g} s in {plain['batch_s']:.6g} s of wall "
          f"time, p50 {statistics.median(raw_ms):.6g} ms, machine at "
          f"{speed:.3f} of reference speed")
    print(f"  {'fail_share':<16} {n_failed / attempted:.6g} 1")
    t = tail(lat_ms)
    if t is None:
        print(f"  {'latency_tail_ms':<16} not reported "
              f"({attempted} samples, needs {TAIL_MIN_SAMPLES})")
    else:
        print(f"  {'latency_tail_ms':<16} {t[0]:.6g} ms (p{t[1]:.1f} of "
              f"{t[2]} samples, 10 beyond)")
    for msg in problems[:20]:
        print(f"  CHECK FAILED: {msg}")

    if traced:
        layers = dict(result["layers"])
        layers["setup.import_s"] = statistics.median(
            r["import_s"] * SETUP_YARD_REF_S / r["yard"] for r in ready)
        layers["setup.first_call_s"] = statistics.median(
            r["first_call_s"] * SETUP_YARD_REF_S / r["yard"] for r in ready)
        layers["trace.overhead_s"] = (sum(r["t"] for r in result["ops"])
                                      - sum(r["t"] for r in plain["ops"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units()}
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": units[name]}
                   for name, _ in END_TO_END}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                (f"{layer}.self_s", "s"), (f"{layer}.fail", "count")]
    out += [(name, "count") for name in COUNTS]
    out += [("setup.import_s", "s"), ("setup.first_call_s", "s"),
            ("trace.overhead_s", "s")]
    return out


if __name__ == "__main__":
    sys.exit(main())
