"""One fresh interpreter that sets up the package and runs one batch.

Reads a job (JSON) on stdin, imports wrightasym from the checkout's src/,
makes one warm-up call per route, prints a "ready" line, then (unless the
job is set-up only) runs the operations one after another and prints one
result line.  run.py owns the inputs, the reference values and the checks;
this process only calls the package and times it.  A machine-speed
yardstick is sampled during the set-up and during the batch, so run.py can
scale both to a fixed machine speed.

    job = {"root": ..., "warmups": [op, ...], "ops": [op, ...],
           "seconds": float, "trace": bool, "setup_only": bool,
           "spans_out": path or null}
    op  = {"route": "oracle" | "expand", "lam", "a", "x", "sign", "k"}
        | {"route": "table", "name": "t1" | ... | "fig4"}
"""

from __future__ import annotations

import contextlib
import gc
import json
import marshal
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# imported before the timed set-up: the yardstick needs it from the start
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

SPEED_MARGIN_S = 0.1


def _load(root: str) -> None:
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import wrightasym.cli  # noqa: F401  (pulls in every layer, scipy, click)
    import wrightasym
    if Path(wrightasym.__file__).resolve().parent.parent != src:
        raise ImportError(f"wrightasym imported from {wrightasym.__file__}, "
                          f"not from {src}")


def _call(op: dict):
    """Run one operation; returns the raw result.  Functions are looked up
    at call time so traced runs go through the wrappers."""
    import wrightasym.expansions as ex
    import wrightasym.oracle as oracle
    import wrightasym.tables as tables
    from wrightasym.core import ScaledArgs, Sign

    if op["route"] == "table":
        return getattr(tables, f"compute_{op['name']}")()
    minus = op["sign"] == "minus"
    args = ScaledArgs(op["lam"], op["a"], op["x"],
                      Sign.MINUS if minus else Sign.PLUS)
    if op["route"] == "oracle":
        return (oracle.w_minus if minus else oracle.w_plus)(args)
    policy = (ex.TruncationPolicy.optimal() if op["k"] is None
              else ex.TruncationPolicy.fixed(op["k"]))
    return (ex.expand_minus_auto if minus else ex.expand_plus)(args, policy)


def _summary(op: dict, result) -> dict:
    """What run.py needs to check one result, in plain JSON."""
    if op["route"] == "table":
        return {"cells": [[c.computed, c.target, c.ok] for c in result.cells],
                "passed": result.passed}
    out = {"value": repr(float(result.value))}
    if op["route"] == "oracle":
        out["low_precision"] = bool(result.low_precision)
    return out


def _yardstick():
    """A fixed piece of mpmath's own low-level arithmetic, the kind the
    package spends its time in.  The libmp functions are pure (no context,
    no caches), so this may run inside a signal handler in the middle of an
    operation."""
    a = mpf_div(from_int(1), from_int(3), 200, round_nearest)
    b = mpf_div(from_int(2), from_int(7), 200, round_nearest)
    s = a
    for _ in range(60):
        s = mpf_add(mpf_mul(s, b, 200, round_nearest), a, 200, round_nearest)
    return s


# Module source for the set-up yardstick: a few classes and functions, the
# kind of module body an import runs.
_MODULE_SRC = """
class A:
    x = 1
    y = "two"
    def f(self, a, b=2):
        return a + b
    def g(self):
        return [i * i for i in range(10)]
    @property
    def p(self):
        return self.x
def h(*args, **kw):
    return args, kw
def k(a, b, c=None, *, d=1):
    if c is None:
        c = a
    return a * b + c + d
D = {str(i): i for i in range(40)}
T = tuple(range(30))
N = sum(len(s) for s in D)
""" * 3
_MODULE_CODE = marshal.dumps(compile(_MODULE_SRC, "<yardstick>", "exec"))


def _import_yardstick():
    """What an import does, in small and fixed: unmarshal a code object and
    run a module body.  The set-up is such work, and this yardstick tracks
    its speed better than the arithmetic one: over 24 fresh processes it
    cut the set-up's spread from 0.11-0.17 to 0.05-0.07, where the
    arithmetic yardstick only reached 0.10-0.13."""
    exec(marshal.loads(_MODULE_CODE), {"__name__": "yardstick"})


class SpeedSampler:
    """Times a yardstick every PERIOD_S of wall time, from SIGALRM, while
    the set-up or the batch runs.  A shared machine's speed can drift by
    20-40% over a few seconds; sampling during each operation lets run.py
    scale its time to a fixed machine speed.  Sample times are taken off
    the work they interrupt."""

    PERIOD_S = 0.005

    def __init__(self, yardstick=_yardstick) -> None:
        self.yardstick = yardstick
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        # a collection falling due inside the yardstick is the interrupted
        # work's, not a sign of machine speed: hold it off
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.yardstick()
        t1 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        self.samples.append((t0, t1 - t0))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, t0: float, t1: float) -> float:
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0: float, t1: float, margin: float,
              average=statistics.fmean) -> float:
        """Average yardstick time over [t0 - margin, t1 + margin]."""
        return average(d for s, d in self.samples
                       if t0 - margin <= s < t1 + margin)


def _run_op(op: dict) -> dict:
    t0 = time.perf_counter()
    try:
        result = _call(op)
    except Exception as exc:  # recorded per operation, judged by run.py
        t = time.perf_counter() - t0
        return {"t": t, "error": type(exc).__name__,
                "typed": type(exc).__module__.startswith("wrightasym")}
    t = time.perf_counter() - t0
    return {"t": t, **_summary(op, result)}


def _setup(job: dict) -> dict:
    """Import the package and make the warm-up calls, with the import
    yardstick sampled throughout; times have the sampling taken off.  The
    speed is the median sample: the import's own work makes a few samples
    slow, and the mean let them through (spread 0.13-0.22)."""
    with SpeedSampler(_import_yardstick) as sampler:
        t0 = time.perf_counter()
        _load(job["root"])
        t1 = time.perf_counter()
        for op in job["warmups"]:
            _call(op)
        t2 = time.perf_counter()
    return {"ready": True,
            "import_s": t1 - t0 - sampler.spent(t0, t1),
            "first_call_s": t2 - t1 - sampler.spent(t1, t2),
            "yard": sampler.speed(t0, t2, 0.0, statistics.median)}


def main() -> int:
    job = json.loads(sys.stdin.read())
    print(json.dumps(_setup(job)), flush=True)
    if job["setup_only"]:
        return 0

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        run = tracer.wrap("op", "op", _run_op)
    else:
        run = _run_op
    results, windows = [], []
    sampler = SpeedSampler() if tracer is None else None
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        time.sleep(SPEED_MARGIN_S)
        for i, op in enumerate(job["ops"]):
            if time.perf_counter() - start >= job["seconds"]:
                break
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            results.append(run(op))
            windows.append((t0, time.perf_counter()))
        time.sleep(SPEED_MARGIN_S)
    if sampler is not None:
        for r, (t0, t1) in zip(results, windows):
            r["t"] -= sampler.spent(t0, t1)
            r["yard"] = sampler.speed(t0, t1, SPEED_MARGIN_S)
    batch_s = time.perf_counter() - start
    out = {"ops": results, "batch_s": batch_s,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if job.get("spans_out"):
            with open(job["spans_out"], "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
