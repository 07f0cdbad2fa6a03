"""Spans and counts recorded from outside the package.

Every public module-level function of the measured layers is wrapped, and
each wrapped name is rebound in every wrightasym.* namespace that holds it
(expansions and tables import by name).  Classes and Phase methods are left
alone: the descent tracer calls them in its inner loop.

A span is (op, id, parent, layer, name, start, end, ok).  Spans of one
operation share the op id the runner sets before each call.  Counts are
taken where the work happens: at the layer boundary (the outermost span of
a layer) for results handed back to another layer, and on every call for
the two counts that measure repeated internal work (chain members
requested, series cut by the optimal rule).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("oracle", "saddles", "coeffs", "expansions", "tables")
COUNTS = ("oracle.terms", "oracle.low_precision", "coeffs.orders",
          "saddles.chain_members", "expansions.terms_computed",
          "expansions.terms_used", "expansions.cap_hits", "tables.cells",
          "tables.cells_failed")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.op = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn, on_result=None, on_call=None):
        """fn with a span around every call.  on_result(counts, result)
        runs when the span is a layer boundary; on_call(counts, args,
        kwargs, result) runs on every call that returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append((sid, layer))
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid,
                                     parent[0] if parent else None,
                                     layer, name, t0, t1, ok))
            if on_call is not None:
                on_call(tracer.counts, args, kwargs, result)
            if on_result is not None and (parent is None
                                          or parent[1] != layer):
                on_result(tracer.counts, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s, self_s and fail per layer, plus the counts.

        busy_s sums the boundary spans of a layer (calls into it from
        another layer); self_s sums, over all of its spans, the span's
        duration less the part its direct children cover."""
        by_id = {s[1]: s for s in self.spans}
        child_time: Counter = Counter()
        for s in self.spans:
            if s[2] is not None:
                child_time[s[2]] += s[6] - s[5]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.fail"] = 0
        for s in self.spans:
            layer = s[3]
            if layer not in LAYERS:
                continue
            dur = s[6] - s[5]
            out[f"{layer}.self_s"] += dur - child_time[s[1]]
            parent = by_id.get(s[2])
            if parent is None or parent[3] != layer:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.busy_s"] += dur
                if not s[7]:
                    out[f"{layer}.fail"] += 1
        out.update(self.counts)
        return out


def _n_coefficients(result) -> int:
    coeffs = getattr(result, "coefficients", result)
    return len(coeffs) if isinstance(coeffs, (list, tuple)) else 0


def _oracle_result(counts, result) -> None:
    if getattr(result, "low_precision", False):
        counts["oracle.low_precision"] += 1


def _coeffs_result(counts, result) -> None:
    counts["coeffs.orders"] += _n_coefficients(result)


def _expansion_result(counts, result) -> None:
    # series cut at a fixed order; optimal cuts are counted at the rule
    mode = getattr(result, "truncation_mode", None)
    if mode is not None and mode.value == "fixed":
        counts["expansions.terms_computed"] += len(result.terms)
        counts["expansions.terms_used"] += result.truncation_index + 1


def _optimal_cut(counts, args, kwargs, cut) -> None:
    n = len(args[0] if args else kwargs["magnitudes"])
    counts["expansions.terms_computed"] += n
    counts["expansions.terms_used"] += cut + 1
    if cut == n - 1:
        counts["expansions.cap_hits"] += 1


def _chain_request(counts, args, kwargs, result) -> None:
    counts["saddles.chain_members"] += (args[1] if len(args) > 1
                                        else kwargs["count"])


def _table_result(counts, result) -> None:
    cells = getattr(result, "cells", ())
    counts["tables.cells"] += len(cells)
    counts["tables.cells_failed"] += sum(not c.ok for c in cells)


_ON_RESULT = {"oracle": _oracle_result, "coeffs": _coeffs_result,
              "expansions": _expansion_result, "tables": _table_result}
_ON_CALL = {("expansions", "optimal_truncation"): _optimal_cut,
            ("saddles", "complex_saddle_chain"): _chain_request}


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "wrightasym" and not mod_name.startswith("wrightasym."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every measured layer; returns the
    wrapped names as layer.function."""
    wrapped = []
    for layer in LAYERS:
        mod = sys.modules[f"wrightasym.{layer}"]
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            _rebind(fn, tracer.wrap(layer, name, fn, _ON_RESULT.get(layer),
                                    _ON_CALL.get((layer, name))))
            wrapped.append(f"{layer}.{name}")
    # the summation loop is private; it is hooked for its term count only
    oracle = sys.modules["wrightasym.oracle"]
    sum_series = getattr(oracle, "_sum_series", None)
    if sum_series is not None:
        def counted(*args, **kwargs):
            result = sum_series(*args, **kwargs)
            tracer.counts["oracle.terms"] += result[2] + 1
            return result
        oracle._sum_series = counted
    return wrapped
