"""Recomputation of the reference tables and the comparison bookkeeping.

Each compute_* function reruns the full pipeline (oracle plus expansion)
for one table and returns a TableReport of per-cell checks: computed
value, the tabulated figure, the check target (which differs from the
tabulated figure only on adjudicated cells, see reference.CORRECTIONS),
and the tolerance.  T1 (a real saddle) and T2 (a conjugate pair) are
one study of the simple-saddle route and share one reproduction; a
complex figure of T2 is checked as its real and imaginary parts.  The
CLI renders these; the test suite asserts on them.  The oracle runs at
its default precision, 60 digits.  Relative errors are always
normalized by the expansion value, err = |V - W| / |V|, matching the
tabulated convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

from .core import ScaledArgs, Sign
from .oracle import w_minus, w_plus
from .expansions import _PREC_DPS, TruncationPolicy, expand_minus_auto, \
    expand_plus
from .reference import (
    CORRECTIONS,
    CURVE_MAX_A,
    CURVE_MAX_LAM,
    STOKES_PAIR1_AT_LAM2,
    T1_CASES,
    T2_CASE,
    T3_COLUMNS,
    T3_ERRORS,
    T4_ROWS,
    T5_ROWS,
    TableSpec,
    X_DEFAULT_CHAIN_TABLE,
    X_DEFAULT_ERROR_TABLES,
)
from .saddles import (
    NoBoundary,
    ConvergenceFailure,
    double_saddle_curve,
    newton_root,
    stokes_boundary,
)

_ERRTOL = 1e-2
_CHAIN_ERRTOL = 2e-2
_SIG3 = 5e-3
_SIG7 = 5e-7
_DIFF_DPS = 60


@dataclass(frozen=True)
class CellCheck:
    """One compared quantity.  deviation is |computed - target|, divided
    by |target| when the comparison is relative."""

    row: str
    label: str
    computed: float
    printed: float
    target: float
    tol: float
    relative: bool
    note: str | None = None

    @property
    def deviation(self) -> float:
        d = abs(self.computed - self.target)
        if self.relative:
            return d / abs(self.target) if self.target != 0 else math.inf
        return d

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tol

    @property
    def strain(self) -> float:
        """Deviation as a fraction of tolerance; > 1 means failing."""
        return self.deviation / self.tol if self.tol > 0 else math.inf


@dataclass(frozen=True)
class TableReport:
    spec: TableSpec
    cells: list[CellCheck] = field(default_factory=list)
    sweep_columns: tuple[str, ...] | None = None
    sweep_rows: list[tuple] | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def worst(self) -> CellCheck | None:
        return max(self.cells, key=lambda c: c.strain) if self.cells else None


_DECIMALS8 = 5.001e-9  # half an ulp of an 8-decimal-place figure


def _cell(row: str, label: str, computed: float, printed: float,
          tol: float, key: tuple) -> CellCheck:
    """A relative check against the tabulated figure, or against its
    adjudicated figure where reference.CORRECTIONS has one for key."""
    corr = CORRECTIONS.get(key)
    return CellCheck(row, label, computed, printed,
                     printed if corr is None else corr.value, tol, True,
                     note=corr.note if corr else None)


def relative_error(v, w_ref) -> float:
    """err = |V - W| / |V| of an expansion value v against the oracle's
    w_ref, formed at the expansions' working precision."""
    with mp.workdps(_PREC_DPS):
        return float(abs(v - w_ref) / abs(v))


def _error_cells(row: str, res, w_ref, printed, tol: float,
                 key: tuple) -> list[CellCheck]:
    """One "err k" cell per (k, tabulated error) in printed: the relative
    error of the result's partial sum k against the reference w_ref;
    key + (k,) names its correction."""
    return [_cell(row, f"err k={k}",
                  relative_error(res.mp_partial_sums[k], w_ref), pe, tol,
                  key + (k,))
            for k, pe in printed]


def _simple_saddle_table(spec: TableSpec, cases) -> TableReport:
    """Simple-saddle route at x=40, per tabulated (lam, a) case: the
    saddle to 8 decimals, A_1..A_5 to one unit in the last printed place
    and the error decay of the fixed-k series.  A complex figure is
    checked as its "Re" and "Im" parts."""
    x = X_DEFAULT_ERROR_TABLES
    cells: list[CellCheck] = []
    for case in cases:
        row = f"lam={case.lam:g} a={case.a:g}"
        args = ScaledArgs(case.lam, case.a, x, Sign.MINUS)
        res = expand_minus_auto(args, TruncationPolicy.fixed(5))
        figures = [("u0", res.series[0].location, case.u0, _DECIMALS8)]
        figures += [(f"A_{k}", res.coefficients[k], case.coeffs[k - 1],
                     1.0001 * case.coeff_ulps[k - 1]) for k in range(1, 6)]
        for label, computed, printed, tol in figures:
            computed = complex(computed)
            parts = ([(f"Re {label}", computed.real, printed.real),
                      (f"Im {label}", computed.imag, printed.imag)]
                     if isinstance(printed, complex)
                     else [(label, computed.real, printed)])
            cells += [CellCheck(row, lb, c, p, p, tol, False)
                      for lb, c, p in parts]
        cells += _error_cells(row, res, w_minus(args).mp_value,
                              enumerate(case.errors), _ERRTOL,
                              (spec.value, case.lam))
    return TableReport(spec, cells)


def compute_t1() -> TableReport:
    """Real-saddle route at the three tabulated (lam, a) pairs."""
    return _simple_saddle_table(TableSpec.T1, T1_CASES)


def compute_t2() -> TableReport:
    """Conjugate-pair route at (1.5, 0.5): complex saddle and A_k."""
    return _simple_saddle_table(TableSpec.T2, (T2_CASE,))


def compute_t3() -> TableReport:
    """Double-saddle route on the coalescence curve, x=40, truncations
    k in {0,1,3,4,6}; at lam=1 the k=0,1,3 partial sums coincide because
    B_1 = B_3 = 0 there (and the k=2 term is structurally zero)."""
    x = X_DEFAULT_ERROR_TABLES
    cells: list[CellCheck] = []
    for lam in sorted(T3_ERRORS):
        row = f"lam={lam:g}"
        a = double_saddle_curve(lam)
        args = ScaledArgs(lam, a, x, Sign.MINUS)
        w_ref = w_minus(args).mp_value
        res = expand_minus_auto(args, TruncationPolicy.fixed(max(T3_COLUMNS)))
        errs = dict(zip(T3_COLUMNS, _error_cells(
            row, res, w_ref, ((k, T3_ERRORS[lam][k]) for k in T3_COLUMNS),
            _ERRTOL, ("t3", lam))))
        cells += errs.values()
        if lam == 1.0:
            e0 = errs[0].computed
            for k in (1, 3):
                cells.append(CellCheck(
                    row, f"err k={k} == err k=0", errs[k].computed, e0,
                    e0, 1e-10, True))
    return TableReport(TableSpec.T3, cells)


def compute_t4() -> TableReport:
    """Plus-phase mixed truncation at x=20: I_0 cut at the row k,
    subsidiary pairs at their own optimal cut, subdominant final pair
    neglected (and so never built); plus the contributory-pair count
    itself, N, the pairs the expansion's contour listed."""
    x = X_DEFAULT_CHAIN_TABLE
    cells: list[CellCheck] = []
    for trow in T4_ROWS:
        row = f"lam={trow.lam:g} a={trow.a:g}"
        args = ScaledArgs(trow.lam, trow.a, x, Sign.PLUS)
        res = expand_plus(args, TruncationPolicy.fixed(5), max_order=34)
        n_pairs = len(res.mp_summands) - 1
        cells.append(CellCheck(row, "N", float(n_pairs), float(trow.n_pairs),
                               float(trow.n_pairs), 0.5, False))
        cells += _error_cells(row, res, w_plus(args).mp_value,
                              enumerate(trow.errors), _CHAIN_ERRTOL,
                              ("t4", trow.lam))
    return TableReport(TableSpec.T4, cells)


def compute_t5() -> TableReport:
    """Difference measurements: oracle W to 7 figures, Delta W = W - I_0
    (optimal truncation) and the first-pair value I_1, both to 3 figures.

    Delta W is formed at extended precision: at x=40 the leading twelve
    digits of W and I_0 cancel."""
    cells: list[CellCheck] = []
    for trow in T5_ROWS:
        row = f"lam={trow.lam:g} x={trow.x:g}"
        args = ScaledArgs(trow.lam, trow.a, trow.x, Sign.PLUS)
        ref = w_plus(args)
        res = expand_plus(args, TruncationPolicy.optimal())
        i0, i1 = res.mp_summands[:2]
        with mp.workdps(_DIFF_DPS):
            delta_w = float(ref.mp_value - i0)
        # I_1 adds 0 to the value only where it is the subdominant pair
        # the value leaves out; only then is its series built, here
        i1 = float(i1 or res.mp_components[1])
        for label, column, computed, printed, tol in (
                ("W", "w", ref.value, trow.w, _SIG7),
                ("Delta W", "delta_w", delta_w, trow.delta_w, _SIG3),
                ("I_1", "i1", i1, trow.i1, _SIG3)):
            cells.append(_cell(row, label, computed, printed, tol,
                               ("t5", trow.lam, trow.x, column)))
    return TableReport(TableSpec.T5, cells)


def compute_fig2() -> TableReport:
    """Coalescence-curve sweep a*(lam) at 241 log-spaced points on
    [0.02, 50], with its maximum pinned.

    The maximum is where d ln a*/dlam vanishes, which reduces to
    1 + lam - 2 lam ln lam = 0: its one root on [1, 4] comes from
    newton_root on that and its derivative -1 - 2 ln lam, run until a
    step leaves lam unchanged.
    """
    lo, hi = 0.02, 50.0
    rows = []
    for i in range(241):
        lam = lo * (hi / lo) ** (i / 240.0)
        rows.append((lam, double_saddle_curve(lam)))
    lam_max = newton_root(lambda t: (1.0 + t - 2.0 * t * math.log(t),
                                     -1.0 - 2.0 * math.log(t)), 1.0, 4.0)
    a_max = double_saddle_curve(lam_max)
    cells = [
        CellCheck("curve max", "lam", lam_max, CURVE_MAX_LAM,
                  CURVE_MAX_LAM, 1e-4, False),
        CellCheck("curve max", "a", a_max, CURVE_MAX_A,
                  CURVE_MAX_A, 1e-4, False),
    ]
    return TableReport(TableSpec.FIG2_CURVE, cells,
                       sweep_columns=("lam", "a"), sweep_rows=rows)


def compute_fig4() -> TableReport:
    """Contour-change boundary sweep a_j(lam) for the first two chain
    pairs, lam = 1, 1.5, ..., 8, with the first-pair crossing at lam=2
    pinned."""
    rows = []
    for pair in (1, 2):
        for i in range(15):
            lam = 1.0 + 0.5 * i
            try:
                rows.append((float(pair), lam, stokes_boundary(lam, pair)))
            except (NoBoundary, ConvergenceFailure):
                pass
    a_cross = {(p, lam): a for p, lam, a in rows}.get((1.0, 2.0))
    if a_cross is None:  # raise what the sweep passed over there
        a_cross = stokes_boundary(2.0, 1)
    cells = [CellCheck("pair 1", "a at lam=2", a_cross,
                       STOKES_PAIR1_AT_LAM2, STOKES_PAIR1_AT_LAM2,
                       1e-3, False)]
    return TableReport(TableSpec.FIG4_CURVES, cells,
                       sweep_columns=("pair", "lam", "a"), sweep_rows=rows)


_COMPUTE = {
    TableSpec.T1: compute_t1,
    TableSpec.T2: compute_t2,
    TableSpec.T3: compute_t3,
    TableSpec.T4: compute_t4,
    TableSpec.T5: compute_t5,
    TableSpec.FIG2_CURVE: compute_fig2,
    TableSpec.FIG4_CURVES: compute_fig4,
}


def compute_table(spec: TableSpec) -> TableReport:
    return _COMPUTE[spec]()
