"""Recomputation of the reference tables and the comparison bookkeeping.

Each compute_* function reruns the full pipeline (oracle plus expansion)
for one table and returns a TableReport of per-cell checks: computed
value, the tabulated figure, the check target (which differs from the
tabulated figure only on adjudicated cells, see reference.CORRECTIONS),
and the tolerance.  The CLI renders these; the test suite asserts on
them.  Relative errors are always normalized by the expansion value,
err = |V - W| / |V|, matching the tabulated convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
from scipy.optimize import minimize_scalar

from .core import ScaledArgs, Sign
from .oracle import PrecisionConfig, mp_scaled_value
from .coeffs import derivative_table, reverse_series_simple
from .expansions import (
    TruncationPolicy,
    expand_minus_complex,
    expand_minus_double,
    expand_minus_real,
    expand_plus,
)
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
    check_target,
)
from .saddles import (
    NoBoundary,
    ConvergenceFailure,
    Phase,
    count_contributory_pairs,
    double_saddle_curve,
    solve_complex_pair,
    solve_real_saddle,
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


def _rel_err(expansion_mp, oracle_mp) -> float:
    with mp.workdps(50):
        return float(abs(expansion_mp - oracle_mp) / abs(expansion_mp))


def compute_t1(precision: int = 60) -> TableReport:
    """Real-saddle route: saddle location, A_1..A_5, error decay at x=40
    for the three tabulated (lam, a) pairs."""
    prec = PrecisionConfig(decimal_digits=precision)
    x = X_DEFAULT_ERROR_TABLES
    cells: list[CellCheck] = []
    for case in T1_CASES:
        row = f"lam={case.lam:g} a={case.a:g}"
        phase = Phase(case.lam, case.a, Sign.MINUS)
        solved = solve_real_saddle(phase)
        saddle = solved[-1] if isinstance(solved, tuple) else solved
        cells.append(CellCheck(row, "u0", saddle.location.real,
                               case.u0, case.u0, _DECIMALS8, False))
        table = derivative_table(saddle, phase, 14)
        series = reverse_series_simple(table, 5)
        for k in range(1, 6):
            ak = series.coefficients[k].real
            pk = case.coeffs[k - 1]
            # one unit in the last printed place (6-decimal mantissas)
            cells.append(CellCheck(row, f"A_{k}", ak, pk, pk,
                                   1.0001 * case.coeff_ulps[k - 1], False))
        args = ScaledArgs(case.lam, case.a, x, Sign.MINUS)
        w_ref = mp_scaled_value(args, prec)
        for k in range(6):
            res = expand_minus_real(args, TruncationPolicy.fixed(k))
            err = _rel_err(res.mp_value, w_ref)
            pe = case.errors[k]
            cells.append(CellCheck(row, f"err k={k}", err, pe, pe,
                                   _ERRTOL, True))
    return TableReport(TableSpec.T1, cells)


def compute_t2(precision: int = 60) -> TableReport:
    """Conjugate-pair route at (1.5, 0.5): saddle, complex A_1..A_5,
    error decay at x=40."""
    prec = PrecisionConfig(decimal_digits=precision)
    case = T2_CASE
    x = X_DEFAULT_ERROR_TABLES
    row = f"lam={case.lam:g} a={case.a:g}"
    cells: list[CellCheck] = []
    phase = Phase(case.lam, case.a, Sign.MINUS)
    saddle = solve_complex_pair(phase)
    cells.append(CellCheck(row, "Re u0", saddle.location.real,
                           case.saddle.real, case.saddle.real,
                           _DECIMALS8, False))
    cells.append(CellCheck(row, "Im u0", saddle.location.imag,
                           case.saddle.imag, case.saddle.imag,
                           _DECIMALS8, False))
    table = derivative_table(saddle, phase, 14)
    series = reverse_series_simple(table, 5)
    for k in range(1, 6):
        ak = series.coefficients[k]
        pk = case.coeffs[k - 1]
        # one unit in the 8th printed decimal; the table truncates some
        # round-half digits rather than rounding them
        cells.append(CellCheck(row, f"Re A_{k}", ak.real, pk.real, pk.real,
                               1.0001e-8, False))
        cells.append(CellCheck(row, f"Im A_{k}", ak.imag, pk.imag, pk.imag,
                               1.0001e-8, False))
    args = ScaledArgs(case.lam, case.a, x, Sign.MINUS)
    w_ref = mp_scaled_value(args, prec)
    for k in range(6):
        res = expand_minus_complex(args, TruncationPolicy.fixed(k))
        err = _rel_err(res.mp_value, w_ref)
        pe = case.errors[k]
        cells.append(CellCheck(row, f"err k={k}", err, pe, pe,
                               _ERRTOL, True))
    return TableReport(TableSpec.T2, cells)


def compute_t3(precision: int = 60) -> TableReport:
    """Double-saddle route on the coalescence curve, x=40, truncations
    k in {0,1,3,4,6}; at lam=1 the k=0,1,3 partial sums coincide because
    B_1 = B_3 = 0 there (and the k=2 term is structurally zero)."""
    prec = PrecisionConfig(decimal_digits=precision)
    x = X_DEFAULT_ERROR_TABLES
    cells: list[CellCheck] = []
    for lam in sorted(T3_ERRORS):
        row = f"lam={lam:g}"
        a = double_saddle_curve(lam)
        args = ScaledArgs(lam, a, x, Sign.MINUS)
        w_ref = mp_scaled_value(args, prec)
        errs: dict[int, float] = {}
        for k in T3_COLUMNS:
            res = expand_minus_double(lam, x, TruncationPolicy.fixed(k))
            err = _rel_err(res.mp_value, w_ref)
            errs[k] = err
            printed = T3_ERRORS[lam][k]
            key = ("t3", lam, k)
            corr = CORRECTIONS.get(key)
            cells.append(CellCheck(
                row, f"err k={k}", err, printed,
                check_target(key, printed), _ERRTOL, True,
                note=corr.note if corr else None))
        if lam == 1.0:
            for k in (1, 3):
                cells.append(CellCheck(
                    row, f"err k={k} == err k=0", errs[k], errs[0],
                    errs[0], 1e-10, True))
    return TableReport(TableSpec.T3, cells)


def compute_t4(precision: int = 60) -> TableReport:
    """Plus-phase mixed truncation at x=20: I_0 cut at the row k,
    subsidiary pairs at their own optimal cut, subdominant final pair
    neglected; plus the contributory-pair count itself."""
    prec = PrecisionConfig(decimal_digits=precision)
    x = X_DEFAULT_CHAIN_TABLE
    cells: list[CellCheck] = []
    for trow in T4_ROWS:
        row = f"lam={trow.lam:g} a={trow.a:g}"
        region = count_contributory_pairs(trow.lam, trow.a)
        cells.append(CellCheck(row, "N", float(region.n_pairs),
                               float(trow.n_pairs), float(trow.n_pairs),
                               0.5, False))
        args = ScaledArgs(trow.lam, trow.a, x, Sign.PLUS)
        w_ref = mp_scaled_value(args, prec)
        for k in range(6):
            res = expand_plus(args, TruncationPolicy.fixed(k), max_order=34)
            err = _rel_err(res.mp_value, w_ref)
            printed = trow.errors[k]
            key = ("t4", trow.lam, k)
            corr = CORRECTIONS.get(key)
            cells.append(CellCheck(
                row, f"err k={k}", err, printed,
                check_target(key, printed), _CHAIN_ERRTOL, True,
                note=corr.note if corr else None))
    return TableReport(TableSpec.T4, cells)


def compute_t5(precision: int = 60) -> TableReport:
    """Difference measurements: oracle W to 7 figures, Delta W = W - I_0
    (optimal truncation) and the first-pair value I_1, both to 3 figures.

    Delta W is formed at extended precision: at x=40 the leading twelve
    digits of W and I_0 cancel."""
    prec = PrecisionConfig(decimal_digits=max(precision, _DIFF_DPS))
    cells: list[CellCheck] = []
    for trow in T5_ROWS:
        row = f"lam={trow.lam:g} x={trow.x:g}"
        args = ScaledArgs(trow.lam, trow.a, trow.x, Sign.PLUS)
        w_ref = mp_scaled_value(args, prec)
        res = expand_plus(args, TruncationPolicy.optimal())
        with mp.workdps(_DIFF_DPS):
            delta_w = float(w_ref - res.mp_components[0])
            i1 = float(res.mp_components[1])
            w = float(w_ref)
        for label, computed, printed in (("W", w, trow.w),
                                         ("Delta W", delta_w, trow.delta_w),
                                         ("I_1", i1, trow.i1)):
            key = ("t5", trow.lam, trow.x,
                   {"W": "w", "Delta W": "delta_w", "I_1": "i1"}[label])
            corr = CORRECTIONS.get(key)
            tol = _SIG7 if label == "W" else _SIG3
            cells.append(CellCheck(
                row, label, computed, printed,
                check_target(key, printed), tol, True,
                note=corr.note if corr else None))
    return TableReport(TableSpec.T5, cells)


def compute_fig2(n_points: int = 241) -> TableReport:
    """Coalescence-curve sweep a*(lam) with its maximum pinned."""
    lo, hi = 0.02, 50.0
    rows = []
    for i in range(n_points):
        lam = lo * (hi / lo) ** (i / (n_points - 1.0))
        rows.append((lam, double_saddle_curve(lam)))
    opt = minimize_scalar(lambda t: -double_saddle_curve(t),
                          bounds=(1.0, 4.0), method="bounded",
                          options={"xatol": 1e-12})
    lam_max = float(opt.x)
    a_max = double_saddle_curve(lam_max)
    cells = [
        CellCheck("curve max", "lam", lam_max, CURVE_MAX_LAM,
                  CURVE_MAX_LAM, 1e-4, False),
        CellCheck("curve max", "a", a_max, CURVE_MAX_A,
                  CURVE_MAX_A, 1e-4, False),
    ]
    return TableReport(TableSpec.FIG2_CURVE, cells,
                       sweep_columns=("lam", "a"), sweep_rows=rows)


def compute_fig4(lam_step: float = 0.5) -> TableReport:
    """Contour-change boundary sweep a_j(lam) for the first two chain
    pairs, with the first-pair crossing at lam=2 pinned."""
    rows = []
    for pair in (1, 2):
        lam = 1.0
        while lam <= 8.0 + 1e-9:
            try:
                rows.append((float(pair), lam, stokes_boundary(lam, pair)))
            except (NoBoundary, ConvergenceFailure):
                pass
            lam += lam_step
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
    TableSpec.FIG2_CURVE: lambda precision: compute_fig2(),
    TableSpec.FIG4_CURVES: lambda precision: compute_fig4(),
}


def compute_table(spec: TableSpec, precision: int = 60) -> TableReport:
    return _COMPUTE[spec](precision)
