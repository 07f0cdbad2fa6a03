"""Asymptotic expansions: routes, truncation control, table engine."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
from collections import Counter
from itertools import accumulate

import mpmath as mp
import pytest

from closed_forms import b4
import wrightasym.coeffs as coeffs
import wrightasym.expansions as expansions
import wrightasym.saddles as saddles
import wrightasym.tables as tables
from wrightasym.core import ScaledArgs, Sign
from wrightasym.expansions import (
    TruncationMode,
    TruncationPolicy,
    WrongRegime,
    expand_minus_auto,
    expand_plus,
    optimal_truncation,
)
from wrightasym.reference import TableSpec
from wrightasym.saddles import Phase, Regime, contour, double_saddle_curve
from wrightasym.tables import compute_t1, compute_t2, compute_t3, \
    compute_t4, compute_t5, compute_table


# -- truncation choice ----------------------------------------------------

def test_optimal_truncation_global_minimum():
    assert optimal_truncation([5.0, 1.0, 0.1, 0.4, 2.0]) == 2


def test_optimal_truncation_ignores_exact_zeros():
    # structural zeros are not a tail minimum
    assert optimal_truncation([3.0, 1.0, 0.0, 0.5, 0.0, 0.2, 4.0]) == 5


def test_optimal_truncation_tie_takes_first():
    assert optimal_truncation([2.0, 1.0, 3.0, 1.0, 5.0]) == 1


def test_optimal_truncation_all_zero_rejected():
    with pytest.raises(ValueError):
        optimal_truncation([0.0, 0.0])


def test_truncation_policy_constructors():
    f = TruncationPolicy.fixed(4)
    assert f.mode is TruncationMode.FIXED and f.k == 4
    # the order cap bounds a fixed k too
    assert TruncationPolicy.fixed(40).k == 40
    with pytest.raises(ValueError, match="at most 40"):
        TruncationPolicy.fixed(41)
    o = TruncationPolicy.optimal()
    assert o.mode is TruncationMode.OPTIMAL


# -- route guards ---------------------------------------------------------

def test_routes_reject_wrong_sign():
    plus_args = ScaledArgs(1.0, 1.2, 40.0, Sign.PLUS)
    minus_args = ScaledArgs(1.0, 1.2, 40.0, Sign.MINUS)
    with pytest.raises(WrongRegime, match="^minus-phase route called with "
                                          "plus-sign arguments$"):
        expand_minus_auto(plus_args, TruncationPolicy.fixed(2))
    with pytest.raises(WrongRegime, match="^plus-phase route called with "
                                          "minus-sign arguments$"):
        expand_plus(minus_args, TruncationPolicy.fixed(2))


def test_near_curve_auto_dispatch():
    lam = 2.0
    astar = double_saddle_curve(lam)
    near = ScaledArgs(lam, astar * (1.0 + 1e-9), 40.0, Sign.MINUS)
    res = expand_minus_auto(near, TruncationPolicy.fixed(2))
    assert res.route == "double-saddle"


_REGIME_ROUTE = {Regime.TWO_REAL: "real-saddle",
                 Regime.CONJUGATE_PAIR: "conjugate-pair",
                 Regime.DOUBLE: "double-saddle"}


@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("delta", [1e-9, -1e-9, 5e-7, -5e-7,
                                   2e-6, -2e-6, 1e-3, -1e-3])
def test_route_is_the_contour_regime(lam, delta):
    # one near-curve band: the route the expansion takes is the regime the
    # contour reports, on both sides of the band's edge
    a = double_saddle_curve(lam) * (1.0 + delta)
    regime = contour(lam, a, Sign.MINUS).regime
    assert regime is (Regime.DOUBLE if abs(delta) < 1e-6
                      else Regime.TWO_REAL if delta > 0
                      else Regime.CONJUGATE_PAIR)
    res = expand_minus_auto(ScaledArgs(lam, a, 40.0, Sign.MINUS),
                            TruncationPolicy.fixed(3))
    assert res.route == _REGIME_ROUTE[regime]


def test_auto_dispatch_selects_by_regime():
    real = expand_minus_auto(ScaledArgs(1.0, 1.2, 40.0, Sign.MINUS),
                             TruncationPolicy.fixed(3))
    assert real.route == "real-saddle"
    pair = expand_minus_auto(ScaledArgs(1.5, 0.5, 40.0, Sign.MINUS),
                             TruncationPolicy.fixed(3))
    assert pair.route == "conjugate-pair"


def test_auto_dispatch_classifies_once(monkeypatch):
    calls = 0
    classify = expansions.contour

    def counted(lam, a, sign):
        nonlocal calls
        calls += 1
        return classify(lam, a, sign)

    monkeypatch.setattr(expansions, "contour", counted)
    for point in ((1.0, 1.2), (1.5, 0.5), (-0.25, 1.0)):
        calls = 0
        expand_minus_auto(ScaledArgs(*point, 40.0, Sign.MINUS),
                          TruncationPolicy.fixed(2))
        assert calls == 1, point


def test_auto_dispatch_rejects_plus_sign_on_the_curve():
    lam = 2.0
    on_curve = ScaledArgs(lam, double_saddle_curve(lam), 40.0, Sign.PLUS)
    with pytest.raises(WrongRegime):
        expand_minus_auto(on_curve, TruncationPolicy.fixed(2))


# -- structural properties ------------------------------------------------

def test_real_route_terms_are_real():
    res = expand_minus_auto(ScaledArgs(1.0, 1.2, 40.0, Sign.MINUS),
                            TruncationPolicy.fixed(5))
    assert res.route == "real-saddle"
    for t in res.terms:
        assert t.imag == 0.0


def test_double_route_every_third_term_vanishes():
    res = expand_minus_auto(
        ScaledArgs(2.0, double_saddle_curve(2.0), 40.0, Sign.MINUS),
        TruncationPolicy.fixed(8))
    assert res.route == "double-saddle"
    for k, t in enumerate(res.terms):
        if k % 3 == 2:
            assert t == 0, f"term {k} should vanish exactly"
        else:
            assert abs(t) > 0


def test_fixed_vs_optimal_bookkeeping():
    args = ScaledArgs(1.0, 1.2, 40.0, Sign.MINUS)
    fixed = expand_minus_auto(args, TruncationPolicy.fixed(2))
    assert fixed.truncation_index == 2
    assert fixed.truncation_mode is TruncationMode.FIXED
    opt = expand_minus_auto(args, TruncationPolicy.optimal())
    assert opt.truncation_mode is TruncationMode.OPTIMAL
    mags = [abs(t) for t in opt.terms]
    assert mags[opt.truncation_index] == min(m for m in mags if m > 0)


@pytest.mark.parametrize("point,route,trunc,want", [
    ((-0.25, 1.0, 40.0), expand_minus_auto, TruncationPolicy.optimal(),
     ("capped",)),
    ((1.0, 1.2, 40.0), expand_minus_auto, TruncationPolicy.optimal(),
     ("minimum",)),
    ((3.0, 0.2, 40.0), expand_plus, TruncationPolicy.fixed(3),
     ("fixed", "capped")),
], ids=["capped", "minimum", "chain-fixed"])
def test_truncation_reasons(point, route, trunc, want):
    sign = Sign.PLUS if route is expand_plus else Sign.MINUS
    res = route(ScaledArgs(*point, sign), trunc)
    assert res.truncation_reasons == want
    assert len(res.truncation_reasons) == len(res.component_truncations)
    # "capped" is the optimal cut on the last computed term
    for reason, k in zip(want, res.component_truncations):
        assert (reason == "capped") == (k == 40)


def test_plus_components_and_subdominant_exclusion():
    args = ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS)
    res = expand_plus(args, TruncationPolicy.optimal())
    assert res.route == "chain"
    assert len(res.components) == 3  # I_0, I_1 and the subdominant I_2
    # I_2 is exponentially small and reported but not added
    assert abs(res.components[2]) < 1e-3
    assert res.value == pytest.approx(res.components[0] + res.components[1],
                                      rel=1e-12)
    kept = expand_plus(args, TruncationPolicy.optimal(),
                       include_subdominant=True)
    assert kept.value == pytest.approx(sum(res.components), rel=1e-12)


@pytest.mark.parametrize("lam,n_pairs", [(3.0, 1), (6.0, 2)])
def test_cold_chain_call_solves_each_member_once(monkeypatch, lam, n_pairs):
    # the pair count solves members 1..N+1; the pair series reuse 1..N
    calls = 0
    member = saddles.chain_member

    def counted(phase, k):
        nonlocal calls
        calls += 1
        return member(phase, k)

    monkeypatch.setattr(saddles, "chain_member", counted)
    res = expand_plus(ScaledArgs(lam, 0.2, 40.0, Sign.PLUS),
                      TruncationPolicy.fixed(3))
    assert len(res.components) == n_pairs + 1
    assert calls == n_pairs + 1


def _count_engine_runs(monkeypatch) -> Counter:
    # one coefficient engine per series, whether it is run to a fixed k
    # or extended term by term
    calls = Counter()
    init = coeffs.SaddleCoeffs.__init__

    def counted(self, *args):
        calls["engine"] += 1
        init(self, *args)

    monkeypatch.setattr(coeffs.SaddleCoeffs, "__init__", counted)
    return calls


@pytest.mark.parametrize("trunc", [TruncationPolicy.fixed(3),
                                   TruncationPolicy.optimal()],
                         ids=["fixed", "optimal"])
def test_left_out_pair_is_built_on_first_read_once(monkeypatch, trunc):
    # (6, 0.2, 40): I_0 and I_1 make the value, the subdominant I_2 is
    # listed but left out, so its series waits for a read that needs it
    calls = _count_engine_runs(monkeypatch)
    res = expand_plus(ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS), trunc)
    assert calls["engine"] == 2
    assert res.mp_partial_sums[-1] == res.mp_value
    assert len(res.terms) == len(res.coefficients) > res.truncation_index
    assert calls["engine"] == 2
    assert len(res.components) == 3
    assert calls["engine"] == 3
    for name in ("series", "mp_components", "components",
                 "component_truncations", "truncation_reasons"):
        assert len(getattr(res, name)) == 3, name
    assert calls["engine"] == 3


def test_result_pickles_before_the_left_out_pair_is_built():
    # the deferred build holds no closure, so a result still crosses a
    # process boundary with its pair unbuilt
    res = expand_plus(ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS),
                      TruncationPolicy.fixed(3))
    copy = pickle.loads(pickle.dumps(res))
    assert copy == res
    assert copy.mp_components == res.mp_components


def test_t4_solves_each_contour_once(monkeypatch):
    # N is the count of pairs the expansion's own contour listed
    calls = Counter()
    for mod in (expansions, tables):
        if hasattr(mod, "contour"):
            solve = getattr(mod, "contour")

            def counted(*args, solve=solve):
                calls["contour"] += 1
                return solve(*args)

            monkeypatch.setattr(mod, "contour", counted)
    compute_t4()
    assert calls["contour"] == 3


def test_t5_builds_only_the_pairs_it_reads(monkeypatch):
    # I_0 and I_1 per row: at lam = 3 I_1 is the subdominant pair the
    # value leaves out, built for its cell; at lam = 6 that is I_2, which
    # no cell reads
    calls = _count_engine_runs(monkeypatch)
    assert compute_t5().cells
    assert calls["engine"] == 2 * 9


def test_t4_builds_no_left_out_pair(monkeypatch):
    # rows N = 0, 1, 2: I_0 in each, I_1 of the N = 2 row; both last
    # pairs are subdominant and neglected, and N comes from the contour
    calls = _count_engine_runs(monkeypatch)
    report = compute_t4()
    assert calls["engine"] == 4
    assert [c.computed for c in report.cells if c.label == "N"] \
        == [0.0, 1.0, 2.0]


def _count_polishes(monkeypatch):
    calls = Counter()
    polish = expansions.polish_saddle

    def counted(*args):
        calls["polish"] += 1
        return polish(*args)

    monkeypatch.setattr(expansions, "polish_saddle", counted)
    return calls


@pytest.mark.parametrize("compute,polishes", [(compute_t4, 4),
                                              (compute_t5, 18)],
                         ids=["t4", "t5"])
def test_tables_polish_only_the_saddles_they_build(monkeypatch, compute,
                                                   polishes):
    # a left-out pair is polished with its series, on first read: T4
    # reads neither of its two, T5 three of its six (the lam = 3 rows'
    # I_1, not the lam = 6 rows' I_2); 6 and 21 when polished at the call
    calls = _count_polishes(monkeypatch)
    engines = _count_engine_runs(monkeypatch)
    assert compute().cells
    assert calls["polish"] == engines["engine"] == polishes


def test_left_out_pair_refuses_the_read_that_builds_it(monkeypatch):
    # (6, 0.2, 40): a polish that raises at the subdominant I_2 leaves
    # the value and its partial sums, and refuses each read of I_2
    args = ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS)
    trunc = TruncationPolicy.fixed(3)
    want = expand_plus(args, trunc)
    last = contour(6.0, 0.2, Sign.PLUS).saddles[-1].location
    polish = expansions.polish_saddle

    def degenerate(phase, location):
        if location == last:
            raise coeffs.DegenerateSaddle("|h^(2)(u0)| = 0.00e+00")
        return polish(phase, location)

    monkeypatch.setattr(expansions, "polish_saddle", degenerate)
    res = expand_plus(args, trunc)
    assert res.mp_value == want.mp_value
    assert res.mp_partial_sums == want.mp_partial_sums
    assert res.mp_summands == want.mp_summands
    for name in ("components", "series", "truncation_reasons"):
        with pytest.raises(coeffs.DegenerateSaddle):
            getattr(res, name)
    with pytest.raises(coeffs.DegenerateSaddle):
        expand_plus(args, trunc, include_subdominant=True)


@pytest.mark.parametrize("dps", [15, 80])
@pytest.mark.parametrize("name", ["mp_components", "components", "series"])
def test_left_out_pair_is_built_at_the_working_precision(name, dps):
    # a first read at the caller's precision gives, bit for bit, what the
    # call builds eagerly when the pair is included in the value
    args = ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS)
    trunc = TruncationPolicy.fixed(5)
    eager = expand_plus(args, trunc, include_subdominant=True)
    res = expand_plus(args, trunc)
    with mp.workdps(dps):
        first = getattr(res, name)
    assert first == getattr(eager, name)
    assert getattr(res, name) == first


@pytest.mark.parametrize("point", [(3.0, 0.2), (6.0, 0.2), (1.0, 0.5)],
                         ids=["left-out-pair", "kept-pair", "no-pair"])
def test_max_order_is_checked_at_the_call(monkeypatch, point):
    calls = 0
    classify = expansions.contour

    def counted(lam, a, sign):
        nonlocal calls
        calls += 1
        return classify(lam, a, sign)

    monkeypatch.setattr(expansions, "contour", counted)
    args = ScaledArgs(*point, 20.0, Sign.PLUS)
    for bad, why in ((-1, "nonnegative"), (41, "at most 40")):
        with pytest.raises(ValueError, match=f"max_order must be {why}"):
            expand_plus(args, TruncationPolicy.fixed(3), max_order=bad)
    assert calls == 0
    for good in (34, 40):
        res = expand_plus(args, TruncationPolicy.fixed(3), max_order=good)
        assert all(k <= good for k in res.component_truncations)


_PARTIAL_POINTS = [
    ((1.0, 1.2, 40.0), Sign.MINUS),                       # real
    ((1.5, 0.5, 40.0), Sign.MINUS),                       # conjugate
    ((2.0, double_saddle_curve(2.0), 40.0), Sign.MINUS),  # double
    ((-0.25, 1.0, 40.0), Sign.MINUS),                     # lam < 0
    ((3.0, 0.2, 40.0), Sign.PLUS),                        # chain, N = 1
    ((6.0, 0.2, 40.0), Sign.PLUS),                        # chain, N = 2
]


@pytest.mark.parametrize("point,sign", _PARTIAL_POINTS,
                         ids=["real", "conjugate", "double", "lam<0",
                              "chain1", "chain2"])
def test_partial_sums_are_the_shorter_cuts(point, sign):
    route = expand_plus if sign is Sign.PLUS else expand_minus_auto
    args = ScaledArgs(*point, sign)
    res = route(args, TruncationPolicy.fixed(8))
    assert len(res.mp_partial_sums) == 9
    assert res.mp_value == res.mp_partial_sums[8]
    for k in range(8):
        cut = route(args, TruncationPolicy.fixed(k))
        assert res.mp_partial_sums[k] == cut.mp_value, k
        assert cut.mp_partial_sums == res.mp_partial_sums[:k + 1], k
    opt = route(args, TruncationPolicy.optimal())
    assert len(opt.mp_partial_sums) == opt.truncation_index + 1
    assert opt.value == float(opt.mp_partial_sums[-1])


def test_partial_sums_are_built_on_first_read_at_the_working_precision():
    # only the value at the cut is formed eagerly; the partial sums, read
    # at a caller's lower precision, still end on mp_value bit for bit
    res = expand_plus(ScaledArgs(6.0, 0.2, 40.0, Sign.PLUS),
                      TruncationPolicy.optimal(), include_subdominant=True)
    assert len(res.mp_components) == 3
    assert "mp_partial_sums" not in vars(res)
    with mp.workdps(15):
        sums = res.mp_partial_sums
    assert len(sums) == res.truncation_index + 1
    assert sums[-1] == res.mp_value


@pytest.mark.parametrize("trunc", [TruncationPolicy.fixed(5),
                                   TruncationPolicy.optimal()],
                         ids=["fixed", "optimal"])
@pytest.mark.parametrize("point,sign",
                         [_PARTIAL_POINTS[i] for i in (0, 1, 2, 5)],
                         ids=["real", "conjugate", "double", "chain2"])
def test_components_are_their_saddles_cut_series(point, sign, trunc):
    route = expand_plus if sign is Sign.PLUS else expand_minus_auto
    args = ScaledArgs(*point, sign)
    res = route(args, trunc)
    assert len(res.series) == len(res.mp_components) \
        == len(res.component_truncations)
    with mp.workdps(expansions._PREC_DPS):
        for s, k, c in zip(res.series, res.component_truncations,
                           res.mp_components):
            v = s.pref * mp.fsum(s.mp_terms[:k + 1])
            assert c == (2 * mp.re(v) if s.location.imag != 0 else v)
        if sign is Sign.MINUS:
            assert res.mp_value == res.mp_components[0]
            return
        # (6, 0.2) has two pairs, the last subdominant and left out
        i0, i1, i2 = res.mp_components
        assert res.mp_value == i0 + i1
        kept = route(args, trunc, include_subdominant=True)
        assert kept.mp_value == res.mp_value + i2
        assert kept.mp_value != res.mp_value


def test_error_tables_make_one_route_call_per_row(monkeypatch):
    calls = 0

    def counting(fn):
        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("expand_minus_auto", "expand_plus"):
        monkeypatch.setattr(tables, name, counting(getattr(tables, name)))
    for compute in (compute_t1, compute_t2, compute_t3, compute_t4):
        assert compute().cells
    assert calls == 10  # 3 + 1 + 3 + 3 rows


def test_t1_t2_polish_and_run_the_engine_once_per_row(monkeypatch):
    # the A_k cells are the coefficients the route itself used, and the
    # saddle cells the location the route solved; the solver runs once
    # more per row for the oracle's cancellation estimate on its reference
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("polish_saddle", "solve_real_saddle", "solve_complex_pair"):
        for mod in (expansions, tables, saddles):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    counting(name, getattr(mod, name)))
    engines = _count_engine_runs(monkeypatch)
    for compute, rows, solver in ((compute_t1, 3, "solve_real_saddle"),
                                  (compute_t2, 1, "solve_complex_pair")):
        calls.clear()
        engines.clear()
        assert compute().passed
        assert calls == {"polish_saddle": rows, solver: 2 * rows}
        assert engines == {"engine": rows}


def test_exponent_reported():
    res = expand_minus_auto(ScaledArgs(-0.25, 1.0, 40.0, Sign.MINUS),
                            TruncationPolicy.fixed(3))
    assert res.exponent == pytest.approx(-11.946504, abs=1e-5)


# -- reference tables -----------------------------------------------------

@pytest.mark.parametrize("spec", [TableSpec.T1, TableSpec.T2, TableSpec.T3])
def test_minus_error_tables_reproduce(spec):
    report = compute_table(spec)
    assert report.passed, [
        (c.row, c.label, c.computed, c.target)
        for c in report.cells if not c.ok
    ]


def test_plus_chain_table_reproduces():
    report = compute_table(TableSpec.T4)
    assert report.passed, [(c.row, c.label) for c in report.cells if not c.ok]


def test_difference_table_reproduces():
    report = compute_table(TableSpec.T5)
    assert report.passed, [(c.row, c.label) for c in report.cells if not c.ok]


def test_parameter_plane_landmarks():
    fig2 = compute_table(TableSpec.FIG2_CURVE)
    assert fig2.passed
    assert fig2.sweep_rows and fig2.sweep_columns == ("lam", "a")
    fig4 = compute_table(TableSpec.FIG4_CURVES)
    assert fig4.passed
    assert any(row[0] == 2 for row in fig4.sweep_rows)


def test_b4_erratum_reproduces_tabulated_t3(monkeypatch):
    # the tabulated k=4/6 cells were computed with 826 for the 836 in
    # both the lam and lam^3 terms of B_4; put the slip back into the
    # B_k the double route reads
    class Slipped(coeffs.SaddleCoeffs):
        def __init__(self, phase, u0, m, cap, pq=None):
            super().__init__(phase, u0, m, cap, pq)
            self.lam = phase.lam if m == 3 else None

        def upto(self, k):
            b = super().upto(k)
            if self.lam is not None and k >= 4:
                b[4] = b4(self.lam, 826.0)
            return b

    monkeypatch.setattr(expansions, "SaddleCoeffs", Slipped)
    cells = [c for c in compute_t3().cells
             if c.label in ("err k=4", "err k=6")]
    assert len(cells) == 6
    for c in cells:
        # (lam = 0.5, k = 6) also carries a two-decade exponent slip
        scale = 100.0 if (c.row, c.label) == ("lam=0.5", "err k=6") else 1.0
        assert c.computed / c.printed == pytest.approx(scale, rel=1e-3), \
            (c.row, c.label, c.computed, c.printed)


def test_error_decay_is_monotone_in_tables_1_2():
    # sub-optimal truncation region: each extra term must help
    for spec in (TableSpec.T1, TableSpec.T2):
        report = compute_table(spec)
        by_row: dict = {}
        for c in report.cells:
            if c.label.startswith("err k="):
                by_row.setdefault(c.row, []).append((int(c.label[6:]), c.computed))
        for row, seq in by_row.items():
            seq.sort()
            errs = [e for _, e in seq]
            assert all(b < a for a, b in zip(errs, errs[1:])), (spec, row)


@pytest.mark.parametrize("lam,a,x", [(-0.25, 1.0, 40.0), (1.0, 1.2, 40.0),
                                     (2.0, 0.5, 40.0), (1.5, 0.5, 200.0),
                                     (2.0, None, 100.0)])
def test_minus_log_scale_is_the_leading_term(lam, a, x):
    # the oracle's cancellation estimate is the k = 0 expansion: its
    # modulus at a real saddle and on the curve, 2 |pref| for a pair
    a = double_saddle_curve(lam) if a is None else a
    res = expand_minus_auto(ScaledArgs(lam, a, x, Sign.MINUS),
                            TruncationPolicy.fixed(0))
    s = res.series[0]
    lead = abs(s.pref * s.mp_terms[0])
    if s.location.imag:
        lead *= 2
        assert abs(res.mp_value) <= lead
    assert saddles.minus_log_scale(lam, a, x) == pytest.approx(
        float(mp.log(lead)), abs=1e-9)


# -- where an optimal series stops ----------------------------------------

def _full_series(lam, a, x, sign, location, route=None):
    """The series at one saddle (at the double saddle on that route)
    built to order 40 and cut there, at 50 digits."""
    with mp.workdps(50):
        if route == "double-saddle":
            return expansions._double_series(lam, x, 40, False)
        return expansions._saddle_series(Phase(lam, a, sign), location, x,
                                         40, False)


def _check_cuts(lam, a, x, sign, res, reasons):
    """Every series of res is a prefix of the one built to 40, and its
    cut, stopped at the least term or run to the cap, is that series' own
    least term; one stopped at the working precision is within an ulp of
    that series' value cut at its least term."""
    cols = zip(res.series, res.component_truncations,
               res.truncation_reasons, res.mp_components)
    for s, k, why, comp in cols:
        full = _full_series(lam, a, x, sign, s.location, res.route)
        n = len(s.mp_terms)
        assert full.mp_terms[:n] == s.mp_terms, (lam, a, x, sign)
        assert full.coefficients[:n] == s.coefficients
        with mp.workdps(50):
            at = optimal_truncation([abs(t) for t in full.mp_terms])
            least = dataclasses.replace(full, cut=at).component
            ulp = mp.eps * abs(least)
        if why == "precision":
            assert abs(comp - least) <= ulp, (lam, a, x, sign)
        else:
            assert k == at, (lam, a, x, sign, why)
        reasons[why] += 1


def test_optimal_cut_is_the_least_term_of_the_series_to_40():
    # _check_cuts at a seeded sweep, then at double-saddle points, which
    # the sweep all but never lands on
    rng = random.Random(2023)
    points, reasons = 0, Counter()
    while points < 300:
        lam, a = rng.uniform(-0.9, 6.0), rng.uniform(0.1, 2.5)
        x, sign = rng.uniform(10.0, 400.0), rng.choice(list(Sign))
        entry = expand_minus_auto if sign is Sign.MINUS else expand_plus
        try:
            res = entry(ScaledArgs(lam, a, x, sign),
                        TruncationPolicy.optimal())
            res.series  # builds a left-out pair, which may fail too
        except (saddles.ConvergenceFailure, saddles.OnStokesBoundary):
            continue
        points += 1
        _check_cuts(lam, a, x, sign, res, reasons)
    # 80 minimum, 104 precision and 140 capped cuts
    assert min(reasons.values()) >= 50 and len(reasons) == 3
    double = Counter()
    for lam, x in ((0.5, 250.0), (1.0, 40.0), (1.7, 200.0), (3.0, 315.0),
                   (6.0, 20.0), (2.0, 3000.0)):
        a = double_saddle_curve(lam)
        res = expand_minus_auto(ScaledArgs(lam, a, x, Sign.MINUS),
                                TruncationPolicy.optimal())
        assert res.route == "double-saddle"
        _check_cuts(lam, a, x, Sign.MINUS, res, double)
    assert sum(double.values()) == 6


def test_near_curve_optimal_call_runs_the_engine_to_12_orders(monkeypatch):
    # the near-curve point of perfbench's expand-optimal at seed 101 cuts
    # at k = 0; its terms have risen 10 decades by k = 5
    engines = []
    init = coeffs.SaddleCoeffs.__init__

    def recorded(self, *args):
        init(self, *args)
        engines.append(self)

    monkeypatch.setattr(coeffs.SaddleCoeffs, "__init__", recorded)
    res = expand_minus_auto(ScaledArgs(1.5672051158070401,
                                       1.1625755735705992,
                                       38.946464104572215, Sign.MINUS),
                            TruncationPolicy.optimal())
    assert res.truncation_reasons == ("minimum",)
    assert res.truncation_index == 0
    assert len(engines) == 1 and len(engines[0]) <= 12


def test_optimal_series_is_built_again_after_the_engine_reruns(monkeypatch):
    # with no pilot and no headroom the engine at (-0.25, 1, -) keeps too
    # few bits (test_coeffs' test_engine_reruns_at_a_larger_scale): the
    # optimal series re-runs it at the larger scale and is built again,
    # to the bit the series of the engine's own sizing (terms formed
    # before the re-run and kept would differ in their last bits)
    args = ScaledArgs(-0.25, 1.0, 40.0, Sign.MINUS)
    want = expand_minus_auto(args, TruncationPolicy.optimal())
    runs = 0
    real_betas = coeffs._real_betas

    def counted(*args):
        nonlocal runs
        runs += 1
        return real_betas(*args)

    monkeypatch.setattr(coeffs, "_real_betas", counted)
    monkeypatch.setattr(coeffs, "_PILOT", 100)
    monkeypatch.setattr(coeffs, "_SLACK", 0)
    res = expand_minus_auto(args, TruncationPolicy.optimal())
    assert runs == 2
    assert (res.truncation_index, res.truncation_reasons) \
        == (want.truncation_index, want.truncation_reasons) \
        == (40, ("capped",))
    assert res.mp_value == want.mp_value
    assert res.series == want.series


@pytest.mark.parametrize("point", [(1.7, 0.9, Sign.MINUS),
                                   (0.3, 1.3, Sign.MINUS),
                                   (2.6, 0.25, Sign.PLUS),
                                   (2.0, 0.5, Sign.MINUS)],
                         ids=["conjugate", "real", "chain", "conjugate2"])
@pytest.mark.parametrize("x", [300.0, 1000.0, 3000.0])
def test_large_x_stops_at_the_working_precision(point, x):
    # no call is capped where its terms reach 2^-(wp+8) of their partial
    # sum within 40 orders; a call stopped there is within one ulp of
    # the same call summed to order 40
    lam, a, sign = point
    entry = expand_minus_auto if sign is Sign.MINUS else expand_plus
    args = ScaledArgs(lam, a, x, sign)
    res = entry(args, TruncationPolicy.optimal())
    full = entry(args, TruncationPolicy.fixed(40))
    for s, why in zip(res.series, res.truncation_reasons):
        if why != "capped":
            continue
        with mp.workdps(50):
            terms = _full_series(lam, a, x, sign, s.location).mp_terms
            sums = list(accumulate(terms))
            floor = mp.mpf(2) ** -(mp.mp.prec + 8)
            below = [abs(t) < floor * abs(p) for t, p in zip(terms, sums)]
        assert not any(map(min, below, below[1:])), (point, x)
    if "precision" in res.truncation_reasons:
        with mp.workdps(50):
            assert abs(res.mp_value - full.mp_value) \
                <= mp.eps * abs(full.mp_value)
    assert res.truncation_reasons[0] == ("capped" if (lam, x) in (
        (1.7, 300.0), (1.7, 1000.0), (2.0, 300.0)) else "precision")


def test_exact_zero_terms_neither_stop_nor_start_the_forming(monkeypatch):
    # on the curve at lam = 1, B_1 = B_3 = 0 and the sine kills term 2,
    # so terms 1..3 are exact zeros: they are no sign of the working
    # precision, and no reason to form the terms before the series stops;
    # there W-(1, 1; x) = J_x(x)
    upto = coeffs.SaddleCoeffs.upto
    calls = 0

    def counted(self, k):
        nonlocal calls
        calls += 1
        return upto(self, k)

    monkeypatch.setattr(coeffs.SaddleCoeffs, "upto", counted)
    args = ScaledArgs(1.0, double_saddle_curve(1.0), 40.0, Sign.MINUS)
    res = expand_minus_auto(args, TruncationPolicy.optimal())
    assert res.route == "double-saddle"
    assert res.terms[1:4] == (0, 0, 0) and res.terms[4] != 0
    assert res.truncation_reasons == ("capped",)
    assert res.truncation_index == 40
    assert calls == 1
    assert res.value == pytest.approx(float(mp.besselj(40, 40)), rel=1e-12)
    # where the terms do fall below the working precision, the stop rests
    # on two nonzero terms, and the cut is the last of them
    args = ScaledArgs(1.0, double_saddle_curve(1.0), 1e5, Sign.MINUS)
    res = expand_minus_auto(args, TruncationPolicy.optimal())
    full = expand_minus_auto(args, TruncationPolicy.fixed(40))
    assert res.truncation_reasons == ("precision",)
    nonzero = [k for k, t in enumerate(res.terms) if t != 0]
    assert nonzero[-1] == res.truncation_index == 36
    with mp.workdps(50):
        assert abs(res.mp_value - full.mp_value) <= mp.eps * abs(full.mp_value)


# -- a sweep over the point kinds of perfbench ----------------------------

def _kind_point(kind: str, rng: random.Random) -> tuple:
    """(lam, a, sign) of one point of a perfbench point kind
    (perfbench/points.py), with no stratification."""
    if kind == "real-neg":
        return rng.uniform(-0.95, 0.0), rng.uniform(0.2, 1.2), Sign.MINUS
    if kind.startswith("chain"):
        lam, a = {"chain0": ((-0.99, 2.0), (0.5, 1.2)),
                  "chain1": ((2.0, 3.5), (0.15, 0.3)),
                  "chain2": ((5.0, 6.0), (0.15, 0.3))}[kind]
        return rng.uniform(*lam), rng.uniform(*a), Sign.PLUS
    lam = rng.uniform(0.1, 6.0)
    a = double_saddle_curve(lam)
    factor = {"real": 1.0 + rng.uniform(0.3, 1.0),
              "conjugate": 1.0 - rng.uniform(0.3, 0.8),
              "double": 1.0,
              "near-curve": 1.0 + rng.choice((-1, 1))
              * 10.0 ** rng.uniform(-6.0, -1.0)}[kind]
    return lam, a * factor, Sign.MINUS


def test_every_call_over_the_point_kinds_is_finite_or_a_package_error():
    # x in [20, 400], fixed k = 0..6 and optimal, both signs: a value is
    # finite, and whatever is raised is one of the package's own errors
    rng = random.Random(42)
    kinds = ("real-neg", "real", "conjugate", "double", "near-curve",
             "chain0", "chain1", "chain2")
    policies = [TruncationPolicy.fixed(k) for k in range(7)]
    policies.append(TruncationPolicy.optimal())
    outcomes = Counter()
    for kind in kinds * 8:
        lam, a, sign = _kind_point(kind, rng)
        x = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
        entry = expand_minus_auto if sign is Sign.MINUS else expand_plus
        for trunc in policies:
            try:
                value = entry(ScaledArgs(lam, a, x, sign), trunc).value
            except Exception as err:
                assert type(err).__module__.startswith("wrightasym."), \
                    (kind, lam, a, x, trunc, err)
                outcomes[type(err).__name__] += 1
                continue
            assert math.isfinite(value), (kind, lam, a, x, trunc, value)
            outcomes["value"] += 1
    assert outcomes["value"] >= 400, outcomes
