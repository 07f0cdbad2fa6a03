"""Saddle geometry: solvers, contours, chains, descent paths."""

from __future__ import annotations

import cmath
import math
import random
import sys
import time

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import linear_scan
from wrightasym import saddles, tables
from wrightasym.core import Sign
from wrightasym.saddles import (
    ConvergenceFailure,
    NoBoundary,
    NoRealSaddle,
    OnStokesBoundary,
    PathBranch,
    Phase,
    Regime,
    SaddleKind,
    Terminus,
    chain_member,
    contour,
    double_saddle_curve,
    double_saddle_point,
    newton_root,
    polish_saddle,
    solve_complex_pair,
    solve_real_saddle,
    stokes_boundary,
    trace_descent_path,
)
from wrightasym.tables import compute_fig2

CURVE_MAX_LAM = 2.09350
CURVE_MAX_A = 1.19123


def _residual_ok(phase, u):
    return abs(phase.dh(u)) <= 1e-12 * max(1.0, abs(phase.derivs(u, 2)[2]))


# -- phase function -------------------------------------------------------

@given(
    lam=st.floats(-0.9, 6.0),
    a=st.floats(0.05, 3.0),
    re=st.floats(-2.0, 2.0),
    im=st.floats(-3.0, 3.0),
    sign=st.sampled_from([Sign.MINUS, Sign.PLUS]),
)
@settings(max_examples=80, deadline=None)
def test_phase_conjugate_symmetry(lam, a, re, im, sign):
    """h has real coefficients: h(conj u) = conj h(u)."""
    ph = Phase(lam, a, sign)
    u = complex(re, im)
    assert cmath.isclose(ph.h(u.conjugate()), ph.h(u).conjugate(),
                         rel_tol=1e-12, abs_tol=1e-12)
    assert cmath.isclose(ph.dh(u.conjugate()), ph.dh(u).conjugate(),
                         rel_tol=1e-12, abs_tol=1e-12)


def test_phase_derivative_consistency():
    # h'' agrees with a central difference of dh
    ph = Phase(1.3, 0.7, Sign.MINUS)
    u, eps = 0.4, 1e-6
    fd = (ph.dh(u + eps) - ph.dh(u - eps)) / (2 * eps)
    assert abs(ph.derivs(u, 2)[2] - fd) < 1e-8


@pytest.mark.parametrize("sign", [Sign.MINUS, Sign.PLUS])
def test_phase_derivs_follow_the_argument_arithmetic(sign):
    """derivs evaluates in u's own arithmetic: doubles for a float or a
    complex, mpmath (at the working precision) for an mpf or an mpc."""
    ph = Phase(1.7, 0.6, sign)
    with mp.workdps(50):
        for u, mu in ((0.37, mp.mpf(0.37)),
                      (complex(0.37, 1.1), mp.mpc(0.37, 1.1))):
            want = ph.derivs(mu, 4)
            assert len(want) == 5
            assert all(type(d) is type(mu) for d in want)
            for k, w in enumerate(want):
                num = mp.diff(ph.h, mu, k)
                assert abs(num - w) <= mp.mpf(10) ** -40 * max(1, abs(w))
            got = ph.derivs(u, 4)
            assert all(type(d) is type(u) for d in got)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * max(1, abs(w))


# -- real saddles ---------------------------------------------------------

def test_minus_lam_zero_closed_form():
    ph = Phase(0.0, 0.7, Sign.MINUS)
    s = solve_real_saddle(ph)
    assert abs(s.location.real - math.log(2 * 0.7)) < 1e-14
    assert _residual_ok(ph, s.location)


def test_minus_negative_lam_single_root():
    ph = Phase(-0.25, 1.0, Sign.MINUS)
    s = solve_real_saddle(ph)
    assert s.kind is SaddleKind.REAL_SIMPLE
    assert abs(s.location.real - 0.83644438) < 5e-9
    assert _residual_ok(ph, s.location)


def test_minus_two_real_ordering_and_convexity():
    rng = random.Random(7)
    for _ in range(50):
        lam = rng.uniform(0.1, 6.0)
        a = double_saddle_curve(lam) * rng.uniform(1.01, 3.0)
        ph = Phase(lam, a, Sign.MINUS)
        lo, hi = solve_real_saddle(ph)
        assert lo.location.real < hi.location.real
        # the larger saddle sits past the convexity minimum: h'' > 0 there
        assert hi.second_derivative.real > 0.0
        assert _residual_ok(ph, lo.location) and _residual_ok(ph, hi.location)


@pytest.mark.parametrize("step,points,where", [
    (1, [1.0, 2.0, 3.0, 4.5, 6.75], "right"),
    (-1, [-1.0, -2.0, -3.0, -4.5, -6.75], "left")])
def test_bracket_gives_up_after_200_points(step, points, where):
    # f never turns positive: the walk takes steps of max(1, |end|/2)
    seen = []

    def f(u):
        seen.append(u)
        return -1.0

    with pytest.raises(ConvergenceFailure,
                       match=f"^no sign change found expanding {where}$"):
        saddles._bracket(f, 0.0, step)
    assert seen[:5] == points and len(seen) == 200


def test_minus_no_real_saddle_below_curve():
    with pytest.raises(NoRealSaddle):
        solve_real_saddle(Phase(1.5, 0.5, Sign.MINUS))


def test_plus_single_real_root_always():
    rng = random.Random(11)
    for _ in range(40):
        lam = rng.uniform(-0.9, 8.0)
        a = rng.uniform(0.05, 3.0)
        ph = Phase(lam, a, Sign.PLUS)
        s = solve_real_saddle(ph)
        assert s.kind is SaddleKind.REAL_SIMPLE
        assert _residual_ok(ph, s.location)
        # plus-phase derivative is increasing: root is unique, h'' > 0
        assert s.second_derivative.real > 0.0


def _count_mp_derivs(monkeypatch) -> dict:
    """Count Phase.derivs calls with an mpf or mpc argument."""
    calls = {"mp": 0}
    derivs = Phase.derivs

    def counted(self, v, n, parts=None):
        calls["mp"] += type(v) in (mp.mpf, mp.mpc)
        return derivs(self, v, n, parts)

    monkeypatch.setattr(Phase, "derivs", counted)
    return calls


def test_polish_stops_at_its_fixed_point(monkeypatch):
    phase = Phase(1.0, 1.2, Sign.MINUS)
    loc = solve_real_saddle(phase)[1].location
    with mp.workdps(50):
        # reference: six Newton steps, none skipped
        u = mp.mpf(loc.real)
        for _ in range(6):
            _, d, dd = phase.derivs(u, 2)
            u -= d / dd
        h0, _, h2 = phase.derivs(u, 2)
        calls = _count_mp_derivs(monkeypatch)
        *got, pq = polish_saddle(phase, loc)
        assert calls["mp"] <= 4
        assert pq == phase.parts(u)
    assert got == [u, h0, h2]


def _cycling_saddles():
    """Saddles where a 50-digit Newton step keeps moving u in its last
    ulp (by 4e-52..2e-51) instead of reaching a fixed point."""
    ph = Phase(1.5, 0.5, Sign.MINUS)
    yield ph, solve_complex_pair(ph).location
    ph = Phase(3.0, 0.2, Sign.PLUS)
    yield ph, chain_member(ph, 1).location
    ph = Phase(6.0, 0.2, Sign.PLUS)
    yield ph, solve_real_saddle(ph).location


@pytest.mark.parametrize("case", range(3), ids=["conjugate", "chain1",
                                                "plus-real"])
def test_polish_stops_within_16_ulp(monkeypatch, case):
    phase, loc = list(_cycling_saddles())[case]
    with mp.workdps(50):
        calls = _count_mp_derivs(monkeypatch)
        u, _, h2, _ = polish_saddle(phase, loc)
        assert calls["mp"] <= 4
        # the step the polish declined moves u by at most 16 ulp, in the
        # larger of its real and imaginary parts
        step = phase.dh(u) / h2
        assert saddles._sup(step) <= 16 * mp.eps * saddles._sup(u)


# -- bracketed Newton root finder ----------------------------------------

def _mp_boundary(lam, k, a, u):
    """The boundary a of chain pair k at 30 digits: Newton on the level
    Im h(u_k(a)), slope -Im u_k, from the double a and u_k."""
    with mp.workdps(30):
        lam, a, u = mp.mpf(lam), mp.mpf(a), mp.mpc(u)
        for _ in range(6):
            u = mp.findroot(
                lambda v: (mp.exp(v) - lam * mp.exp(-lam * v)) / 2 - a, u)
            a += ((mp.exp(u) + mp.exp(-lam * u)) / 2 - a * u).imag / u.imag
        return a


def test_newton_root_meets_mpmath_on_the_package_brackets(monkeypatch):
    seen = []

    def record(fd, lo, hi, xtol=0.0):
        seen.append(xtol)
        return newton_root(fd, lo, hi, xtol)

    monkeypatch.setattr(saddles, "newton_root", record)
    monkeypatch.setattr(tables, "newton_root", record)

    def check(phase):
        found = solve_real_saddle(phase)
        for s in found if isinstance(found, tuple) else (found,):
            u = s.location.real
            with mp.workdps(30):
                ref = mp.findroot(phase.dh, mp.mpf(u))
                lam, a, p, q = phase.parts(ref)
                h2 = phase.derivs(ref, 2)[2]
                # the root as well as h' is known in doubles: its rounding
                # error over h''
                bound = sys.float_info.epsilon * (p + abs(lam * q) + a) / h2
                assert abs(u - ref) <= abs(bound), (phase, u, ref)

    rng = random.Random(20)
    for _ in range(40):
        lam = rng.uniform(0.1, 8.0)
        curve = double_saddle_curve(lam)
        # two real saddles, well above and just above the curve
        check(Phase(lam, curve * rng.uniform(1.01, 3.0), Sign.MINUS))
        check(Phase(lam, curve * (1 + 10 ** rng.uniform(-5, -2)),
                    Sign.MINUS))
        check(Phase(rng.uniform(-0.95, -0.01), rng.uniform(0.05, 4.0),
                    Sign.MINUS))
        check(Phase(rng.uniform(-0.95, 8.0), rng.uniform(0.05, 4.0),
                    Sign.PLUS))
    for lam, pair in ((2.0, 1), (3.0, 1), (6.0, 2)):
        a_flip = stokes_boundary(lam, pair)
        u = chain_member(Phase(lam, a_flip, Sign.PLUS), pair).location
        assert abs(a_flip - _mp_boundary(lam, pair, a_flip, u)) <= 1e-10
    lam_max = compute_fig2().cells[0].computed
    with mp.workdps(30):
        ref = mp.findroot(lambda t: 1 + t - 2 * t * mp.log(t), lam_max)
    assert abs(lam_max - ref) <= 2 * math.ulp(lam_max)
    assert seen.count(0.0) == 241 and seen.count(1e-10) == 3


def test_newton_root_stops_where_a_step_leaves_x_unchanged():
    root = newton_root(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
    # an exact zero at an end is returned as it is
    assert newton_root(lambda x: (-0.0 if x == 0.0 else x - 1.0, 1.0),
                       0.0, 2.0) == 0.0
    # a loose xtol stops early, but within it
    root = newton_root(lambda x: (math.exp(x) - 3.0, math.exp(x)), 0.0, 2.0,
                       xtol=1e-3)
    assert abs(root - math.log(3.0)) <= 1e-3


def test_newton_root_errors():
    with pytest.raises(ValueError, match="does not change sign"):
        newton_root(lambda x: (x * x + 1.0, 2.0 * x), 0.0, 2.0)
    for nan_at in (lambda x: x > 1.0, lambda x: True):  # at hi, at both
        with pytest.raises(ValueError, match="does not change sign"):
            newton_root(lambda x: (math.nan if nan_at(x) else x - 1.5, 1.0),
                        0.0, 2.0)
    # the secant point of [0, 3] is 1, where f is NaN
    with pytest.raises(ValueError, match=r"NaN at x=1\.0"):
        newton_root(lambda x: (math.nan if 0.9 < x < 1.1 else x - 1.0, 1.0),
                    0.0, 3.0)
    # a triple root: every Newton step lands inside and shrinks x by 2/3,
    # so no step leaves x unchanged within the cap
    with pytest.raises(ConvergenceFailure, match="after 100 steps"):
        newton_root(lambda x: (x ** 3, 3.0 * x * x), -1.0, 2.0)


# -- coalescence curve ----------------------------------------------------

def test_curve_closed_form_spot_values():
    # a*(1) = 1; a*(lam) = ((1+lam)/2) lam^((1-lam)/(1+lam))
    assert abs(double_saddle_curve(1.0) - 1.0) < 1e-15
    lam = 2.0
    expect = 1.5 * 2.0 ** (-1.0 / 3.0)
    assert abs(double_saddle_curve(lam) - expect) < 1e-14


def test_fig2_maximum_is_the_root_of_the_log_derivative():
    # d ln a*/dlam = 0 reduces to 1 + lam - 2 lam ln lam = 0
    lam_cell, a_cell = compute_fig2().cells
    with mp.workdps(30):
        root = mp.findroot(lambda t: 1 + t - 2 * t * mp.log(t), 2.09)
        assert mp.nstr(root, 17) == "2.093495236569713"
        root = float(root)
    assert abs(lam_cell.computed - root) <= 2 * math.ulp(root)
    assert a_cell.computed == double_saddle_curve(lam_cell.computed)
    for d in (-1e-6, 1e-6):
        assert a_cell.computed >= double_saddle_curve(lam_cell.computed + d)


def test_curve_maximum_location():
    lams = [CURVE_MAX_LAM + d for d in (-1e-3, 0.0, 1e-3)]
    vals = [double_saddle_curve(v) for v in lams]
    assert vals[1] > vals[0] and vals[1] > vals[2]
    assert abs(vals[1] - CURVE_MAX_A) < 1e-5


def test_double_saddle_point_sits_on_curve():
    for lam in (0.5, 1.0, 2.0, 4.0):
        s = double_saddle_point(lam)
        assert s.kind is SaddleKind.REAL_DOUBLE
        ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        assert abs(ph.dh(s.location.real)) < 1e-10
        assert abs(ph.derivs(s.location.real, 2)[2]) < 1e-10
        assert abs(s.location.real - 2.0 * math.log(lam) / (1 + lam)) < 1e-12


def test_classification_flips_across_curve():
    # the double regime is the band |a - a*| <= 1e-6 max(1, a*) around the
    # curve, where the expansions take the double route; outside it the
    # saddles split
    for lam in (0.5, 1.0, 2.0, 5.0):
        astar = double_saddle_curve(lam)
        for a, regime in ((astar * (1 + 2e-6), Regime.TWO_REAL),
                          (astar * (1 - 2e-6), Regime.CONJUGATE_PAIR),
                          (astar + 1e-9, Regime.DOUBLE),
                          (astar - 1e-9, Regime.DOUBLE),
                          (astar, Regime.DOUBLE)):
            assert contour(lam, a, Sign.MINUS).regime is regime
    assert contour(-0.5, 1.0, Sign.MINUS).regime is Regime.SINGLE_REAL


def test_two_real_contributory_is_larger_root():
    c = contour(1.0, 1.2, Sign.MINUS)
    ph = Phase(1.0, 1.2, Sign.MINUS)
    lo, hi = solve_real_saddle(ph)
    assert len(c.saddles) == 1
    assert abs(c.saddles[0].location.real - hi.location.real) < 1e-12
    # the smaller root is kept apart, off the contour
    assert c.off_contour == lo
    for lam, a in ((-0.5, 1.0), (1.5, 0.5), (2.0, double_saddle_curve(2.0))):
        assert contour(lam, a, Sign.MINUS).off_contour is None


# -- complex pair ---------------------------------------------------------

def test_complex_pair_matches_independent_root_search():
    ph = Phase(2.0, 0.5, Sign.MINUS)
    s = solve_complex_pair(ph)
    # independent confirmation: mpmath's own complex root finder from a
    # coarse grid-scan seed
    best = None
    for re0 in (-0.5, 0.0, 0.5, 1.0):
        for im0 in (0.5, 1.0, 1.5, 2.5):
            v = abs(ph.dh(complex(re0, im0)))
            if best is None or v < best[0]:
                best = (v, complex(re0, im0))
    # minus-phase derivative at lam=2: (e^u + 2 e^(-2u))/2 - a
    root = mp.findroot(lambda u: (mp.e ** u + 2.0 * mp.e ** (-2.0 * u)) / 2 - 0.5,
                       mp.mpc(best[1]))
    assert abs(s.location - complex(root)) < 1e-10
    assert 0.0 < s.location.imag < math.pi


def test_complex_pair_tabulated_location():
    s = solve_complex_pair(Phase(1.5, 0.5, Sign.MINUS))
    assert abs(s.location.real - 0.24834557) < 5e-9
    assert abs(s.location.imag - 0.90919096) < 5e-9


def test_complex_pair_residuals_random():
    rng = random.Random(19)
    for _ in range(30):
        lam = rng.uniform(0.2, 5.0)
        a = double_saddle_curve(lam) * rng.uniform(0.15, 0.95)
        ph = Phase(lam, a, Sign.MINUS)
        s = solve_complex_pair(ph)
        assert _residual_ok(ph, s.location)
        assert 0.0 < s.location.imag < math.pi


# -- plus-phase chain -----------------------------------------------------

def test_chain_imaginary_windows():
    for lam in (2.0, 3.0, 6.0):
        ph = Phase(lam, 0.2, Sign.PLUS)
        chain = [chain_member(ph, k) for k in range(1, 5)]
        y1 = chain[0].location.imag
        assert math.pi / lam - 1e-9 <= y1 < 3 * math.pi / lam
        for k in (2, 3, 4):
            yk = chain[k - 1].location.imag
            est = (2 * k - 1) * math.pi / lam
            assert abs(yk - est) < math.pi / (2 * lam), (lam, k, yk, est)
        for s in chain:
            assert _residual_ok(ph, s.location)


def test_chain_lam_one_boundary_saddle():
    # degenerate case: u_1 = i pi - arcsinh(a), exactly on Im u = pi
    ph = Phase(1.0, 0.5, Sign.PLUS)
    u = chain_member(ph, 1).location
    assert abs(u.imag - math.pi) < 1e-9
    assert abs(u.real + math.asinh(0.5)) < 1e-9


@pytest.mark.parametrize("lam,a,n", [(1.0, 0.5, 0), (3.0, 0.2, 1), (6.0, 0.2, 2)])
def test_contributory_pair_counts(lam, a, n):
    c = contour(lam, a, Sign.PLUS)
    assert c.regime is Regime.CHAIN
    assert len(c.saddles) == n + 1
    assert c.saddles[0].kind is SaddleKind.REAL_SIMPLE
    assert c.last_pair_subdominant is (n >= 1)
    # contributory means the pair's phase has positive imaginary part
    for s in c.saddles[1:]:
        assert s.phase_value.imag > 0.0


def test_count_negative_lam_no_chain():
    c = contour(-0.5, 1.0, Sign.PLUS)
    assert len(c.saddles) == 1 and not c.last_pair_subdominant


def test_stokes_boundary_first_pair_at_lam_two():
    a_flip = stokes_boundary(2.0, 1)
    assert abs(a_flip - 0.4075) < 1e-3
    # counting right on the flip is refused rather than guessed
    with pytest.raises(OnStokesBoundary):
        contour(2.0, a_flip, Sign.PLUS)
    assert len(contour(2.0, a_flip - 0.01, Sign.PLUS).saddles) >= 2
    assert len(contour(2.0, a_flip + 0.01, Sign.PLUS).saddles) == 1


def _boundary_or_error(search, lam, pair):
    try:
        return search(lam, pair)
    except (NoBoundary, ConvergenceFailure) as e:
        return type(e)


def test_stokes_boundary_bisection_matches_the_linear_scan():
    # the level falls strictly in a, so bisection finds the scan's cell and
    # newton_root returns the same double: fig4's calls, then seeded ones
    calls = [(lam / 2, pair) for pair in (1, 2) for lam in range(2, 17)]
    rng = random.Random(32)
    calls += [(rng.uniform(1.0, 8.0), rng.choice((1, 2))) for _ in range(30)]
    for lam, pair in calls:
        assert (_boundary_or_error(stokes_boundary, lam, pair)
                == _boundary_or_error(linear_scan.stokes_boundary, lam, pair)
                ), (lam, pair)


def test_stokes_boundary_ignores_a_spurious_scan_root():
    # member 3 hops to another saddle (Im u 7.08, not 5.34) at
    # a = 0.0547-0.0625, where the level jumps from -1.02 to +0.27 and back;
    # the scan took the jump for a root, but the level is negative at both
    # ends of the range, so there is no boundary
    lam = 2.541376546933124
    assert linear_scan.stokes_boundary(lam, 3) == 0.05265294964652534
    with pytest.raises(NoBoundary):
        stokes_boundary(lam, 3)


@pytest.mark.parametrize("lam,a,k", [(2.0, 0.3, 1), (3.0, 0.5, 1),
                                     (6.0, 0.2, 2), (8.0, 0.6, 2),
                                     (1.5, 0.9, 1)])
def test_chain_level_slope_is_minus_im_u(lam, a, k):
    # h' = 0 at u_k, so d h(u_k)/da = dh/da = -u_k
    da = 1e-5 * a
    up, down = (chain_member(Phase(lam, b, Sign.PLUS), k).phase_value.imag
                for b in (a + da, a - da))
    im_u = chain_member(Phase(lam, a, Sign.PLUS), k).location.imag
    assert (up - down) / (2 * da) == pytest.approx(-im_u, rel=1e-8)


def test_fig4_and_the_boundary_guard_solve_few_chain_members(monkeypatch):
    calls = 0
    member = saddles.chain_member

    def counted(phase, k):
        nonlocal calls
        calls += 1
        return member(phase, k)

    monkeypatch.setattr(saddles, "chain_member", counted)
    assert tables.compute_fig4().passed
    # every (lam, a, pair) once: newton_root's end levels and slopes are
    # the bisection's, and the pinned cell is the sweep's row
    assert calls == 277
    # the guard reads the level's slope off the member it has: one solve
    a_flip = stokes_boundary(2.0, 1)
    calls = 0
    with pytest.raises(OnStokesBoundary):
        contour(2.0, a_flip, Sign.PLUS)
    assert calls == 1


# -- descent paths --------------------------------------------------------

def test_trace_minus_real_exits_right():
    ph = Phase(-0.25, 1.0, Sign.MINUS)
    s = solve_real_saddle(ph)
    out = trace_descent_path(ph, s, PathBranch.UPPER_RIGHT)
    assert out.terminus is Terminus.INFINITY_PLUS_PI
    assert len(out.samples) > 3


def test_trace_minus_complex_pair_branches():
    ph = Phase(1.5, 0.5, Sign.MINUS)
    s = solve_complex_pair(ph)
    left = trace_descent_path(ph, s, PathBranch.UPPER_LEFT)
    right = trace_descent_path(ph, s, PathBranch.UPPER_RIGHT)
    assert left.terminus is Terminus.MINUS_INFINITY_STRIP
    assert right.terminus is Terminus.INFINITY_PLUS_PI


def test_trace_plus_real_with_contributory_pair():
    ph = Phase(2.0, 0.2, Sign.PLUS)
    s = solve_real_saddle(ph)
    out = trace_descent_path(ph, s, PathBranch.UPPER_RIGHT)
    assert out.terminus is Terminus.MINUS_INFINITY_STRIP
    assert out.strip_index == 1


def test_trace_at_a_stokes_boundary_ends_in_a_valley():
    # 1e-9 either side of the first pair's boundary at lam = 2 every path
    # from the real saddle and members 1-2 still ends in one of the two
    # valleys; the real saddle's path is the one that switches, from pair
    # 1's strip (pair on the contour) to +infinity (pair off it)
    a_flip = stokes_boundary(2.0, 1)
    t0 = time.perf_counter()
    for a, real_end in ((a_flip * (1 - 1e-9), Terminus.MINUS_INFINITY_STRIP),
                        (a_flip * (1 + 1e-9), Terminus.INFINITY_PLUS_PI)):
        ph = Phase(2.0, a, Sign.PLUS)
        real = solve_real_saddle(ph)
        assert trace_descent_path(ph, real, PathBranch.UPPER_RIGHT
                                  ).terminus is real_end
        for k in (1, 2):
            member = chain_member(ph, k)
            for branch in PathBranch:
                out = trace_descent_path(ph, member, branch)
                assert out.terminus in (Terminus.MINUS_INFINITY_STRIP,
                                        Terminus.INFINITY_PLUS_PI)
    assert time.perf_counter() - t0 < 2.0


def test_trace_descent_is_monotone_decreasing():
    ph = Phase(1.5, 0.5, Sign.MINUS)
    s = solve_complex_pair(ph)
    out = trace_descent_path(ph, s, PathBranch.UPPER_RIGHT)
    laps = [ph.h(u).real for u in out.samples]
    assert all(b <= a + 1e-9 for a, b in zip(laps, laps[1:]))
    # the imaginary part of h is the conserved level along the path
    levels = [ph.h(u).imag for u in out.samples]
    ref = ph.h(s.location).imag
    assert max(abs(v - ref) for v in levels) < 1e-6
