"""Expansion coefficients: reversion, closed forms, double-saddle scaling.

The high-order checks compare the package's O(n^2) recurrence against an
independent Lagrange inversion kept here: J.C.P. Miller powers of the
Taylor series of w(t) = (m (h(u0) - h(u0 + t)))^(1/m), O(n^3).
"""

from __future__ import annotations

import cmath
import random

import mpmath as mp
import pytest

from wrightasym.core import Sign
from wrightasym.coeffs import (
    CoefficientKind,
    _saddle_reversion,
    DegenerateSaddle,
    closed_form_A,
    derivative_table,
    double_coeffs_by_reversion,
    double_saddle_coeffs,
    reverse_series_simple,
    simple_coeffs_mp,
)
from wrightasym.saddles import (
    Phase,
    complex_saddle_chain,
    double_saddle_curve,
    double_saddle_point,
    solve_complex_pair,
    solve_real_saddle,
)


def _real_case(lam, factor):
    a = double_saddle_curve(lam) * factor
    ph = Phase(lam, a, Sign.MINUS)
    lo, hi = solve_real_saddle(ph)
    return ph, hi


# -- derivative tables ----------------------------------------------------

def test_derivative_table_matches_numerical_differentiation():
    ph, saddle = _real_case(1.0, 1.3)
    table = derivative_table(saddle, ph, 8)
    u0 = saddle.location.real
    with mp.workdps(40):
        for n in range(2, 9):
            num = mp.diff(lambda t: (mp.e ** t - mp.e ** (-1.0 * t)) / 2 - ph.a * t,
                          mp.mpf(u0), n)
            assert abs(table.values[n] - complex(num)) < 1e-9 * max(1.0, abs(num))


def test_derivative_table_rejects_non_stationary_point():
    ph = Phase(1.0, 1.3, Sign.MINUS)
    lo, hi = solve_real_saddle(ph)
    shifted = type(hi)(location=hi.location + 0.25, phase_value=hi.phase_value,
                       second_derivative=hi.second_derivative, index=hi.index,
                       kind=hi.kind)
    with pytest.raises(ValueError):
        derivative_table(shifted, ph, 6)


# -- simple-saddle A_k ----------------------------------------------------

def test_closed_forms_match_reversion_real_regime():
    rng = random.Random(3)
    for _ in range(20):
        lam = rng.uniform(0.2, 5.0)
        ph, saddle = _real_case(lam, rng.uniform(1.05, 3.0))
        table = derivative_table(saddle, ph, 10)
        series = reverse_series_simple(table, 3)
        closed = closed_form_A(table)
        for k in (1, 2, 3):
            got, want = series.coefficients[k], closed[k]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (lam, k)


def test_closed_forms_match_reversion_complex_regime():
    rng = random.Random(5)
    for _ in range(20):
        lam = rng.uniform(0.3, 4.0)
        a = double_saddle_curve(lam) * rng.uniform(0.2, 0.9)
        ph = Phase(lam, a, Sign.MINUS)
        saddle = solve_complex_pair(ph)
        table = derivative_table(saddle, ph, 10)
        series = reverse_series_simple(table, 3)
        closed = closed_form_A(table)
        for k in (1, 2, 3):
            assert abs(series.coefficients[k] - closed[k]) \
                <= 1e-10 * max(1.0, abs(closed[k])), (lam, a, k)


def test_a_real_at_real_saddles():
    for lam, factor in ((0.7, 1.5), (2.0, 1.2), (4.0, 2.0)):
        ph, saddle = _real_case(lam, factor)
        series = reverse_series_simple(derivative_table(saddle, ph, 14), 5)
        for c in series.coefficients:
            assert abs(c.imag) < 1e-10 * max(1.0, abs(c.real))


def test_a_conjugation_equivariance():
    ph = Phase(1.5, 0.5, Sign.MINUS)
    s = solve_complex_pair(ph)
    table_up = derivative_table(s, ph, 12)
    mirrored = type(s)(location=s.location.conjugate(),
                       phase_value=s.phase_value.conjugate(),
                       second_derivative=s.second_derivative.conjugate(),
                       index=s.index, kind=s.kind)
    table_dn = derivative_table(mirrored, ph, 12)
    up = reverse_series_simple(table_up, 4).coefficients
    dn = reverse_series_simple(table_dn, 4).coefficients
    for cu, cd in zip(up, dn):
        assert cmath.isclose(cd, cu.conjugate(), rel_tol=1e-11, abs_tol=1e-13)


def test_reverse_series_metadata():
    ph, saddle = _real_case(1.0, 1.2)
    series = reverse_series_simple(derivative_table(saddle, ph, 10), 3)
    assert series.kind is CoefficientKind.SIMPLE_SADDLE_A
    assert series.order == 3
    assert abs(series.coefficients[0] - 1.0) < 1e-13
    assert abs(series.scale - saddle.second_derivative) < 1e-12


def test_degenerate_saddle_refused():
    lam = 1.0
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    dbl = double_saddle_point(lam)
    with pytest.raises(DegenerateSaddle):
        reverse_series_simple(derivative_table(dbl, ph, 10), 3)


def test_simple_coeffs_mp_agrees_with_double_path():
    ph, saddle = _real_case(1.0, 1.2)
    with mp.workdps(50):
        um = mp.mpf(saddle.location.real)
        got = simple_coeffs_mp(ph, um, 5)
    ref = reverse_series_simple(derivative_table(saddle, ph, 14), 5).coefficients
    for k in range(6):
        assert abs(complex(got[k]) - ref[k]) < 1e-11 * max(1.0, abs(ref[k]))


# -- double-saddle B_k ----------------------------------------------------

def _b(lam, order):
    return [c.real for c in double_saddle_coeffs(lam, order).coefficients]


def test_b_series_metadata():
    series = double_saddle_coeffs(1.7, 6)
    assert series.kind is CoefficientKind.DOUBLE_SADDLE_B
    want = (1.0 + 1.7) * 1.7 ** (2.0 / 2.7)
    assert abs(series.scale.real - want) < 1e-12 * want


def test_b_polynomials_spot_values():
    c = 2.0 ** (1.0 / 3.0)
    for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
        b = _b(lam, 6)
        assert b[0] == pytest.approx(1.0, abs=1e-14)
        assert b[1] == pytest.approx((lam - 1.0) / (3.0 * c), rel=1e-12)
        assert b[2] == pytest.approx((1.0 - 6.0 * lam + lam ** 2) / (20.0 * c * c),
                                     rel=1e-12, abs=1e-14)
        assert b[3] == pytest.approx(
            (5.0 + 93.0 * lam - 93.0 * lam ** 2 - 5.0 * lam ** 3) / 1620.0,
            rel=1e-12, abs=1e-14)


def test_b_polynomials_match_numerical_reversion():
    for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
        poly = _b(lam, 6)
        revd = double_coeffs_by_reversion(lam, 6)
        for k in range(7):
            assert abs(poly[k] - revd[k]) <= 1e-10 * max(1.0, abs(revd[k])), \
                (lam, k, poly[k], revd[k])


def test_b_at_lam_one_odd_orders_vanish():
    b = _b(1.0, 6)
    assert abs(b[1]) < 1e-14
    assert abs(b[3]) < 1e-14
    assert abs(b[5]) < 1e-14


def test_b_extension_beyond_polynomials():
    # orders past 6 come from cubic reversion; the seam must be smooth
    b10 = _b(1.7, 10)
    b6 = _b(1.7, 6)
    assert b10[:7] == pytest.approx(b6, rel=1e-12)
    assert all(abs(v) < 1e3 for v in b10)


def test_double_h_scale_is_twice_third_derivative():
    for lam in (0.5, 1.0, 2.0, 3.0):
        ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        u0 = 2.0 * cmath.log(lam).real / (1.0 + lam)
        want = (1.0 + lam) * lam ** (2.0 / (1.0 + lam))
        assert abs(2.0 * ph.dnh(u0, 3).real - want) < 1e-12 * want


# -- high orders against Lagrange inversion ------------------------------

def _ps_pow_unit(f, alpha, n):
    # q = f**alpha for a unit series (f[0] == 1), J.C.P. Miller recurrence
    q = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1)
    for k in range(1, n):
        s = mp.mpc(0)
        for j in range(1, k + 1):
            s += ((alpha + 1) * j - k) * f[j] * q[k - j]
        q[k] = s / k
    return q


def _lagrange_b(phase, u0, m, n):
    """b_1..b_n of t(w), h(u0) - h(u0 + t) = w^m/m, by Lagrange inversion:
    b_j = [t^(j-1)] (t/w(t))^j / j."""
    s = -1 if phase.sign is Sign.MINUS else 1
    lam = mp.mpf(phase.lam)
    # Taylor coefficients c_j = h^(j)(u0)/j!, j = m..m+n-1
    c = [(mp.exp(u0) + s * (-lam) ** j * mp.exp(-lam * u0)) / 2
         / mp.factorial(j) for j in range(m, m + n)]
    # w = w1 t (1 + (c_(m+1)/c_m) t + ...)^(1/m); w1 on the package's branch
    w1 = 1 / mp.root(-1 / (m * c[0]), m)
    f = _ps_pow_unit([cj / c[0] for cj in c], mp.mpf(1) / m, n)
    return [_ps_pow_unit(f, -j, n)[j - 1] / (j * w1 ** j)
            for j in range(1, n + 1)]


def _polished(phase, u):
    s = -1 if phase.sign is Sign.MINUS else 1
    lam, a = mp.mpf(phase.lam), mp.mpf(phase.a)
    return mp.findroot(
        lambda v: (mp.exp(v) - s * lam * mp.exp(-lam * v)) / 2 - a, u)


def _high_order_cases():
    ph = Phase(1.0, 1.2, Sign.MINUS)
    yield ph, mp.mpf(solve_real_saddle(ph)[1].location.real)
    ph = Phase(1.5, 0.5, Sign.MINUS)
    yield ph, mp.mpc(solve_complex_pair(ph).location)
    ph = Phase(3.0, 0.2, Sign.PLUS)
    yield ph, mp.mpc(complex_saddle_chain(ph, 1)[0].location)


@pytest.mark.parametrize("case", range(3), ids=["real", "conjugate", "chain"])
def test_simple_coeffs_match_lagrange_inversion_to_order_15(case):
    ph, u = list(_high_order_cases())[case]
    with mp.workdps(60):
        u0 = _polished(ph, u)
        got = simple_coeffs_mp(ph, u0, 15)
        b = _lagrange_b(ph, u0, 2, 31)
        for k in range(16):
            want = (-1) ** k * (2 * k + 1) * b[2 * k] / b[0]
            assert abs(got[k] - want) <= mp.mpf(10) ** -40 * abs(want), k


@pytest.mark.parametrize("lam", [0.5, 1.7, 4.0])
def test_cubic_reversion_matches_lagrange_to_order_20(lam):
    # B_k is a fixed multiple of b_(k+1), so B_0..B_20 need b_1..b_21
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    with mp.workdps(60):
        lm = mp.mpf(lam)
        u0 = 2 * mp.log(lm) / (1 + lm)
        got = _saddle_reversion(ph, u0, 3, 21)
        want = _lagrange_b(ph, u0, 3, 21)
        for j, (g, w) in enumerate(zip(got, want), start=1):
            assert abs(g - w) <= mp.mpf(10) ** -40 * abs(w), j
