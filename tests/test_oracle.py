"""Series oracle: summation control, Gamma poles, scaled wrappers.

The lam = 1 reduction to a modified Bessel function is the main external
check: W_{1,mu}(z) = z^((1-mu)/2) I_{mu-1}(2 sqrt(z)), with the Bessel
side summed here from its own defining series (gamma, not rgamma, so the
two paths share no code).
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest

from wrightasym.core import ScaledArgs, Sign, WrightParams
from wrightasym.oracle import (
    NoConvergence,
    PrecisionConfig,
    PrecisionLoss,
    mp_scaled_value,
    w_minus,
    w_plus,
    wright_series,
)


def _bessel_i(order, w, dps=40):
    # independent modified-Bessel series: sum over m of
    # (w/2)^(2m+order) / (m! Gamma(m+order+1))
    with mp.workdps(dps):
        half = mp.mpf(w) / 2
        s = mp.mpf(0)
        for m in range(200):
            s += half ** (2 * m + order) / (mp.factorial(m) * mp.gamma(m + order + 1))
        return s


# -- Bessel reduction at lam = 1 -----------------------------------------

@pytest.mark.parametrize("mu", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("z", [0.5, 1.0, 4.0])
def test_bessel_reduction(mu, z):
    res = wright_series(WrightParams(1.0, mu), z)
    with mp.workdps(40):
        ref = mp.mpf(z) ** ((1 - mp.mpf(mu)) / 2) * _bessel_i(mu - 1, 2 * mp.sqrt(mp.mpf(z)))
        rel = abs((mp.mpf(res.value) - ref) / ref)
        assert rel < 5e-13, f"mu={mu} z={z}: rel dev {float(rel):.2e}"


# -- summation control ----------------------------------------------------

GRID = [(-0.25, 1.0), (1.0, 1.20), (0.50, 0.80), (1.50, 0.50), (2.0, 1.0)]


@pytest.mark.parametrize("lam,a", GRID)
@pytest.mark.parametrize("sign", [Sign.MINUS, Sign.PLUS])
def test_precision_doubling_stability(lam, a, sign):
    """+20 working digits must not move the double-rounded value."""
    args = ScaledArgs(lam, a, 40.0, sign)
    v1 = float(mp_scaled_value(args, PrecisionConfig(60)))
    v2 = float(mp_scaled_value(args, PrecisionConfig(80)))
    assert v1 == pytest.approx(v2, rel=1e-14)


def test_tiny_sum_keeps_relative_accuracy():
    # the bare series here sums to ~1e-59 while its peak term is ~1e-38;
    # the stop rule has to scale with the partial sums, not any fixed floor
    args = ScaledArgs(-0.25, 1.0, 40.0, Sign.MINUS)
    v60 = mp_scaled_value(args, PrecisionConfig(60))
    v100 = mp_scaled_value(args, PrecisionConfig(100))
    with mp.workdps(50):
        assert abs(v60 - v100) / abs(v100) < mp.mpf(10) ** (-40)


def test_no_convergence_on_tiny_budget():
    with pytest.raises(NoConvergence):
        wright_series(WrightParams(0.5, 1.0), 5.0,
                      PrecisionConfig(30, max_terms=5))


def test_precision_loss_raises_with_surviving_count():
    args = ScaledArgs(-0.25, 1.0, 200.0, Sign.MINUS)
    with pytest.raises(PrecisionLoss) as exc:
        w_minus(args, PrecisionConfig(30))
    assert exc.value.surviving_digits <= 0


def test_low_precision_flag_under_heavy_cancellation():
    res = w_minus(ScaledArgs(1.5, 0.5, 80.0, Sign.MINUS), PrecisionConfig(30))
    assert res.low_precision
    assert 0 < res.significant_digits < 16


def test_eval_result_metadata():
    res = w_minus(ScaledArgs(1.5, 0.5, 40.0, Sign.MINUS))
    assert res.truncation_index > 10
    assert res.last_term_magnitude < 1e-60
    assert res.significant_digits >= 40
    assert not res.low_precision


def test_minimum_precision_enforced():
    with pytest.raises(Exception):
        PrecisionConfig(10)


# -- scaled wrappers ------------------------------------------------------

def test_w_plus_positive_on_sample_grid():
    for lam, a in GRID:
        res = w_plus(ScaledArgs(lam, a, 20.0, Sign.PLUS))
        assert res.value > 0.0, f"W+ not positive at lam={lam}, a={a}"


def test_scaled_wrappers_check_sign():
    with pytest.raises(Exception):
        w_minus(ScaledArgs(0.5, 1.0, 10.0, Sign.PLUS))
    with pytest.raises(Exception):
        w_plus(ScaledArgs(0.5, 1.0, 10.0, Sign.MINUS))


def test_known_value_via_bessel_closed_form():
    # lam=1, a=0.5, x=4: W- = (x/2)^nu W_{1,nu+1}(-(x/2)^2) with nu=2.
    # W_{1,3}(w) = w^-1 I_2(2 sqrt(w)), and at w=-4: sqrt(w)=2i,
    # I_2(4i) = -J_2(4), so W- = 4 * (-1/4) * (-J_2(4)) = J_2(4).
    res = w_minus(ScaledArgs(1.0, 0.5, 4.0, Sign.MINUS))
    with mp.workdps(40):
        ref = mp.besselj(2, 4)
        assert abs(mp.mpf(res.value) - ref) / abs(ref) < 1e-13


# -- Gamma poles inside the series ------------------------------------------

@pytest.mark.parametrize("z", [-3.0, -1.0, 0.5, 2.0, 5.0])
def test_gamma_poles_do_not_end_the_sum(z):
    # W_{-1/2,1/2}(z) = e^(-z^2/4)/sqrt(pi); every odd term sits on a pole
    # of Gamma(1/2 - n/2) and is exactly zero
    res = wright_series(WrightParams(-0.5, 0.5), z)
    assert res.value == pytest.approx(math.exp(-z * z / 4) / math.sqrt(math.pi),
                                      rel=1e-14)


def _fixed_length_sum(args, n_terms, dps):
    # independent of the oracle's stop rule: a fixed number of terms
    with mp.workdps(dps):
        lam, xm = mp.mpf(args.lam), mp.mpf(args.x)
        nu = mp.mpf(args.a) * xm
        z = (xm / 2) ** (lam + 1) * (-1 if args.sign is Sign.MINUS else 1)
        s = mp.fsum(z ** n / mp.factorial(n) * mp.rgamma(lam * n + nu + 1)
                    for n in range(n_terms))
        return (xm / 2) ** nu * s


@pytest.mark.parametrize("lam,a,x,sign", [(-0.5, 0.5, 40.0, Sign.MINUS),
                                          (-0.5, 0.25, 8.0, Sign.PLUS)])
def test_scaled_sum_runs_past_gamma_poles(lam, a, x, sign):
    # Gamma(lam*n + nu + 1) has poles at n = 42, 44, ... (first point) and
    # n = 6, 8, ... (second), long before the terms have decayed
    args = ScaledArgs(lam, a, x, sign)
    res = (w_minus if sign is Sign.MINUS else w_plus)(args)
    ref = _fixed_length_sum(args, 400, 80)
    assert res.value == pytest.approx(float(ref), rel=1e-14)
    assert not res.low_precision
