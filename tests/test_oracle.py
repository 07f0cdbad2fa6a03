"""Series oracle: summation control, Gamma poles, scaled wrappers.

The lam = 1 reduction to a modified Bessel function is the main external
check: W_{1,mu}(z) = z^((1-mu)/2) I_{mu-1}(2 sqrt(z)), with the Bessel
side summed here from its own defining series (gamma, not rgamma, so the
two paths share no code).
"""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from plain_oracle import plain_sum_series
from wrightasym import oracle, saddles
from wrightasym.core import DomainError, ScaledArgs, Sign, WrightParams
from wrightasym.oracle import (
    NoConvergence,
    PrecisionConfig,
    PrecisionLoss,
    w_minus,
    w_plus,
    wright_series,
)


def _check_mp_value(res, ref):
    # the double is the mp value's rounding, and that value agrees with
    # the reference result ref to the digits res reports
    assert res.value == float(res.mp_value)
    with mp.workdps(140):
        rel = abs(res.mp_value - ref.mp_value) / abs(ref.mp_value)
        assert rel < mp.mpf(10) ** -res.significant_digits


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
    _check_mp_value(res, wright_series(WrightParams(1.0, mu), z,
                                       PrecisionConfig(120)))


# -- summation control ----------------------------------------------------

GRID = [(-0.25, 1.0), (1.0, 1.20), (0.50, 0.80), (1.50, 0.50), (2.0, 1.0)]


# (1, 1) lies on the coalescence curve a*(1) = 1
@pytest.mark.parametrize("lam,a", GRID + [(1.0, 1.0)])
@pytest.mark.parametrize("sign", [Sign.MINUS, Sign.PLUS])
def test_precision_doubling_stability(lam, a, sign):
    """+20 working digits must not move the double-rounded value, and
    the mp value agrees with a 120-digit one to the digits reported."""
    args = ScaledArgs(lam, a, 40.0, sign)
    fn = w_minus if sign is Sign.MINUS else w_plus
    res = fn(args, PrecisionConfig(60))
    v1 = float(res.mp_value)
    v2 = float(fn(args, PrecisionConfig(80)).mp_value)
    assert v1 == pytest.approx(v2, rel=1e-14)
    _check_mp_value(res, fn(args, PrecisionConfig(120)))


def test_tiny_sum_keeps_relative_accuracy():
    # the bare series here sums to ~1e-59 while its peak term is ~1e-38;
    # the stop rule has to scale with the partial sums, not any fixed floor
    args = ScaledArgs(-0.25, 1.0, 40.0, Sign.MINUS)
    v60 = w_minus(args, PrecisionConfig(60)).mp_value
    v100 = w_minus(args, PrecisionConfig(100)).mp_value
    with mp.workdps(50):
        assert abs(v60 - v100) / abs(v100) < mp.mpf(10) ** (-40)


def test_no_convergence_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_TERMS", 5)
    with pytest.raises(NoConvergence):
        wright_series(WrightParams(0.5, 1.0), 5.0, PrecisionConfig(30))


def test_precision_loss_raises_with_surviving_count():
    args = ScaledArgs(-0.25, 1.0, 200.0, Sign.MINUS)
    with pytest.raises(PrecisionLoss) as exc:
        w_minus(args, PrecisionConfig(30))
    assert exc.value.surviving_digits <= 0


def test_w_minus_reports_total_cancellation():
    # a 400-digit sum loses 100.09 digits here, so 60 - 100.09 survive
    args = ScaledArgs(-0.9, 1.0, 100.0, Sign.MINUS)
    with pytest.raises(PrecisionLoss) as exc:
        w_minus(args, PrecisionConfig(60))
    assert exc.value.surviving_digits == -40


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
    with pytest.raises(DomainError, match=r"^w_minus requires sign=Minus$"):
        w_minus(ScaledArgs(0.5, 1.0, 10.0, Sign.PLUS))
    with pytest.raises(DomainError, match=r"^w_plus requires sign=Plus$"):
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


@pytest.mark.parametrize("lam,mu,want", [(0.5, 0.0, 0.0), (0.5, -1.0, 0.0),
                                          (0.5, 3.0, 0.5)])
def test_zero_argument_is_the_first_term(monkeypatch, lam, mu, want):
    # at z = 0 only the n = 0 term 1/Gamma(mu) is left, and a pole of
    # Gamma(mu) makes the value an exact 0 with no cancellation; a budget
    # of 5 terms would run out if the sum went on past n = 0
    monkeypatch.setattr(oracle, "_MAX_TERMS", 5)
    res = wright_series(WrightParams(lam, mu), 0.0)
    assert res.value == want
    assert res.truncation_index == 0
    assert not res.low_precision


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


# -- the summation kernel ---------------------------------------------------
#
# _sum_series runs the plain loop on Python ints: z^n/n! as a mantissa of
# wp + 64 bits and an exponent, the sum in units 64 bits under 2^-wp of
# the largest term, so each term is off by at most n 2^-(wp+63) of itself
# plus one unit.  Each 1/Gamma comes either from a ratio chain or at fewer
# bits far below the peak, so its sums stay within 10^-(D+10) of the peak
# term of the plain loop's.  Swapping the plain loop (plain_oracle.py)
# back in must give the same results, field for field, or the same
# exception with the same message.

KERNEL_POINTS = [
    # (lam, a, x, sign, decimal_digits)
    (-0.9, 1.0, 20.0, Sign.MINUS, 60),
    (-0.9, 1.0, 100.0, Sign.MINUS, 60),      # refused unsummed, -40 digits
    (-0.75, 0.6, 50.0, Sign.PLUS, 60),
    (-0.5, 0.5, 40.0, Sign.MINUS, 60),       # Gamma poles at n = 42, 44, ...
    (-0.5, 0.25, 8.0, Sign.PLUS, 60),        # ... and at n = 6, 8, ...
    (-0.25, 1.0, 40.0, Sign.MINUS, 60),
    (-0.25, 1.0, 100.0, Sign.PLUS, 60),
    (-0.25, 1.0, 200.0, Sign.MINUS, 30),     # refused unsummed
    (0.0, 0.7, 30.0, Sign.MINUS, 60),
    (0.0, 0.7, 30.0, Sign.PLUS, 60),
    (0.3, 0.9, 120.0, Sign.MINUS, 60),
    (0.5, 0.8, 60.0, Sign.MINUS, 60),
    (0.5, 0.8, 400.0, Sign.PLUS, 60),
    (1.0, 0.5, 4.0, Sign.MINUS, 60),
    (1.0, 1.2, 40.0, Sign.MINUS, 60),
    (1.0, 1.5, 24.0, Sign.PLUS, 60),
    (1.5, 0.5, 40.0, Sign.MINUS, 100),
    (1.5, 0.5, 80.0, Sign.MINUS, 30),        # low precision
    (1.5, 0.5, 200.0, Sign.MINUS, 60),
    (2.0, 0.5, 40.0, Sign.MINUS, 60),
    (2.0, 0.6, 400.0, Sign.MINUS, 60),
    (3.0, 0.2, 40.0, Sign.PLUS, 60),
    (3.0, 0.2, 400.0, Sign.PLUS, 60),
    (4.0, 0.3, 300.0, Sign.MINUS, 60),
    (5.5, 0.25, 250.0, Sign.MINUS, 60),
    (6.0, 0.2, 400.0, Sign.PLUS, 60),
    (6.0, 0.5, 100.0, Sign.MINUS, 60),
    (0.3, 0.2, 400.0, Sign.PLUS, 60),        # peak 337 bits over t_0 > W
]


def _fields(fn, *args):
    try:
        r = fn(*args)
    except (PrecisionLoss, NoConvergence) as e:
        return type(e).__name__, str(e)
    return (repr(r.value), r.truncation_index, r.significant_digits,
            r.low_precision, repr(r.last_term_magnitude))


def _kernel_and_plain(monkeypatch, fn, *args):
    got = _fields(fn, *args)
    monkeypatch.setattr(oracle, "_sum_series", plain_sum_series)
    return got, _fields(fn, *args)


@pytest.mark.parametrize("lam,a,x,sign,digits", KERNEL_POINTS)
def test_kernel_matches_plain_loop(monkeypatch, lam, a, x, sign, digits):
    fn = w_minus if sign is Sign.MINUS else w_plus
    got, want = _kernel_and_plain(monkeypatch, fn, ScaledArgs(lam, a, x, sign),
                                  PrecisionConfig(digits))
    assert got == want


@pytest.mark.parametrize("lam,mu,z", [(0.5, 0.0, 0.0), (0.5, 3.0, 0.0),
                                      (0.0, -2.0, 1.5), (-0.5, 0.5, -3.0),
                                      (1.0, -2.0, 1.5), (0.5, -1.0, 2.0),
                                      (2.0, -5.0, 3.0), (0.25, -2.0, -1.0),
                                      (-0.5, 1.0, 2.0), (0.3, 1.0, 2.0),
                                      (1.7, 0.5, -1.0), (-0.55, 2.0, 0.5)])
def test_kernel_matches_plain_loop_unscaled(monkeypatch, lam, mu, z):
    # z = 0, a pole of Gamma(mu) at lam = 0, poles on every odd term,
    # upward ratio chains leaving poles (q = 1, 2, 4) and a downward one
    # running into them; the last three have a 1-bit z mantissa and no
    # chain, so z^n/n! is renormalised after every division by n
    got, want = _kernel_and_plain(monkeypatch, wright_series,
                                  WrightParams(lam, mu), z, PrecisionConfig())
    assert got == want


@pytest.mark.parametrize("budget", range(1, 46))
def test_kernel_settles_or_refuses_as_the_plain_loop(monkeypatch, budget):
    # the loop stops at n = 40, so the budget runs out well before the
    # stop (refused by the pre-pass), just before it, and not at all
    monkeypatch.setattr(oracle, "_MAX_TERMS", budget)
    got, want = _kernel_and_plain(monkeypatch, wright_series,
                                  WrightParams(0.5, 1.0), 5.0,
                                  PrecisionConfig(30))
    assert got == want


@settings(max_examples=50, deadline=None, derandomize=True)
@given(lam=st.floats(-0.95, 6.0, exclude_min=True),
       a=st.floats(0.05, 2.0), x=st.floats(0.5, 150.0),
       minus=st.booleans(), digits=st.sampled_from((30, 60)))
def test_kernel_matches_plain_loop_anywhere(lam, a, x, minus, digits):
    # as the fixed points above, at random points
    sign = Sign.MINUS if minus else Sign.PLUS
    fn = w_minus if minus else w_plus
    args = (ScaledArgs(lam, a, x, sign), PrecisionConfig(digits))
    with pytest.MonkeyPatch.context() as patch:
        got, want = _kernel_and_plain(patch, fn, *args)
    assert got == want


def _bare_sum(fn, lam, a, x, sign, digits):
    with mp.workdps(digits + oracle._GUARD_DIGITS):
        lm, xm = mp.mpf(lam), mp.mpf(x)
        mu = mp.mpf(a) * xm + 1
        z = (xm / 2) ** (lm + 1) * (-1 if sign is Sign.MINUS else 1)
        prec = PrecisionConfig(digits)
        return fn(lm, mu, z, prec, oracle._gamma_bits(lm, mu, z, prec))


@pytest.mark.parametrize("lam,a,x,sign", [
    (1.0, 1.2, 40.0, Sign.MINUS), (2.0, 0.5, 40.0, Sign.MINUS),
    (3.0, 0.2, 40.0, Sign.PLUS), (1.5, 0.5, 200.0, Sign.MINUS),
    (-0.5, 0.5, 40.0, Sign.MINUS), (4.0, 0.3, 300.0, Sign.MINUS),
    (6.0, 0.2, 400.0, Sign.PLUS), (0.5, 0.8, 60.0, Sign.MINUS),
    (-0.25, 1.0, 40.0, Sign.MINUS), (0.125, 1.0, 40.0, Sign.MINUS)])
def test_kernel_sum_within_bound_of_higher_precision(lam, a, x, sign):
    # the tapered or chained 1/Gamma leaves the bare sum within 10^-(D+10)
    # of the peak term of a plain sum at 40 more digits
    s, peak, _, _ = _bare_sum(oracle._sum_series, lam, a, x, sign, 60)
    ref, _, _, _ = _bare_sum(plain_sum_series, lam, a, x, sign, 100)
    with mp.workdps(130):
        assert abs(s - ref) <= mp.mpf(10) ** -70 * peak


def test_distrusted_peak_is_summed_again_at_full_precision(monkeypatch):
    # a tapered sum whose peak falls any amount short of the predicted
    # one is summed again with every 1/Gamma at full precision: that is
    # the sum with no taper at all
    args = ScaledArgs(0.3, 1.3, 200.0, Sign.PLUS)
    monkeypatch.setattr(oracle, "_TAPER_BELOW", 10 ** 9)
    want = w_plus(args)
    monkeypatch.undo()
    runs, tapered = 0, []
    sum_terms, rgammas = oracle._sum_terms, oracle._rgamma_tapered

    def counted(*args):
        nonlocal runs
        runs += 1
        return sum_terms(*args)

    def recorded(lam, mu, wp, rnd, bits):
        tapered.append(min(bits, default=wp) < wp)
        return rgammas(lam, mu, wp, rnd, bits)

    monkeypatch.setattr(oracle, "_sum_terms", counted)
    monkeypatch.setattr(oracle, "_rgamma_tapered", recorded)
    monkeypatch.setattr(oracle, "_PEAK_SLACK", -10 ** 6)
    assert w_plus(args) == want
    assert runs == 2 and tapered == [True, False]


def _count_rgamma(monkeypatch):
    calls = []
    real = oracle.mpf_rgamma

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "mpf_rgamma", counted)
    return calls


@pytest.mark.parametrize("budget,call", [
    (5, lambda: wright_series(WrightParams(0.5, 1.0), 5.0,
                              PrecisionConfig(30))),
    (3000, lambda: w_plus(ScaledArgs(0.5, 1.0, 1e6, Sign.PLUS))),
], ids=["tiny-budget", "huge-x"])
def test_unsettling_series_refused_before_any_gamma(monkeypatch, budget,
                                                    call):
    monkeypatch.setattr(oracle, "_MAX_TERMS", budget)
    calls = _count_rgamma(monkeypatch)
    with pytest.raises(NoConvergence, match="did not settle within"):
        call()
    assert calls == []


def test_settling_series_is_summed(monkeypatch):
    # one term more than the stop needs: the pre-pass must not refuse
    args = ScaledArgs(3.0, 0.2, 40.0, Sign.PLUS)
    n_last = w_plus(args).truncation_index
    monkeypatch.setattr(oracle, "_MAX_TERMS", n_last + 1)
    res = w_plus(args)
    assert res.truncation_index == n_last
    monkeypatch.undo()
    # lam = 3.1 is no integer over a power of two <= 8: one rgamma a term
    args = ScaledArgs(3.1, 0.2, 40.0, Sign.PLUS)
    n_last = w_plus(args).truncation_index
    monkeypatch.setattr(oracle, "_MAX_TERMS", n_last + 1)
    calls = _count_rgamma(monkeypatch)
    res = w_plus(args)
    assert res.truncation_index == n_last
    assert len(calls) == n_last + 1


@pytest.mark.parametrize("lam,a,sign,q", [(3.0, 0.2, Sign.PLUS, 1),
                                          (0.5, 0.8, Sign.MINUS, 2),
                                          (-0.25, 1.0, Sign.MINUS, 4)])
def test_ratio_chain_calls_rgamma_for_its_seeds_only(monkeypatch, lam, a,
                                                     sign, q):
    # q*lam is an integer: only the first q terms call rgamma
    calls = _count_rgamma(monkeypatch)
    res = (w_minus if sign is Sign.MINUS else w_plus)(
        ScaledArgs(lam, a, 40.0, sign))
    assert res.truncation_index > q
    assert len(calls) == q


@pytest.mark.parametrize("lam,mu", [
    (6.0, 81.0), (1.5, 21.0), (1.0, -2.0), (0.5, 0.8), (0.125, 3.7),
    (-0.25, 41.3), (-0.5, 3.0), (16.0, 0.3), (-16.0, 300.5)])
def test_ratio_chain_within_guard_of_rgamma(lam, mu):
    # every chained 1/Gamma(lam*n + mu) stays within 2^-(wp+32) of the
    # exact value, and is exactly 0 on a pole
    wp = 200
    lm, mm = mp.mpf(lam), mp.mpf(mu)
    step = oracle._ratio_step(lm._mpf_)
    assert step is not None
    chain = oracle._rgamma_chain(lm._mpf_, mm._mpf_, *step, wp,
                                 oracle.round_nearest)
    with mp.workprec(wp + 128):
        for n in range(300):
            got, x = mp.mpf(next(chain)), lm * n + mm
            if x <= 0 and x == int(x):
                assert got == 0, f"n = {n}: pole at {x}"
            else:
                want = mp.rgamma(x)
                assert abs(got - want) <= mp.ldexp(abs(want), -wp - 32), n


# -- refusal before the sum and the tail cap ----------------------------------

def _loss(lam, a, x, digits):
    """(log10(peak / |sum|) of the bare minus-axis series, summed by the
    kernel at `digits`; the pre-pass's log2 peak)."""
    s, peak, _, _ = _bare_sum(oracle._sum_series, lam, a, x, Sign.MINUS,
                              digits)
    with mp.workdps(digits):
        loss = float(mp.log10(peak / abs(s)))
    with mp.workdps(digits + oracle._GUARD_DIGITS):
        lm, xm = mp.mpf(lam), mp.mpf(x)
        top = oracle._gamma_bits(lm, mp.mpf(a) * xm + 1,
                                 -(xm / 2) ** (lm + 1),
                                 PrecisionConfig(digits))[1]
    return loss, top


@pytest.mark.parametrize("lam,a,x,digits", [(-0.9, 1.0, 100.0, 60),
                                            (-0.25, 1.0, 200.0, 30)])
def test_kernel_matches_plain_loop_past_the_refusal(lam, a, x, digits):
    # w_minus refuses these sums unsummed; the kernel still stops where
    # the plain loop does, within 10^-(D+10) of the peak term
    got = _bare_sum(oracle._sum_series, lam, a, x, Sign.MINUS, digits)
    want = _bare_sum(plain_sum_series, lam, a, x, Sign.MINUS, digits)
    assert got[2] == want[2]
    with mp.workdps(digits + 40):
        bound = mp.mpf(10) ** -(digits + 10) * want[1]
        assert abs(got[0] - want[0]) <= bound
        assert abs(got[1] - want[1]) <= bound


@pytest.mark.parametrize("lam,a,x", [(-0.9, 1.0, 100.0), (-0.25, 1.0, 200.0),
                                     (0.5, 0.8, 200.0), (1.5, 0.5, 400.0)])
def test_hopeless_sum_refused_before_any_gamma(monkeypatch, lam, a, x):
    # the leading saddle term predicts the loss a 130-digit sum measures
    loss, _ = _loss(lam, a, x, 130)
    calls = _count_rgamma(monkeypatch)
    with pytest.raises(PrecisionLoss, match="predicts") as exc:
        w_minus(ScaledArgs(lam, a, x, Sign.MINUS), PrecisionConfig(60))
    assert calls == []
    assert exc.value.surviving_digits == int(60 - loss)


def _minus_points(rng, per_kind):
    # lam <= 0; above and below the coalescence curve; the band 1e-6..1e-1
    # on both sides of it; and within 1e-6, where the double term is used
    offsets = [lambda: 1 + rng.uniform(0.1, 1.0),
               lambda: 1 - rng.uniform(0.1, 0.8),
               lambda: 1 + 10 ** rng.uniform(-6, -1),
               lambda: 1 - 10 ** rng.uniform(-6, -1),
               lambda: 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -6.2)]
    for _ in range(per_kind):
        yield rng.uniform(-0.95, 0.0), rng.uniform(0.2, 2.0), \
            rng.uniform(5, 120)
        for off in offsets:
            lam = rng.uniform(0.2, 4.0)
            yield lam, saddles.double_saddle_curve(lam) * off(), \
                rng.uniform(5, 120)


def test_predicted_loss_never_above_the_measured():
    # one-sided: a refusal needs a loss the sum would really suffer
    checked = 0
    for lam, a, x in _minus_points(random.Random(24), 17):
        digits = 30
        while True:
            loss, top = _loss(lam, a, x, digits)
            if loss < digits - 10:
                break
            digits += 50
        if loss >= 70:
            continue
        checked += 1
        pred = oracle._predicted_loss(ScaledArgs(lam, a, x, Sign.MINUS), top)
        assert pred <= loss + 0.09, (lam, a, x, pred, loss)
    assert checked >= 90


def test_sum_just_under_the_refusal_threshold_is_summed(monkeypatch):
    # predicted 29.08 and 29.11 digits lost at 30 requested, either side
    # of 30 - 0.9: the first is summed (and fails the post-sum rule), the
    # second refused unsummed
    calls = _count_rgamma(monkeypatch)
    with pytest.raises(PrecisionLoss, match="survived the summation"):
        w_minus(ScaledArgs(0.3, 0.9, 83.1, Sign.MINUS), PrecisionConfig(30))
    assert calls
    calls.clear()
    with pytest.raises(PrecisionLoss, match="predicts"):
        w_minus(ScaledArgs(0.3, 0.9, 83.2, Sign.MINUS), PrecisionConfig(30))
    assert calls == []


@pytest.mark.parametrize("lam,a,x,sign,most", [
    (-0.9, 1.0, 40.0, Sign.PLUS, 57), (-0.8, 1.0, 60.0, Sign.PLUS, 58),
    (-0.9, 1.0, 20.0, Sign.MINUS, 38)])
def test_digits_capped_by_the_tail_past_the_stop(lam, a, x, sign, most):
    # near lam = -1 the terms after the stop add up to many times the
    # last one; the 60-digit sum is off by more than 10^-60
    args = ScaledArgs(lam, a, x, sign)
    fn = w_minus if sign is Sign.MINUS else w_plus
    res = fn(args)
    v60 = res.mp_value
    v100 = fn(args, PrecisionConfig(100)).mp_value
    with mp.workdps(120):
        correct = -mp.log10(abs(v60 - v100) / abs(v100))
    assert res.significant_digits <= min(most, correct)
