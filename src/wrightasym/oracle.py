"""High-precision direct summation of the Wright series.

This is the ground-truth side of the package: every asymptotic result is
judged against these sums.  All arithmetic runs in mpmath at a configurable
decimal precision with a guard margin; a result carries its value at that
precision and its double rounding.  The series

    W_{lam,mu}(z) = sum_{n>=0} z^n / (n! Gamma(lam*n + mu))

converges for every finite z when lam > -1, but for the negative-argument
scaled variant the terms alternate and cancellation can eat a large part of
the working precision, which is why the summation tracks the peak term
magnitude and reports how many digits survived.  The two scaled
entries, w_minus and w_plus, are one body (_scaled) that checks the
arguments' sign, and wright_series shares everything past the parameters
with it.

The summation loop works on Python integers.  A pre-pass in doubles
estimates log2 of every term first, and it refuses at once a series that
provably cannot settle within the term budget.  On the minus axis its
peak term against the leading saddle term's |W-| predicts the
cancellation, and a sum that would keep no requested digit is refused
before it is summed.  Each term's 1/Gamma, which
is what a term costs, comes from one of two sources:

- when q*lam = p is an integer for a power of two q <= 8 and |p| <= 16
  (every lam of the paper's tables, and lam = +-1/2, 1 of the classical
  special cases), from the term q places back by a rising factorial,
  Gamma(x + p) = Gamma(x) (x)_p, at 64 bits above the working precision;
  only the first q terms, and a term just past a pole on an upward chain,
  call rgamma;
- for every other lam, from rgamma, at fewer bits for terms far below the
  peak the pre-pass predicts, never so few that a term's error reaches
  2^-prec of the peak term.

z^n/n! is kept as a mantissa of 64 bits above the working precision and
an exponent; the sum, the largest term and the largest partial sum are
integers in one unit, 64 bits below the working precision's last bit of
the largest term so far, and the stop rule compares them exactly.  Only
the result is rounded back to an mpf, once.  The error budget is
_sum_series's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_add, mpf_div,
                          mpf_mul, mpf_mul_int, mpf_rgamma, mpf_sub,
                          round_nearest, to_float)

from .core import DomainError, EvalResult, ScaledArgs, Sign, WrightParams
from .saddles import minus_log_scale

# extra working digits on top of the requested precision; the stop rule
# discards terms 10 extra digits below the running scale, leaving ~5 in hand
_GUARD_DIGITS = 15
_STOP_MARGIN = 10

# Gamma precision taper, in bits: a term at least _TAPER_BELOW under the
# predicted peak gets its 1/Gamma at max(_TAPER_FLOOR, wp - below +
# _TAPER_GUARD), so its error stays 2^-_TAPER_GUARD under 2^-wp x peak.
# The pre-pass runs until the tail is wp + _TAIL_BITS under its maximum.
_TAPER_BELOW = 64
_TAPER_GUARD = 32
_TAPER_FLOOR = 80
_TAIL_BITS = 64
# the summed peak may sit this far under the predicted one before the
# taper is distrusted and the series summed again at full precision
_PEAK_SLACK = 16
# Gamma-ratio chain: q*lam = p with q a power of two up to _CHAIN_MAX_Q.
# On a 2-CPU x86_64 with mpmath's pure-Python backend, a link costs about
# 3 us per factor of (x)_p at 250-320 bits, and an rgamma of a fresh
# argument 50-60 us even at 80-160 bits (100-150 us at 200-320), so
# |p| <= 16 keeps every link under the cheapest rgamma.
# Links run _CHAIN_GUARD bits above wp: 10^5 links of at most 2|p| + 1
# roundings each stay under the taper's 2^-(wp + _TAPER_GUARD) budget.
_CHAIN_MAX_Q = 8
_CHAIN_MAX_P = 16
_CHAIN_GUARD = 64
# the term loop's integers: z^n/n! keeps wp + _ACC_GUARD bits, and the
# sum counts units _ACC_GUARD bits under 2^-wp of the largest term
_ACC_GUARD = 64
# bits of slack in the proof that a series cannot settle
_PROOF_SLACK = 4
# the term budget: a series that has not settled within _MAX_TERMS terms
# is refused with NoConvergence (the error budgets assume at most 10^5)
_MAX_TERMS = 100000
# a minus-axis sum is refused unsummed when the saddle estimate puts its
# cancellation at D + _REFUSE_MARGIN decimal digits or more (D requested):
# the post-sum rule refuses every measured loss above D - 1, and the
# estimate has not been seen more than 0.051 digits above the measured loss
_REFUSE_MARGIN = -0.9
# a Gamma argument this close (relative) to a pole is beyond the doubles
_POLE_TOL = 2.0 ** -30
_LOG2_10 = math.log2(10)
_LN2 = math.log(2)


class NoConvergence(RuntimeError):
    """Series failed to terminate within the term budget."""


class PrecisionLoss(RuntimeError):
    """Cancellation consumed the entire working precision: measured on
    the sum, or predicted before it (predicted_loss, in decimal digits)."""

    def __init__(self, surviving_digits: int,
                 predicted_loss: float | None = None):
        self.surviving_digits = surviving_digits
        if predicted_loss is None:
            msg = (f"only {surviving_digits} decimal digits survived the "
                   f"summation")
        else:
            msg = (f"the leading saddle term predicts {predicted_loss:.1f} "
                   f"decimal digits of cancellation: only {surviving_digits}"
                   f" would survive the summation")
        super().__init__(msg)


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision for oracle summations.

    decimal_digits is the target precision of the result (minimum 30).
    """

    decimal_digits: int = 60

    def __post_init__(self) -> None:
        if self.decimal_digits < 30:
            raise DomainError(
                f"decimal_digits must be at least 30, got {self.decimal_digits}"
            )


def _unsettled() -> NoConvergence:
    return NoConvergence(f"series did not settle within {_MAX_TERMS} terms")


def _gamma_bits(lam, mu, z, prec: PrecisionConfig):
    """Pre-pass in doubles over mpf arguments at the working precision:
    the bits each term's 1/Gamma is evaluated at.

    log2|t_n| = n log2|z| - (lgamma(n+1) + lgamma(lam*n + mu))/ln 2, with
    a pole of Gamma counted as -inf, is estimated until the tail lies
    wp + _TAIL_BITS under its maximum, or up to _MAX_TERMS.  Returns the
    bits for n = 0, 1, ... (later terms get wp), the predicted log2 of
    the peak term and the estimates themselves (None for a term near a
    pole, which doubles cannot resolve and which keeps wp).

    Raises NoConvergence when the estimates prove that the loop cannot
    settle: every term n < _MAX_TERMS stays above 10^-(D+10) (n+1) times
    the largest term so far, and (n+1) times that term bounds every
    partial sum so far, so the stop rule never fires.
    """
    wp, rnd = mp.mp.prec, round_nearest  # what mpf arithmetic uses
    lam, mu, z = lam._mpf_, mu._mpf_, z._mpf_
    lam_f, mu_f = to_float(lam), to_float(mu)
    if z == fzero or not (math.isfinite(lam_f) and math.isfinite(mu_f)):
        return [], -math.inf, []
    lz = math.log2(z[1]) + z[2]
    stop_bits = -(prec.decimal_digits + _STOP_MARGIN) * _LOG2_10 + _PROOF_SLACK
    est = []
    top = -math.inf
    settles = False
    try:
        for n in range(_MAX_TERMS):
            arg = lam_f * n + mu_f
            if arg < 0.5 and (abs(arg - round(arg))
                              <= _POLE_TOL * (abs(lam_f) * n + abs(mu_f) + 1)):
                # an exact pole makes the term 0, which never stops the
                # loop; any other term this close might
                x = mpf_add(mpf_mul_int(lam, n, wp, rnd), mu, wp, rnd)
                if not (x == fzero or (x[0] and x[2] >= 0)):
                    settles = True
                est.append(None)
                continue
            log_t = n * lz - (math.lgamma(n + 1) + math.lgamma(arg)) / _LN2
            est.append(log_t)
            if log_t > top:
                top = log_t
            if log_t < top + stop_bits + math.log2(n + 1):
                settles = True
                if log_t < top - wp - _TAIL_BITS:
                    break
        else:
            if not settles and top > -math.inf:
                raise _unsettled()
        bits = [wp if e is None or top - e < _TAPER_BELOW
                else max(_TAPER_FLOOR, wp - int(top - e) + _TAPER_GUARD)
                for e in est]
    except (OverflowError, ValueError):
        return [], -math.inf, []
    return bits, top, est


def _ratio_step(lam):
    """(p, q) with q*lam = p an integer, q the least power of two that
    makes it one, when q <= _CHAIN_MAX_Q and |p| <= _CHAIN_MAX_P; else
    None.  lam = 0 gives (0, 1)."""
    if lam == fzero:
        return 0, 1
    sign, man, exp, _ = lam  # lam = (-1)^sign man 2^exp with man odd
    if not man or exp > _CHAIN_MAX_P.bit_length():
        return None  # inf or nan, or |lam| >= 2^exp > _CHAIN_MAX_P
    q, p = 1 << max(-exp, 0), man << max(exp, 0)
    if q > _CHAIN_MAX_Q or p > _CHAIN_MAX_P:
        return None
    return (-p if sign else p), q


def _rgamma_tapered(lam, mu, wp, rnd, bits):
    """1/Gamma(lam*n + mu) for n = 0, 1, ...: the argument summed exactly
    in integers and rounded once to wp bits, the value at bits[n] (wp
    past the end of bits)."""
    (ls, lman, lexp, _), (ms, mman, mexp, _) = lam, mu
    exp = min(lexp, mexp)
    step = (-lman if ls else lman) << (lexp - exp)
    arg = (-mman if ms else mman) << (mexp - exp)
    n_bits = len(bits)
    n = 0
    while True:
        yield mpf_rgamma(from_man_exp(arg, exp, wp, rnd),
                         bits[n] if n < n_bits else wp, rnd)
        arg += step
        n += 1


def _rgamma_chain(lam, mu, p, q, wp, rnd):
    """1/Gamma(x_n), x_n = lam*n + mu, for n = 0, 1, ..., when q*lam = p.

    Everything runs at wp + _CHAIN_GUARD bits.  The first q values come
    from rgamma; term n from term n - q, with x = x_(n-q):
    p > 0 divides by (x)_p = x (x+1) ... (x+p-1), or calls rgamma again
    when 1/Gamma(x) is 0 (x is a pole, x + p may not be); p < 0 multiplies
    by (x-1) (x-2) ... (x-|p|), which is exactly 0 when the chain reaches
    a pole; p = 0 (lam = 0) repeats the value.
    """
    prec = wp + _CHAIN_GUARD
    ring = []
    for n in range(q):
        x = mpf_add(mpf_mul_int(lam, n, prec, rnd), mu, prec, rnd)
        rg = mpf_rgamma(x, prec, rnd)
        ring.append((x, rg))
        yield rg
    step = from_int(p)
    ks = [from_int(k) for k in range(1, abs(p))]
    i = 0
    while True:
        x, rg = ring[i]
        x_next = mpf_add(x, step, prec, rnd)
        if p > 0:
            if rg == fzero:
                rg = mpf_rgamma(x_next, prec, rnd)
            else:
                poch = x
                for k in ks:
                    poch = mpf_mul(poch, mpf_add(x, k, prec, rnd), prec, rnd)
                rg = mpf_div(rg, poch, prec, rnd)
        elif p < 0:
            for k in ks:
                rg = mpf_mul(rg, mpf_sub(x, k, prec, rnd), prec, rnd)
            rg = mpf_mul(rg, x_next, prec, rnd)
        ring[i] = (x_next, rg)
        i = i + 1 if i + 1 < q else 0
        yield rg


def _sum_series(lam, mu, z, prec: PrecisionConfig, pre):
    """Core loop shared by all entry points; runs inside a workdps block,
    after the pre-pass, whose result pre is.

    Returns (sum, peak_mag, n_last, last_term_mag); perfbench/spans.py
    reads n_last at index 2.  When q*lam is a small integer (_ratio_step),
    each term's 1/Gamma comes from the term q places back
    (_rgamma_chain).  Otherwise it is evaluated at the bits _gamma_bits
    picked, so only the cost of terms far below the peak drops; if the
    summed peak falls short of the predicted one, the series is summed
    again with every 1/Gamma at full precision.

    The loop (_sum_terms) runs on Python ints, with W = wp + _ACC_GUARD:
    c_n = |z|^n/n! is a W-bit mantissa and an exponent, its mantissa
    advanced by ((c_(n-1) zman) << 32) // n, zman z's, and renormalised
    to W bits in either direction; term n is c_n times the 1/Gamma
    mantissa, its sign that of 1/Gamma flipped for odd n when z < 0.  The
    sum, the largest term and the largest partial sum are integers in
    units of 2^U, U = (top bit of the largest term so far) - W; a larger
    term raises U and shifts all three right.  The stop test is
    the exact tm 10^(D+10) < maxps, and the sum is rounded to wp once.
    Error budget, at most 10^5 terms:
    - c_n is off by at most n 2^(1-W), relative, under 2^-(wp+46);
    - truncating a term, or shifting U up, loses less than one unit,
      2^-(wp+63) of the peak term; the terms and the shifts together stay
      under 2^-(wp+45) of it.
    Both sit inside the taper's 2^-(wp + _TAPER_GUARD) budget.
    """
    wp, rnd = mp.mp.prec, round_nearest  # what mpf arithmetic uses
    lam, mu, z = lam._mpf_, mu._mpf_, z._mpf_
    bits, top, _ = pre
    step = _ratio_step(lam)
    lam_zero = lam == fzero
    out = _sum_terms(z, lam_zero, wp, rnd, prec,
                     _rgamma_chain(lam, mu, *step, wp, rnd) if step
                     else _rgamma_tapered(lam, mu, wp, rnd, bits))
    peak_mag = out[1]
    if (not step and bits and min(bits) < wp
            and (peak_mag == fzero
                 or peak_mag[2] + peak_mag[3] < top - _PEAK_SLACK)):
        out = _sum_terms(z, lam_zero, wp, rnd, prec,
                         _rgamma_tapered(lam, mu, wp, rnd, []))
    s, peak_mag, n, last = out
    make = mp.mp.make_mpf
    return make(s), make(peak_mag), n, make(last)


def _sum_terms(z, lam_zero, wp, rnd, prec: PrecisionConfig, rgammas):
    # the plain loop on Python ints, with 1/Gamma(lam*n + mu) for
    # n = 0, 1, ... drawn from rgammas; the error budget is _sum_series's
    width = wp + _ACC_GUARD
    zsign, zman, zexp, _ = z
    cman, cexp = 1 << (width - 1), 1 - width  # c_0 = 1
    ten = 10 ** (prec.decimal_digits + _STOP_MARGIN)
    unit = -(1 << 62)  # no term yet: the first nonzero one raises it
    s = maxmag = maxps = 0
    peak = n = 0
    while True:
        sign, rman, rexp, _ = next(rgammas)
        pole = not rman
        if pole:
            tm = 0
        else:
            prod = cman * rman
            e = cexp + rexp
            rise = e + prod.bit_length() - width - unit
            if rise > 0:
                # a term above the largest so far: coarser unit, same width
                unit += rise
                s >>= rise
                maxmag >>= rise
                maxps >>= rise
            k = unit - e
            tm = prod >> k if k >= 0 else prod << -k
            if sign ^ (zsign & n):
                s -= tm
            else:
                s += tm
            if tm > maxmag:
                maxmag, peak = tm, n
            # The stop scale must be the largest partial sum seen, never
            # an absolute floor: when nu is large the bare series sums to
            # values like 1e-59 (the scaled prefactor restores the
            # magnitude), and any fixed cutoff would leave a fat relative
            # tail.
            ps = -s if s < 0 else s
            if ps > maxps:
                maxps = ps
        if not zman or (pole and lam_zero):
            # every later term vanishes: z^n for n > 0, or the common
            # factor 1/Gamma(mu) = 0 when lam = 0
            break
        # a pole of Gamma(lam*n + mu) says nothing about the tail
        if not pole and n > peak and tm * ten < maxps:
            break
        n += 1
        if n >= _MAX_TERMS:
            raise _unsettled()
        # c_n = c_(n-1) |z| / n, renormalised to width bits; 32 spare bits
        # keep the quotient above width bits for n < 2^32, so its floor
        # costs less than the renormalisation
        cman = ((cman * zman) << 32) // n
        shift = cman.bit_length() - width
        cman = cman >> shift if shift >= 0 else cman << -shift
        cexp += zexp - 32 + shift
    return (from_man_exp(s, unit, wp, rnd), from_man_exp(maxmag, unit, wp, rnd),
            n, fzero if pole else from_man_exp(prod, e, wp, rnd))


def _surviving_digits(series_sum, peak_mag, prec: PrecisionConfig) -> int:
    """Decimal digits left after cancellation: the working precision less
    the decades between the peak term and the sum.  Raises PrecisionLoss
    when none are left."""
    if abs(series_sum) > 0:
        lost = max(float(mp.log10(peak_mag / abs(series_sum))), 0.0)
    elif peak_mag == 0:
        lost = 0.0  # every term is exactly zero: nothing cancelled
    else:
        lost = float(prec.decimal_digits)
    surviving = int(prec.decimal_digits - lost)
    if surviving <= 0:
        raise PrecisionLoss(surviving)
    return surviving


def _tail_digits(series_sum, est, n_last):
    """Decimal digits of the sum that the terms after n_last leave, by
    the pre-pass's estimates of their moduli; inf when it has none."""
    tail = [e for e in est[n_last + 1:] if e is not None]
    if not tail:
        return math.inf
    if not series_sum:
        return 0
    top = max(tail)
    log2_tail = top + math.log2(math.fsum(2.0 ** (e - top) for e in tail))
    _, man, exp, _ = series_sum._mpf_
    return max(0, int((exp + math.log2(man) - log2_tail) / _LOG2_10))


def _finish(value_mp, series_sum, peak_mag, n_last, last_mag, pre,
            prec: PrecisionConfig) -> EvalResult:
    """The result: the value as computed, with the surviving-digit
    estimate, the working precision less the cancellation, capped by the
    tail the stop rule left out."""
    digits = min(_surviving_digits(series_sum, peak_mag, prec),
                 prec.decimal_digits, _tail_digits(series_sum, pre[2], n_last))
    return EvalResult(
        mp_value=value_mp,
        truncation_index=n_last,
        last_term_magnitude=float(last_mag),
        significant_digits=digits,
        low_precision=digits < 16,
    )


def wright_series(params: WrightParams, z: float,
                  prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Evaluate W_{lam,mu}(z) by direct summation."""
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        lam, mu, zm = mp.mpf(params.lam), mp.mpf(params.mu), mp.mpf(z)
        pre = _gamma_bits(lam, mu, zm, prec)
        s, peakm, n, last = _sum_series(lam, mu, zm, prec, pre)
        return _finish(s, s, peakm, n, last, pre, prec)


def _predicted_loss(args: ScaledArgs, top: float) -> float | None:
    """Decimal digits a minus-axis sum loses to cancellation, predicted:
    log10(peak term / |sum|) with the pre-pass's peak (log2 top) and the
    sum from the saddle layer's |W-| less the prefactor (x/2)^nu.  None
    where the saddle layer gives no estimate."""
    try:
        ln_w = minus_log_scale(args.lam, args.a, args.x)
    except (ArithmeticError, ValueError, RuntimeError):
        return None
    return (top - (ln_w - args.nu * math.log(args.x / 2)) / _LN2) / _LOG2_10


def _scaled(args: ScaledArgs, prec: PrecisionConfig,
            sign: Sign) -> EvalResult:
    """Scaled value at the working precision, for arguments of the given
    sign; nu = a*x and z = +-(x/2)^(lam+1) are formed in mp arithmetic so
    no double rounding enters the parameters.

    A minus-axis sum whose predicted cancellation (_predicted_loss) is at
    least decimal_digits + _REFUSE_MARGIN is refused with PrecisionLoss
    before any term is formed.
    """
    if args.sign is not sign:
        raise DomainError(f"w_{sign.value} requires "
                          f"sign={sign.value.title()}")
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        lm, am, xm = mp.mpf(args.lam), mp.mpf(args.a), mp.mpf(args.x)
        nu = am * xm
        mu = nu + 1
        z = (xm / 2) ** (lm + 1)
        if sign is Sign.MINUS:
            z = -z
        pre = _gamma_bits(lm, mu, z, prec)
        if sign is Sign.MINUS:
            loss = _predicted_loss(args, pre[1])
            if (loss is not None and prec.decimal_digits + _REFUSE_MARGIN
                    <= loss < math.inf):
                raise PrecisionLoss(int(prec.decimal_digits - loss), loss)
        s, peakm, n, last = _sum_series(lm, mu, z, prec, pre)
        return _finish((xm / 2) ** nu * s, s, peakm, n, last, pre, prec)


def w_minus(args: ScaledArgs,
            prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Negative-argument scaled Wright function (alternating series)."""
    return _scaled(args, prec, Sign.MINUS)


def w_plus(args: ScaledArgs,
           prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Positive-argument scaled Wright function (same-sign terms, so the
    summation is essentially cancellation-free)."""
    return _scaled(args, prec, Sign.PLUS)
