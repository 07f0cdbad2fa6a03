"""High-precision direct summation of the Wright series.

This is the ground-truth side of the package: every asymptotic result is
judged against these sums.  All arithmetic runs in mpmath at a configurable
decimal precision with a guard margin; only the final value is rounded to
double.  The series

    W_{lam,mu}(z) = sum_{n>=0} z^n / (n! Gamma(lam*n + mu))

converges for every finite z when lam > -1, but for the negative-argument
scaled variant the terms alternate and cancellation can eat a large part of
the working precision, which is why the summation tracks the peak term
magnitude and reports how many digits survived.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .core import DomainError, EvalResult, ScaledArgs, Sign, WrightParams

# extra working digits on top of the requested precision; the stop rule
# discards terms 10 extra digits below the running scale, leaving ~5 in hand
_GUARD_DIGITS = 15
_STOP_MARGIN = 10


class NoConvergence(RuntimeError):
    """Series failed to terminate within the term budget."""


class PrecisionLoss(RuntimeError):
    """Cancellation consumed the entire working precision."""

    def __init__(self, surviving_digits: int):
        self.surviving_digits = surviving_digits
        super().__init__(
            f"only {surviving_digits} decimal digits survived the summation"
        )


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision for oracle summations.

    decimal_digits is the target precision of the result (minimum 30);
    max_terms bounds the summation length.
    """

    decimal_digits: int = 60
    max_terms: int = 100000

    def __post_init__(self) -> None:
        if self.decimal_digits < 30:
            raise DomainError(
                f"decimal_digits must be at least 30, got {self.decimal_digits}"
            )
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")


def _sum_series(lam, mu, z, prec: PrecisionConfig):
    """Core loop shared by all entry points; runs inside a workdps block.

    Returns (sum, peak_mag, n_last, last_term_mag); perfbench/spans.py
    reads n_last at index 2.  Incremental updates keep z^n and n! as
    running products; each term costs one reciprocal-gamma evaluation.
    """
    s = mp.mpf(0)
    pw = mp.mpf(1)
    fact = mp.mpf(1)
    maxmag = mp.mpf(0)
    maxps = mp.mpf(0)
    peak = 0
    n = 0
    tiny = mp.mpf(10) ** (-(prec.decimal_digits + _STOP_MARGIN))
    while True:
        rg = mp.rgamma(lam * n + mu)
        term = pw / fact * rg
        s += term
        tm = abs(term)
        if tm > maxmag:
            maxmag, peak = tm, n
        # The stop scale must be the largest partial sum seen, never an
        # absolute floor: when nu is large the bare series sums to values
        # like 1e-59 (the scaled prefactor restores the magnitude), and
        # any fixed cutoff would leave a fat relative tail.
        ps = abs(s)
        if ps > maxps:
            maxps = ps
        if rg == 0:
            if lam == 0:
                # 1/Gamma(mu) = 0 with lam = 0: every term vanishes
                return s, maxmag, n, tm
            # a pole of Gamma(lam*n + mu) says nothing about the tail
        elif n > peak and tm < tiny * maxps:
            return s, maxmag, n, tm
        n += 1
        pw *= z
        fact *= n
        if n >= prec.max_terms:
            raise NoConvergence(
                f"series did not settle within {prec.max_terms} terms"
            )


def _finish(value_mp, series_sum, peak_mag, n_last, last_mag,
            prec: PrecisionConfig) -> EvalResult:
    """Round to double and attach the surviving-digit estimate."""
    if abs(series_sum) > 0:
        lost = max(float(mp.log10(peak_mag / abs(series_sum))), 0.0)
    else:
        lost = float(prec.decimal_digits)
    surviving = int(prec.decimal_digits - lost)
    if surviving <= 0:
        raise PrecisionLoss(surviving)
    return EvalResult(
        value=float(value_mp),
        truncation_index=n_last,
        last_term_magnitude=float(last_mag),
        significant_digits=min(surviving, prec.decimal_digits),
        low_precision=surviving < 16,
    )


def wright_series(params: WrightParams, z: float,
                  prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Evaluate W_{lam,mu}(z) by direct summation."""
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        s, peakm, n, last = _sum_series(
            mp.mpf(params.lam), mp.mpf(params.mu), mp.mpf(z), prec)
        return _finish(s, s, peakm, n, last, prec)


def _scaled_mp(args: ScaledArgs, prec: PrecisionConfig):
    """Full-precision scaled value; nu = a*x and z = +-(x/2)^(lam+1) are
    formed in mp arithmetic so no double rounding enters the parameters.

    Returns (value_mp, series_sum, peak_mag, n, last_mag).
    """
    lm, am, xm = mp.mpf(args.lam), mp.mpf(args.a), mp.mpf(args.x)
    nu = am * xm
    z = (xm / 2) ** (lm + 1)
    if args.sign is Sign.MINUS:
        z = -z
    s, peakm, n, last = _sum_series(lm, nu + 1, z, prec)
    return (xm / 2) ** nu * s, s, peakm, n, last


def mp_scaled_value(args: ScaledArgs,
                    prec: PrecisionConfig = PrecisionConfig()) -> mp.mpf:
    """Scaled value kept at full precision (for cross-checks that must
    resolve differences far below double rounding)."""
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        value, *_ = _scaled_mp(args, prec)
        return +value


def w_minus(args: ScaledArgs,
            prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Negative-argument scaled Wright function (alternating series)."""
    if args.sign is not Sign.MINUS:
        raise DomainError("w_minus requires sign=Minus")
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        return _finish(*_scaled_mp(args, prec), prec)


def w_plus(args: ScaledArgs,
           prec: PrecisionConfig = PrecisionConfig()) -> EvalResult:
    """Positive-argument scaled Wright function (same-sign terms, so the
    summation is essentially cancellation-free)."""
    if args.sign is not Sign.PLUS:
        raise DomainError("w_plus requires sign=Plus")
    with mp.workdps(prec.decimal_digits + _GUARD_DIGITS):
        return _finish(*_scaled_mp(args, prec), prec)
