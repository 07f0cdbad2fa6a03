"""Independent reference values for the scaled Wright functions.

Plain mpmath summation of

    W-/+(lam, a; x) = (x/2)^nu * sum_n z^n / (n! Gamma(lam*n + nu + 1)),
    nu = a*x,  z = -/+ (x/2)^(lam+1),

sharing no code with the package under test.  The working precision is
raised until two summations at different precisions agree, so the
cancellation of the alternating minus-axis series is paid for here and
never trusted from the program.
"""

from __future__ import annotations

import mpmath as mp

AGREE_DIGITS = 25
_MAX_DPS = 3000


class NoReference(RuntimeError):
    """The reference did not settle within the precision cap."""


def _series(lam, nu, z, dps: int):
    """Sum at dps digits.  Returns (sum, digits lost to cancellation)."""
    with mp.workdps(dps):
        lam, nu, z = mp.mpf(lam), mp.mpf(nu), mp.mpf(z)
        s = mp.mpf(0)
        term_pow = mp.mpf(1)
        peak = mp.mpf(0)
        small_run = 0
        n = 0
        eps = mp.mpf(10) ** (-dps - 5)
        while True:
            t = term_pow * mp.rgamma(lam * n + nu + 1)
            s += t
            mag = abs(t)
            if mag > peak:
                peak = mag
                small_run = 0
            elif mag <= eps * max(peak, abs(s)):
                # several consecutive negligible terms past the peak, so a
                # term that merely sits near a pole of Gamma cannot end it
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            n += 1
            term_pow = term_pow * z / n
            if n > 200000:
                raise NoReference("series did not settle in 200000 terms")
        lost = float(mp.log10(peak / abs(s))) if s != 0 else float(dps)
        return s, max(lost, 0.0)


def scaled_value(lam: float, a: float, x: float, minus: bool) -> mp.mpf:
    """W-(lam, a; x) if minus else W+(lam, a; x), to AGREE_DIGITS digits.

    The precision doubles until the measured cancellation leaves at least
    AGREE_DIGITS + 10 digits in hand; the sum is then repeated 20 digits
    higher and accepted only if the two agree.
    """
    dps = 40
    while dps <= _MAX_DPS:
        first = _scaled_at(lam, a, x, minus, dps)
        if first[1] + AGREE_DIGITS + 10 <= dps:
            second = _scaled_at(lam, a, x, minus, dps + 20)
            with mp.workdps(dps):
                if abs(first[0] - second[0]) <= (
                        mp.mpf(10) ** (-AGREE_DIGITS) * abs(second[0])):
                    return second[0]
        dps *= 2
    raise NoReference(
        f"reference for lam={lam}, a={a}, x={x} did not settle below "
        f"{_MAX_DPS} digits")


def _scaled_at(lam: float, a: float, x: float, minus: bool, dps: int):
    with mp.workdps(dps + 10):
        lm, am, xm = mp.mpf(lam), mp.mpf(a), mp.mpf(x)
        nu = am * xm
        z = (xm / 2) ** (lm + 1)
        if minus:
            z = -z
        s, lost = _series(lm, nu, z, dps)
        return (xm / 2) ** nu * s, lost


def main() -> int:
    """Worker mode: read [[lam, a, x, minus], ...] as JSON on stdin and
    print the reference values, as decimal strings, as one JSON list."""
    import json
    import sys
    points = json.loads(sys.stdin.read())
    with mp.workdps(AGREE_DIGITS + 5):
        values = [mp.nstr(scaled_value(*p), AGREE_DIGITS + 5) for p in points]
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
