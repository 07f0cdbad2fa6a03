"""The oracle's summation loop in plain mpmath, kept as a reference.

Not collected by pytest (no test_ prefix); test_oracle.py imports it.
wrightasym.oracle._sum_series runs this loop on Python integers: z^n/n!
as a mantissa of wp + 64 bits and an exponent, the sum, the largest term
and the largest partial sum in units 64 bits below the last bit of the
largest term at wp, so a term is off by at most n 2^(-wp-63) of itself
and one unit.  Each of its 1/Gamma comes either from a Gamma-ratio chain
or at a lower precision for terms far below the peak.  This is the loop
it replaced: every 1/Gamma from rgamma at full working precision, every
product, quotient and sum rounded to wp, through mpf objects.  Swapping
it in for _sum_series must give field-equal results, with sums within
10^-(D+10) of the peak term.
"""

from __future__ import annotations

import mpmath as mp

from wrightasym import oracle
from wrightasym.oracle import _STOP_MARGIN, NoConvergence, PrecisionConfig


def plain_sum_series(lam, mu, z, prec: PrecisionConfig, pre=None):
    """(sum, peak_mag, n_last, last_term_mag), as _sum_series returns,
    within the kernel's term budget oracle._MAX_TERMS, read at the call;
    pre, the kernel's pre-pass, is not used."""
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
        ps = abs(s)
        if ps > maxps:
            maxps = ps
        if z == 0 or (rg == 0 and lam == 0):
            return s, maxmag, n, tm
        if rg != 0 and n > peak and tm < tiny * maxps:
            return s, maxmag, n, tm
        n += 1
        pw *= z
        fact *= n
        if n >= oracle._MAX_TERMS:
            raise NoConvergence(
                f"series did not settle within {oracle._MAX_TERMS} terms"
            )
