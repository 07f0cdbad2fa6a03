"""The beta recurrence in plain mpmath, kept as a reference.

Not collected by pytest (no test_ prefix); test_coeffs.py imports it.
wrightasym.coeffs runs this recurrence on Python ints in fixed point,
every product exact and each stored value rounded once, with beta_k
rounded to the working precision at the end.  This is the engine it
replaced: every convolution one exact dot product (mp.fdot) rounded to
the working precision, every other product, quotient and sum rounded
too, in u0's own mpmath type (mpf at a real saddle, mpc otherwise).
"""

from __future__ import annotations

import math

import mpmath as mp


def saddle_betas(phase, u0, m: int, n: int) -> tuple[list, object]:
    """beta_1..beta_n and h^(m)(u0) for an mpf or mpc u0, as
    coeffs.SaddleCoeffs defines them."""
    lam, _, p, q = phase.parts(u0)
    lq = lam * q
    hm = p + (-lam) ** m * q
    one = mp.mpf(1)
    ib = [0, one]  # ib[i] = i beta_i
    e = [one / math.factorial(j) for j in range(m + 1)]
    f = [(-lam) ** j / math.factorial(j) for j in range(m + 1)]
    lead = hm / math.factorial(m - 1)
    for k in range(2, n + 1):
        top = k + m - 1
        se = mp.fdot(ib[1:k], e[top - 1:m - 1:-1])
        sf = mp.fdot(ib[1:k], f[top - 1:m - 1:-1])
        kb = -k * (p * se - lq * sf) / (lead * top)
        ib.append(kb)
        e.append(se / top)
        f.append(-lam * sf / top)
        de, df = {}, {}
        for j in range(k, top + 1):
            se = kb * e[j - k]
            sf = kb * f[j - k]
            for i in range(1, min(j - k, k - 1) + 1):
                se += ib[i] * de[j - i]
                sf += ib[i] * df[j - i]
            de[j] = se / j
            df[j] = -lam * sf / j
            e[j] += de[j]
            f[j] += df[j]
    return [c / i for i, c in enumerate(ib[1:], 1)], hm


def simple_coeffs(phase, u0, order: int) -> list:
    """A_0..A_order from saddle_betas, as coeffs.SaddleCoeffs defines
    them at m = 2: A_k = (2k+1) beta_(2k+1) / h''(u0)^k."""
    beta, h2 = saddle_betas(phase, u0, 2, 2 * order + 1)
    return [(2 * k + 1) * beta[2 * k] / h2 ** k for k in range(order + 1)]
