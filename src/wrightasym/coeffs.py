"""Watson-lemma coefficients at simple and double saddles.

At a simple saddle the substitution h(u0) - h(u0 + t) = w^2/2 maps the
descent integral onto a Gaussian; at a double saddle (h'' = 0,
h''' != 0) the cubic substitution h(u0) - h(u0 + t) = w^3/3 plays the
same role.  Integrating termwise over the inverted series t(w) gives the
coefficient sequence A_k at a simple saddle and B_k, scaled by
H = 2 h'''(u0), at the double saddle.

Both come from one engine.  It solves for the normalized coefficients
beta_k = b_k / b_1^k of t = sum_k beta_k s^k in s = b_1 w, for which the
differentiated substitution reads t'(s) h'(u0 + t) = s^(m-1)
h^(m)(u0)/(m-1)! with m = 2 or 3 and beta_1 = 1.  The phase is a sum of
two exponentials, so each new beta_k solves one linear equation whose
known part is two convolutions against the series of e^t and e^(-lam t);
the same two sums extend those series by one order.  The series to order
n costs O(n^2).  The recurrence goes order by order and never sees the
large parameter, so it runs in u0's own arithmetic, as Phase.parts does:
mpmath at the working precision for an mpf or mpc u0, each convolution
one exact dot product (mp.fdot), and Python floats for a float u0, each
convolution one math.fsum of the products.  Every input is real at a
real saddle and on the coalescence curve, so those run in real
arithmetic.

The A_k come from Newton-polishing the saddle at the working precision
(saddles.polish_saddle) and running simple_coeffs_mp there; the B_k from
the cubic engine in floats at the float u*, since the double-saddle
series rounds them to double anyway.  A saddle whose m-th derivative
vanishes (|h^(m)| < 1e-10) is refused with DegenerateSaddle.  No closed
forms live here: the tests keep them as independent references.
"""

from __future__ import annotations

import math
import operator

import mpmath as mp

from .core import DomainError, Sign
from .saddles import Phase, double_saddle_curve, u_star


class DegenerateSaddle(ValueError):
    """Vanishing second derivative: the simple-saddle reversion does not
    apply (use the double-saddle route)."""


def _fsum_dot(xs, ys) -> float:
    return math.fsum(map(operator.mul, xs, ys))


def _saddle_betas(phase: Phase, u0, m: int, n: int) -> tuple[list, object]:
    """beta_1..beta_n and h^(m)(u0) in u0's arithmetic, mpmath at the
    working precision for an mpf or mpc and floats for a float: t = sum_k
    beta_k s^k solves h(u0) - h(u0 + t) = w^m/m in the normalized variable
    s = b_1 w, so beta_k = b_k / b_1^k and beta_1 = 1.

    In s the differentiated substitution reads

        t'(s) h'(u0 + t) = s^(m-1) h^(m)(u0)/(m-1)!,

    with h'(u0 + t) = P (E - 1) - lam Q (F - 1), E = e^t, F = e^(-lam t),
    P = e^(u0)/2 and Q = sign e^(-lam u0)/2 from Phase.parts.  Every
    input is real wherever u0 is, so a real saddle (and the coalescence
    curve) runs in real arithmetic.  The order-k equation is linear in
    beta_k with weight h^(m)(u0) (k+m-1)/(m-1)!; its other part is two
    convolutions, sum i beta_i e_(k+m-1-i) and sum i beta_i f_(k+m-1-i),
    each one dot product: exact (mp.fdot) in mpmath, math.fsum of the
    rounded products in floats.  The same two sums are (k+m-1) e_(k+m-1) and
    -(k+m-1) f_(k+m-1)/lam with beta_k still 0, from E' = t' E and
    F' = -lam t' F; once beta_k is solved its terms are added to
    e_k..e_(k+m-1) and f_k..f_(k+m-1) in O(m) each.  So each order costs
    two dot products, and the series to order n O(n^2) in all.
    """
    lam, _, p, q = phase.parts(u0)
    lq = lam * q
    hm = p + (-lam) ** m * q
    if abs(hm) < 1e-10:
        raise DegenerateSaddle(f"|h^({m})(u0)| = {float(abs(hm)):.2e}: "
                               f"saddle is (numerically) of higher order")
    if type(u0) is mp.mpf or type(u0) is mp.mpc:
        one, dot = mp.mpf(1), mp.fdot
    else:
        one, dot = 1.0, _fsum_dot
    ib = [0, one]  # ib[i] = i beta_i
    # E = e^s and F = e^(-lam s) through order m while only beta_1 is known
    e = [one / math.factorial(j) for j in range(m + 1)]
    f = [(-lam) ** j / math.factorial(j) for j in range(m + 1)]
    lead = hm / math.factorial(m - 1)
    for k in range(2, n + 1):
        # e, f hold orders 0..k+m-2 with beta_k = 0
        top = k + m - 1
        se = dot(ib[1:k], e[top - 1:m - 1:-1])
        sf = dot(ib[1:k], f[top - 1:m - 1:-1])
        kb = -k * (p * se - lq * sf) / (lead * top)
        ib.append(kb)
        e.append(se / top)
        f.append(-lam * sf / top)
        de, df = {}, {}
        for j in range(k, top + 1):
            # beta_k's share of order j; e[j-k] already carries it when
            # j - k >= k, and i = k is the kb term itself
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


def double_saddle_coeffs(lam: float, order: int) -> list[float]:
    """B_0..B_order for the double-saddle series on the coalescence curve,
    from the cubic (m = 3) engine run in floats at the float u*.

    B_k = (k+1) b_(k+1) (H^(1/3) e^(-i pi/3))^(k+1) / 2^(2/3), where the
    principal cube root b_1 = (2/h''')^(1/3) e^(i pi/3) carries the contour
    orientation.  In the normalized coefficients b_(k+1) = beta_(k+1)
    b_1^(k+1) that is B_k = (k+1) beta_(k+1) 2^(2k/3): real throughout,
    with no rotation to take back out.
    """
    if lam <= 0.0:
        raise DomainError("double-saddle coefficients require lam > 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    beta, _ = _saddle_betas(phase, u_star(lam), 3, order + 1)
    return [(k + 1) * bk * 2.0 ** (2 * k / 3) for k, bk in enumerate(beta)]


def simple_coeffs_mp(phase: Phase, u0, order: int) -> list:
    """A_0..A_order at working mpmath precision; u0 is an mp location
    (polish it first).  Used where the expansion value itself must carry
    far more than double precision.

    A_k = (-1)^k (2k+1) b_(2k+1) / b_1 from the m = 2 reversion, which in
    the normalized coefficients (b_1^2 = -1/h'') is (2k+1) beta_(2k+1) /
    h''(u0)^k: no square-root branch enters, and at a real saddle every
    A_k is an mpf.  Raises DegenerateSaddle where |h''(u0)| < 1e-10.
    """
    beta, h2 = _saddle_betas(phase, u0, 2, 2 * order + 1)
    return [(2 * k + 1) * beta[2 * k] / h2 ** k for k in range(order + 1)]
