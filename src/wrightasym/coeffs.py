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
h^(m)(u0)/(m-1)! with m = 2 or 3 and beta_1 = 1: every input is real at a
real saddle and on the coalescence curve, so those run in real mpf
arithmetic.  The phase is a sum of two exponentials, so each new beta_k
solves one linear equation whose known part is two convolutions against
the series of e^t and e^(-lam t); the same two sums extend those series
by one order, and each convolution is one exact dot product (mp.fdot).
The whole series to order n costs O(n^2), at any mpmath precision.

There is one way to get the A_k: Newton-polish the saddle at the working
precision (saddles.polish_saddle), then run simple_coeffs_mp there; the
expansion routes and the table reproductions both do exactly that.  A
saddle whose m-th derivative vanishes (|h^(m)| < 1e-10) is refused with
DegenerateSaddle.

Two independent references stay beside the engine: closed forms of
A_0..A_3 in the normalized derivatives H_n = h^(n)/h'' (from
Phase.derivs in the location's arithmetic) and, since on the coalescence
curve the derivative ratios collapse to rationals in lam, polynomial
forms of B_0..B_6.  The double-saddle series uses those polynomials for
k <= 6 and the engine, rounded to double, beyond.
"""

from __future__ import annotations

import mpmath as mp

from .core import DomainError, Sign
from .saddles import Phase, double_saddle_curve, u_star

_TWO_CBRT = 2.0 ** (1.0 / 3.0)
# working precision of the cubic reversion, whose output is rounded to double
_REVERSION_DPS = 40


class DegenerateSaddle(ValueError):
    """Vanishing second derivative: the simple-saddle reversion does not
    apply (use the double-saddle route)."""


def _saddle_betas(phase: Phase, u0, m: int, n: int) -> tuple[list, object]:
    """beta_1..beta_n and h^(m)(u0), at working precision: t = sum_k
    beta_k s^k solves h(u0) - h(u0 + t) = w^m/m in the normalized variable
    s = b_1 w, so beta_k = b_k / b_1^k and beta_1 = 1.

    In s the differentiated substitution reads

        t'(s) h'(u0 + t) = s^(m-1) h^(m)(u0)/(m-1)!,

    with h'(u0 + t) = P (E - 1) - lam Q (F - 1), E = e^t, F = e^(-lam t),
    P = e^(u0)/2 and Q = sign e^(-lam u0)/2 from Phase.parts.  Every
    input is real wherever u0 is, so a real saddle (and the coalescence
    curve) runs in mpf.  The order-k equation is linear in beta_k with weight
    h^(m)(u0) (k+m-1)/(m-1)!; its other part is two convolutions,
    sum i beta_i e_(k+m-1-i) and sum i beta_i f_(k+m-1-i), each one exact
    dot product.  The same two sums are (k+m-1) e_(k+m-1) and
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
    one = mp.mpf(1)
    ib = [0, one]  # ib[i] = i beta_i
    # E = e^s and F = e^(-lam s) through order m while only beta_1 is known
    e = [one / mp.factorial(j) for j in range(m + 1)]
    f = [(-lam) ** j / mp.factorial(j) for j in range(m + 1)]
    lead = hm / mp.factorial(m - 1)
    for k in range(2, n + 1):
        # e, f hold orders 0..k+m-2 with beta_k = 0
        top = k + m - 1
        se = mp.fdot(ib[1:k], e[top - 1:m - 1:-1])
        sf = mp.fdot(ib[1:k], f[top - 1:m - 1:-1])
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


def closed_form_A(phase: Phase, location) -> list[complex]:
    """A_0..A_3 in closed form from the normalized derivatives
    H_n = h^(n)/h'' at the saddle location, in double precision."""
    d = phase.derivs(location, 8)
    h2 = d[2]
    if abs(h2) < 1e-10:
        raise DegenerateSaddle("closed forms assume a simple saddle")
    H = {n: d[n] / h2 for n in range(3, 9)}
    a1 = (5 * H[3] ** 2 - 3 * H[4]) / (24 * h2)
    a2 = (385 * H[3] ** 4 - 630 * H[3] ** 2 * H[4] + 105 * H[4] ** 2
          + 168 * H[3] * H[5] - 24 * H[6]) / (3456 * h2 ** 2)
    a3 = (425425 * H[3] ** 6 - 1126125 * H[3] ** 4 * H[4]
          + 675675 * H[3] ** 2 * H[4] ** 2 - 51975 * H[4] ** 3
          + 360360 * H[3] ** 3 * H[5] - 249480 * H[3] * H[4] * H[5]
          + 13608 * H[5] ** 2 - 83160 * H[3] ** 2 * H[6]
          + 22680 * H[4] * H[6] + 12960 * H[3] * H[7]
          - 1080 * H[8]) / (6220800 * h2 ** 3)
    return [1.0 + 0j, a1, a2, a3]


def _closed_b_polynomials(lam: float) -> list[float]:
    c = _TWO_CBRT
    return [
        1.0,
        (lam - 1.0) / (c * 3.0),
        (1.0 - 6.0 * lam + lam ** 2) / (c * c * 20.0),
        (5.0 + 93.0 * lam - 93.0 * lam ** 2 - 5.0 * lam ** 3) / 1620.0,
        -(277.0 + 836.0 * lam - 6114.0 * lam ** 2 + 836.0 * lam ** 3
          + 277.0 * lam ** 4) / (c * 136080.0),
        (1.0 - 61.0 * lam - 254.0 * lam ** 2 + 254.0 * lam ** 3
         + 61.0 * lam ** 4 - lam ** 5) / (c * c * 16800.0),
        (959.0 + 7098.0 * lam - 2031.0 * lam ** 2 - 58708.0 * lam ** 3
         - 2031.0 * lam ** 4 + 7098.0 * lam ** 5 + 959.0 * lam ** 6)
        / 10497600.0,
    ]


def double_coeffs_by_reversion(lam: float, order: int) -> list[float]:
    """B_0..B_order from the cubic (m = 3) reversion in extended precision.

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
    with mp.workdps(_REVERSION_DPS):
        phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        beta, _ = _saddle_betas(phase, u_star(mp.mpf(lam)), 3, order + 1)
        step = mp.cbrt(4)
        return [float((k + 1) * bk * step ** k) for k, bk in enumerate(beta)]


def double_saddle_coeffs(lam: float, order: int) -> list[float]:
    """B_0..B_order for the double-saddle series on the coalescence curve.

    The polynomial closed forms cover k <= 6; higher orders come from the
    cubic reversion.
    """
    if lam <= 0.0:
        raise DomainError("double-saddle coefficients require lam > 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    poly = _closed_b_polynomials(lam)
    if order <= 6:
        return poly[:order + 1]
    return poly + double_coeffs_by_reversion(lam, order)[7:]


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
