"""Watson-lemma coefficients at simple and double saddles.

At a simple saddle the substitution h(u0) - h(u0 + t) = w^2/2 maps the
descent integral onto a Gaussian; at a double saddle (h'' = 0,
h''' != 0) the cubic substitution h(u0) - h(u0 + t) = w^3/3 plays the
same role.  Integrating termwise over the inverted series t(w) gives the
coefficient sequence A_k at a simple saddle and B_k, scaled by
H = 2 h'''(u0), at the double saddle.

Both come from one engine.  Differentiating the substitution gives
t'(w) h'(u0 + t(w)) = -w^(m-1) with m = 2 or 3.  The phase is a sum of
two exponentials, so the series of e^t and e^(-lam t) update in O(n) per
order and each new coefficient of t(w) solves one linear equation: the
whole series to order n costs O(n^2), at any mpmath precision.

Two independent references stay beside it: closed forms of A_0..A_3 in
the normalized derivatives and, since on the coalescence curve the
derivative ratios collapse to rationals in lam, polynomial forms of
B_0..B_6.  The engine supplies B_k beyond k = 6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import mpmath as mp

from .core import DomainError, Sign
from .saddles import Phase, Saddle, double_saddle_curve

_TWO_CBRT = 2.0 ** (1.0 / 3.0)
# working precision of reverse_series_simple, whose output is rounded to double
_ROUNDED_DPS = 30


class DegenerateSaddle(ValueError):
    """Vanishing second derivative: the simple-saddle reversion does not
    apply (use the double-saddle route)."""


class CoefficientKind(enum.Enum):
    SIMPLE_SADDLE_A = "simple_saddle_a"
    DOUBLE_SADDLE_B = "double_saddle_b"


@dataclass(frozen=True)
class DerivativeTable:
    """Phase derivatives at a saddle: values[n] = h^(n)(u), with values[0]
    the phase value itself and values[1] the (vanishing) gradient, taken
    from phase."""

    saddle: Saddle
    values: tuple[complex, ...]
    phase: Phase


@dataclass(frozen=True)
class CoefficientSeries:
    """Coefficients of one asymptotic series, with the saddle scale they
    are normalized against: h''(u0) for the A_k, H = 2 h'''(u0) for the
    B_k."""

    kind: CoefficientKind
    coefficients: tuple[complex, ...]
    scale: complex
    order: int


def derivative_table(saddle: Saddle, phase: Phase, n_max: int) -> DerivativeTable:
    """Tabulate h, h' and h^(n) for n = 2..n_max at the saddle.

    The location must actually be stationary for this phase; mixing a
    saddle solved under one sign with the other phase is rejected.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    u = saddle.location
    grad = phase.dh(u)
    scale = max(1.0, abs(phase.d2h(u)), abs(phase.dnh(u, 3)))
    if abs(grad) > 1e-10 * scale:
        raise DomainError(
            f"location {u} is not a stationary point of this phase "
            f"(|h'| = {abs(grad):.2e})")
    values = [complex(phase.h(u)), complex(grad)]
    values.extend(complex(phase.dnh(u, n)) for n in range(2, n_max + 1))
    return DerivativeTable(saddle=saddle, values=tuple(values), phase=phase)


def _saddle_reversion(phase: Phase, u0, m: int, n: int) -> list:
    """b_1..b_n of t(w) = sum_j b_j w^j with h(u0) - h(u0 + t) = w^m/m, at
    working precision; m = 2 at a simple saddle, 3 at the double saddle.

    Solves t'(w) h'(u0 + t) = -w^(m-1) order by order, writing
    h'(u0 + t) = P (e^t - 1) - lam Q (e^(-lam t) - 1) with P = e^(u0)/2,
    Q = sign e^(-lam u0)/2.  The order-n equation is linear in b_n, with
    weight h^(m)(u0) b_1^(m-1) (n+m-1)/(m-1)!; b_1 is the principal root
    of b_1^m = -(m-1)!/h^(m)(u0).
    """
    lam = mp.mpf(phase.lam)
    p = mp.exp(u0) / 2
    q = (-1 if phase.sign is Sign.MINUS else 1) * mp.exp(-lam * u0) / 2
    hm = p + (-lam) ** m * q
    fact = mp.factorial(m - 1)
    b = [0] * (n + m)
    b[1] = mp.root(-fact / hm, m)
    e = [mp.mpf(1)] + [0] * (n + m)
    f = [mp.mpf(1)] + [0] * (n + m)

    def update(j):
        # order j of E and F from the current b (unsolved ones still 0)
        se = sf = 0
        for i in range(1, j + 1):
            se += i * b[i] * e[j - i]
            sf += i * b[i] * f[j - i]
        e[j] = se / j
        f[j] = -lam * sf / j

    for j in range(1, m):
        update(j)
    lead = hm * b[1] ** (m - 1) / fact
    for k in range(2, n + 1):
        top = k + m - 2
        update(top)
        resid = 0
        for i in range(1, k):
            resid += i * b[i] * (p * e[top + 1 - i] - lam * q * f[top + 1 - i])
        b[k] = -resid / (lead * (k + m - 1))
        for j in range(k, top + 1):
            update(j)
    return b[1:n + 1]


def reverse_series_simple(table: DerivativeTable, order: int) -> CoefficientSeries:
    """A_0..A_order at a simple saddle, from the saddle-series engine run
    at the table's location and rounded to double."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    h2 = table.values[2]
    if abs(h2) < 1e-10:
        raise DegenerateSaddle(
            f"|h''| = {abs(h2):.2e}: saddle is (numerically) double")
    with mp.workdps(_ROUNDED_DPS):
        coeffs = simple_coeffs_mp(table.phase, mp.mpc(table.saddle.location),
                                  order)
        return CoefficientSeries(
            kind=CoefficientKind.SIMPLE_SADDLE_A,
            coefficients=tuple(complex(c) for c in coeffs),
            scale=h2,
            order=order,
        )


def closed_form_A(table: DerivativeTable) -> list[complex]:
    """A_0..A_3 in closed form from the normalized derivatives
    H_n = h^(n)/h''."""
    h2 = table.values[2]
    if abs(h2) < 1e-10:
        raise DegenerateSaddle("closed forms assume a simple saddle")
    if len(table.values) <= 8:
        raise ValueError("closed A_3 needs derivatives through n = 8")
    H = {n: table.values[n] / h2 for n in range(3, 9)}
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


def _double_h_big(lam: float) -> float:
    """Scale factor H = 2 h'''(u0) on the coalescence curve."""
    return (1.0 + lam) * lam ** (2.0 / (1.0 + lam))


def double_coeffs_by_reversion(lam: float, order: int,
                               dps: int = 40) -> list[float]:
    """B_0..B_order from the cubic (m = 3) reversion in extended precision.

    The principal cube root b_1 = (2/h''')^(1/3) e^(i pi/3) carries the
    contour orientation; the per-order factor (H^(1/3) e^(-i pi/3))^(k+1)
    takes it back out, leaving the real B_k.
    """
    if lam <= 0.0:
        raise DomainError("double-saddle coefficients require lam > 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    with mp.workdps(dps):
        lm = mp.mpf(lam)
        u0 = 2 * mp.log(lm) / (1 + lm)
        phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        b = _saddle_reversion(phase, u0, 3, order + 1)
        big_h = (1 + lm) * lm ** (2 / (1 + lm))
        out = []
        for k in range(order + 1):
            bk = ((k + 1) * b[k] * big_h ** (mp.mpf(k + 1) / 3)
                  * mp.e ** (-1j * mp.pi * (k + 1) / 3) / 2 ** (mp.mpf(2) / 3))
            out.append(float(bk.real))
        return out


def double_saddle_coeffs(lam: float, order: int) -> CoefficientSeries:
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
        coeffs = poly[:order + 1]
    else:
        rev = double_coeffs_by_reversion(lam, order)
        coeffs = poly + rev[7:]
    return CoefficientSeries(
        kind=CoefficientKind.DOUBLE_SADDLE_B,
        coefficients=tuple(complex(v) for v in coeffs),
        scale=complex(_double_h_big(lam)),
        order=order,
    )


def simple_coeffs_mp(phase: Phase, u0, order: int) -> list:
    """A_0..A_order at working mpmath precision; u0 is an mp location
    (polish it first).  Used where the expansion value itself must carry
    far more than double precision.

    A_k = (-1)^k (2k+1) b_(2k+1) / b_1 from the m = 2 reversion; b_(2k+1)
    carries b_1^(2k+1), so the square-root branch of b_1 drops out.
    """
    b = _saddle_reversion(phase, u0, 2, 2 * order + 1)
    return [(-1) ** k * (2 * k + 1) * b[2 * k] / b[0] for k in range(order + 1)]


def is_near_curve(lam: float, a: float, rel_tol: float = 1e-6) -> bool:
    """Whether (lam, a) sits within rel_tol of the coalescence curve,
    where the simple-saddle series degenerate."""
    if lam <= 0.0:
        return False
    curve = double_saddle_curve(lam)
    return abs(a - curve) <= rel_tol * max(1.0, curve)
