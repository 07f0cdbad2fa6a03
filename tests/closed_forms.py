"""Closed-form coefficients kept as independent references for the engine.

Not collected by pytest (no test_ prefix); the coefficient tests and the
acceptance gate import it.  The package computes every A_k and B_k with
one recurrence (wrightasym.coeffs); these are the hand-derived forms it
is checked against:

- A_0..A_3 in the normalized derivatives H_n = h^(n)/h'' at a simple
  saddle, in the location's arithmetic (Phase.derivs);
- B_0..B_6 on the coalescence curve, where the derivative ratios collapse
  to rationals in lam, as polynomials in lam.  b4 takes the coefficient
  of its lam and lam^3 terms as a parameter: the tabulated double-saddle
  errors were computed with 826 in place of the proven 836.
"""

from __future__ import annotations

from wrightasym.coeffs import DegenerateSaddle
from wrightasym.saddles import Phase

TWO_CBRT = 2.0 ** (1.0 / 3.0)


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


def b4(lam: float, odd: float = 836.0) -> float:
    """B_4 with odd as the coefficient of its lam and lam^3 terms."""
    return -(277.0 + odd * lam - 6114.0 * lam ** 2 + odd * lam ** 3
             + 277.0 * lam ** 4) / (TWO_CBRT * 136080.0)


def b_polynomials(lam: float) -> list[float]:
    """B_0..B_6 on the coalescence curve as polynomials in lam."""
    c = TWO_CBRT
    return [
        1.0,
        (lam - 1.0) / (c * 3.0),
        (1.0 - 6.0 * lam + lam ** 2) / (c * c * 20.0),
        (5.0 + 93.0 * lam - 93.0 * lam ** 2 - 5.0 * lam ** 3) / 1620.0,
        b4(lam),
        (1.0 - 61.0 * lam - 254.0 * lam ** 2 + 254.0 * lam ** 3
         + 61.0 * lam ** 4 - lam ** 5) / (c * c * 16800.0),
        (959.0 + 7098.0 * lam - 2031.0 * lam ** 2 - 58708.0 * lam ** 3
         - 2031.0 * lam ** 4 + 7098.0 * lam ** 5 + 959.0 * lam ** 6)
        / 10497600.0,
    ]
