"""The contour-change boundary by a linear scan, kept as a reference.

Not collected by pytest (no test_ prefix); test_saddles.py imports it.
wrightasym.saddles.stokes_boundary bisects the 80-point grid for the cell
where the level Im h(u_k)(a) changes sign, which is exact because that
level decreases strictly in a.  This is the search it replaced: the same
grid walked point by point from a_min, the first sign change refined by
the same newton_root call on the level and its slope -Im u_k.
"""

from __future__ import annotations

from wrightasym.core import DomainError, Sign
from wrightasym.saddles import NoBoundary, Phase, chain_member, newton_root


def stokes_boundary(lam: float, pair_index: int,
                    a_min: float = 0.02, a_max: float = 4.0) -> float:
    """The root of Im h(u_k)(a) = 0 in [a_min, a_max], as the scan found
    it; NoBoundary when no two neighbouring grid points differ in sign."""
    if pair_index < 1:
        raise DomainError("pair_index counts from 1")

    def level(a: float) -> tuple:
        sadl = chain_member(Phase(lam, a, Sign.PLUS), pair_index)
        return sadl.phase_value.imag, -sadl.location.imag

    n_scan = 80
    grid = [a_min * (a_max / a_min) ** (i / (n_scan - 1.0))
            for i in range(n_scan)]
    prev_a, prev_v = grid[0], level(grid[0])[0]
    for ai in grid[1:]:
        vi = level(ai)[0]
        if prev_v == 0.0:
            return prev_a
        if (prev_v < 0.0) != (vi < 0.0):
            return newton_root(level, prev_a, ai, xtol=1e-10)
        prev_a, prev_v = ai, vi
    raise NoBoundary(
        f"pair {pair_index} has no level sign change for lam={lam} "
        f"in [{a_min}, {a_max}]")
