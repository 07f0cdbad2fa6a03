"""Shared parameter containers and validation for Wright function evaluation.

The Wright function W_{lam,mu}(z) = sum_n z^n / (n! Gamma(lam*n + mu)) is
entire for lam > -1.  The scaled variants treated here fix nu = a*x and
evaluate

    W-  =  (x/2)^nu * W_{lam, nu+1}( -(x/2)^{lam+1} )
    W+  =  (x/2)^nu * W_{lam, nu+1}( +(x/2)^{lam+1} )

for large x.  Everything downstream (oracle summation, saddle machinery,
asymptotic expansions) works with these two containers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import mpmath as mp


class DomainError(ValueError):
    """Raised when parameters fall outside the supported domain."""


class Sign(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class WrightParams:
    """Parameters (lam, mu) of the unscaled Wright function.

    Invariant: lam > -1, else the defining series diverges.
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or not math.isfinite(self.mu):
            raise DomainError("lam and mu must be finite")
        if self.lam <= -1.0:
            raise DomainError(f"lam must exceed -1, got {self.lam}")


@dataclass(frozen=True)
class ScaledArgs:
    """Arguments of the scaled variants W-/W+ with nu = a*x.

    a is the ratio nu/x and must be positive; x is the large variable.
    """

    lam: float
    a: float
    x: float
    sign: Sign

    def __post_init__(self) -> None:
        for name in ("lam", "a", "x"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.lam <= -1.0:
            raise DomainError(f"lam must exceed -1, got {self.lam}")
        if self.a <= 0.0:
            raise DomainError(f"a must be positive, got {self.a}")
        if self.x <= 0.0:
            raise DomainError(f"x must be positive, got {self.x}")

    @property
    def nu(self) -> float:
        return self.a * self.x


@dataclass
class EvalResult:
    """Outcome of a direct series summation.

    mp_value is the result at the working precision, value its double
    rounding; truncation_index is the last summed term index;
    last_term_magnitude the magnitude of that term.  significant_digits
    estimates how many decimal digits survived the summation (cancellation
    subtracts from the working precision, and the terms left out after the
    stop cap it); when it drops below 16 the low_precision flag is set.
    """

    mp_value: mp.mpf
    truncation_index: int = 0
    last_term_magnitude: float = 0.0
    significant_digits: int | None = None
    low_precision: bool = False

    @property
    def value(self) -> float:
        return float(self.mp_value)
