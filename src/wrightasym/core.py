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

    @property
    def z(self) -> float:
        """Argument handed to the unscaled series: -(x/2)^(lam+1) or +(x/2)^(lam+1)."""
        mag = (self.x / 2.0) ** (self.lam + 1.0)
        return -mag if self.sign is Sign.MINUS else mag

    def wright_params(self) -> WrightParams:
        return WrightParams(self.lam, self.nu + 1.0)


@dataclass
class EvalResult:
    """Outcome of a direct series summation.

    value is the rounded double result; truncation_index is the last
    summed term index; last_term_magnitude the magnitude of that term.
    significant_digits estimates how many decimal digits survived the
    summation (cancellation subtracts from the working precision); when it
    drops below 16 the low_precision flag is set.
    """

    value: float
    truncation_index: int = 0
    last_term_magnitude: float = 0.0
    significant_digits: int | None = None
    low_precision: bool = False

