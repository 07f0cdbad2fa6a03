"""Asymptotics of the scaled Wright functions.

Evaluation of W(z) = sum_n z^n / (n! Gamma(lam*n + mu)) and its scaled
exponential forms on the positive axis, by convergent series at arbitrary
precision (oracle) and by steepest-descent expansions for large argument
(saddles, coeffs, expansions), with a CLI for evaluation, saddle
inspection, and reproduction of the reference error tables.
"""

from .core import (
    DomainError,
    EvalResult,
    ScaledArgs,
    Sign,
    WrightParams,
)
from .oracle import (
    NoConvergence,
    PrecisionConfig,
    PrecisionLoss,
    w_minus,
    w_plus,
    wright_series,
)
from .saddles import (
    ConvergenceFailure,
    NoBoundary,
    NoRealSaddle,
    OnStokesBoundary,
    PathBranch,
    Phase,
    Regime,
    Saddle,
    SaddleKind,
    StepFailure,
    double_saddle_curve,
    solve_real_saddle,
    stokes_boundary,
    trace_descent_path,
)
from .coeffs import (
    DegenerateSaddle,
    double_saddle_coeffs,
)
from .expansions import (
    ExpansionResult,
    TruncationMode,
    TruncationPolicy,
    WrongRegime,
    expand_minus_auto,
    expand_plus,
    optimal_truncation,
)
from .reference import TableSpec

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "DegenerateSaddle",
    "DomainError",
    "EvalResult",
    "ExpansionResult",
    "NoBoundary",
    "NoConvergence",
    "NoRealSaddle",
    "OnStokesBoundary",
    "PathBranch",
    "Phase",
    "PrecisionConfig",
    "PrecisionLoss",
    "Regime",
    "Saddle",
    "SaddleKind",
    "ScaledArgs",
    "Sign",
    "StepFailure",
    "TableSpec",
    "TruncationMode",
    "TruncationPolicy",
    "WrightParams",
    "WrongRegime",
    "double_saddle_coeffs",
    "double_saddle_curve",
    "expand_minus_auto",
    "expand_plus",
    "optimal_truncation",
    "solve_real_saddle",
    "stokes_boundary",
    "trace_descent_path",
    "w_minus",
    "w_plus",
    "wright_series",
]
