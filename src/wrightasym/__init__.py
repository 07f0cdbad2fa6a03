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
    mp_scaled_value,
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
    PathOutcome,
    Phase,
    RegionCount,
    Regime,
    Saddle,
    SaddleClassification,
    SaddleKind,
    StepFailure,
    Terminus,
    classify_minus,
    complex_saddle_chain,
    count_contributory_pairs,
    double_saddle_curve,
    double_saddle_point,
    solve_complex_pair,
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
    expand_minus_complex,
    expand_minus_double,
    expand_minus_real,
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
    "PathOutcome",
    "Phase",
    "PrecisionConfig",
    "PrecisionLoss",
    "RegionCount",
    "Regime",
    "Saddle",
    "SaddleClassification",
    "SaddleKind",
    "ScaledArgs",
    "Sign",
    "StepFailure",
    "TableSpec",
    "Terminus",
    "TruncationMode",
    "TruncationPolicy",
    "WrightParams",
    "WrongRegime",
    "classify_minus",
    "complex_saddle_chain",
    "count_contributory_pairs",
    "double_saddle_coeffs",
    "double_saddle_curve",
    "double_saddle_point",
    "expand_minus_auto",
    "expand_minus_complex",
    "expand_minus_double",
    "expand_minus_real",
    "expand_plus",
    "mp_scaled_value",
    "optimal_truncation",
    "solve_complex_pair",
    "solve_real_saddle",
    "stokes_boundary",
    "trace_descent_path",
    "w_minus",
    "w_plus",
    "wright_series",
]
