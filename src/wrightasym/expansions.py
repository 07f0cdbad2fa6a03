"""Steepest-descent asymptotic expansions of the scaled Wright functions
for large x at fixed lam and a.

Four routes, one per saddle configuration:

  minus sign, two real saddles      -> expand_minus_real   (larger saddle)
  minus sign, conjugate pair        -> expand_minus_complex
  minus sign, on the coalescence curve -> expand_minus_double
  plus sign (always)                -> expand_plus (real saddle plus the
                                       contributory complex-pair chain)

Each returns the truncated series value together with the raw terms, so
callers can study the error behaviour rather than just consume a number.
Exponential prefactors are evaluated in extended precision: the series
terms are O(1) and well conditioned in doubles, but e^(x h0) reaches 1e12
and beyond where double rounding alone would swamp the small differences
(oracle minus expansion) these expansions are judged by.  The plus-phase
route runs its coefficients in extended precision too; its value feeds
difference measurements (W - I_0) in which twelve leading digits cancel.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .core import DomainError, ScaledArgs, Sign
from .coeffs import is_near_curve, simple_coeffs_mp, double_saddle_coeffs
from .saddles import Phase, Regime, RegionCount, classify_minus, \
    complex_saddle_chain, count_contributory_pairs, solve_real_saddle

_PREC_DPS = 50
_PLUS_DPS = 60
_DEFAULT_MAX_ORDER = 40


class WrongRegime(ValueError):
    """The requested expansion route does not match the saddle
    configuration at these parameters."""


class TruncationMode(enum.Enum):
    FIXED = "fixed"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class TruncationPolicy:
    mode: TruncationMode
    k: int | None = None

    @classmethod
    def fixed(cls, k: int) -> "TruncationPolicy":
        if k < 0:
            raise ValueError("truncation order must be nonnegative")
        return cls(TruncationMode.FIXED, k)

    @classmethod
    def optimal(cls) -> "TruncationPolicy":
        return cls(TruncationMode.OPTIMAL)


def optimal_truncation(magnitudes) -> int:
    """Index of the globally smallest nonzero term magnitude; ties go to
    the smaller index.  Truncation is inclusive of that term.

    Exact zeros are structural (every third double-saddle term vanishes)
    and never meant as the stopping signal, so they are skipped.
    """
    best = None
    for j, m in enumerate(magnitudes):
        if m == 0:
            continue
        if best is None or m < magnitudes[best]:
            best = j
    if best is None:
        raise ValueError("no nonzero terms to truncate on")
    return best


@dataclass(frozen=True)
class ExpansionResult:
    """One evaluated expansion.

    terms holds the successive series terms of the primary saddle after
    the prefactor is pulled out; truncation_index is where that series was
    actually cut (inclusive).  components carries the per-saddle
    contributions I_j in saddle order (for the single-saddle routes just
    the value itself), component_truncations their individual cut points,
    and exponent = x * Re h(u0) locates the overall scale.  value is the
    double rounding of mp_value, which keeps the extended-precision result
    for difference measurements.
    """

    value: float
    terms: tuple[complex, ...]
    truncation_index: int
    truncation_mode: TruncationMode
    exponent: float
    components: tuple[float, ...]
    component_truncations: tuple[int, ...]
    mp_value: object
    mp_components: tuple
    route: str


def _mp_phase(phase: Phase, u):
    """h, h' and h'' at u, at working precision."""
    s = -1 if phase.sign is Sign.MINUS else 1
    lam, a = mp.mpf(phase.lam), mp.mpf(phase.a)
    p, q = mp.exp(u) / 2, s * mp.exp(-lam * u) / 2
    return p + q - a * u, p - lam * q - a, p + lam ** 2 * q


def _pick_k(policy: TruncationPolicy, mags) -> int:
    if policy.mode is TruncationMode.FIXED:
        return policy.k
    return optimal_truncation(mags)


def _series_span(policy: TruncationPolicy, max_order: int) -> int:
    if policy.mode is TruncationMode.FIXED:
        return policy.k
    return max_order


def _result(val, terms, k_cut: int, h0, x: float, trunc: TruncationPolicy,
            route: str) -> ExpansionResult:
    """A one-component result from its mp value, terms and cut."""
    value = float(val)
    return ExpansionResult(
        value=value,
        terms=tuple(complex(t) for t in terms),
        truncation_index=k_cut,
        truncation_mode=trunc.mode,
        exponent=float(x * mp.re(h0)),
        components=(value,),
        component_truncations=(k_cut,),
        mp_value=val,
        mp_components=(val,),
        route=route,
    )


def _saddle_series(phase: Phase, location: complex, x: float,
                   trunc: TruncationPolicy, max_order: int,
                   conjugate_pair: bool, route: str) -> ExpansionResult:
    """One simple-saddle series at working precision:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    with the location Newton-polished first.  A real saddle gives real
    terms and this value as it stands; for a conjugate pair (location the
    upper member, principal square root) the mirror saddle adds the
    complex conjugate, so the value is twice the real part.
    """
    xm = mp.mpf(x)
    um = mp.mpc(location) if conjugate_pair else mp.mpf(location.real)
    for _ in range(6):  # Newton polish of the double-precision location
        _, h1, h2 = _mp_phase(phase, um)
        um -= h1 / h2
    kmax = _series_span(trunc, max_order)
    coeff = simple_coeffs_mp(phase, um, kmax)
    if not conjugate_pair:
        coeff = [mp.re(c) for c in coeff]
    terms = [(-1) ** k * mp.rf(mp.mpf(1) / 2, k) * coeff[k] / (xm / 2) ** k
             for k in range(kmax + 1)]
    k_cut = _pick_k(trunc, [abs(t) for t in terms])
    h0, _, h2 = _mp_phase(phase, um)
    val = (mp.e ** (xm * h0) / mp.sqrt(2 * mp.pi * xm * h2)
           * mp.fsum(terms[:k_cut + 1]))
    if conjugate_pair:
        val = 2 * mp.re(val)
    return _result(val, terms, k_cut, h0, x, trunc, route)


def _minus_route(args: ScaledArgs, trunc: TruncationPolicy, max_order: int,
                 conjugate_pair: bool) -> ExpansionResult:
    """Regime checks of the real-saddle or conjugate-pair route, then the
    series over its contributory saddle."""
    if args.sign is not Sign.MINUS:
        raise WrongRegime("minus-phase route called with plus-sign arguments")
    lam, a = args.lam, args.a
    if is_near_curve(lam, a):
        raise WrongRegime(
            "parameters lie on the saddle-coalescence curve; "
            "use the double-saddle expansion")
    cls = classify_minus(lam, a)
    route = "conjugate-pair" if conjugate_pair else "real-saddle"
    if (cls.regime is Regime.CONJUGATE_PAIR) is not conjugate_pair:
        need = "complex saddles" if conjugate_pair else "a real saddle"
        raise WrongRegime(f"{route} route needs {need}; regime is "
                          f"{cls.regime.value} at lam={lam}, a={a}")
    # Coefficients in extended precision: the deep tail of this series
    # reaches relative errors near 1e-13, where double-precision
    # reversion noise in A_4, A_5 already distorts the measurement.
    with mp.workdps(_PREC_DPS):
        return _saddle_series(Phase(lam, a, Sign.MINUS),
                              cls.contributory[0].location, args.x, trunc,
                              max_order, conjugate_pair, route)


def expand_minus_real(args: ScaledArgs, trunc: TruncationPolicy,
                      max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Expansion over the larger of the two real minus-phase saddles:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    Valid above the coalescence curve (and for -1 < lam <= 0, where the
    single real saddle plays the same role).  Within 1e-6 of the curve the
    reversion is ill conditioned; use the double-saddle route there.
    """
    return _minus_route(args, trunc, max_order, conjugate_pair=False)


def expand_minus_complex(args: ScaledArgs, trunc: TruncationPolicy,
                         max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Expansion over the conjugate saddle pair (minus phase below the
    coalescence curve):

        sqrt(2/(pi x)) * Re{ e^(x h0) / sqrt(h0'')
                             * sum_k (-1)^k (1/2)_k A_k / (x/2)^k }

    evaluated at the upper saddle with the principal square root; the
    conjugate saddle contributes the mirror term, hence the real part.
    """
    return _minus_route(args, trunc, max_order, conjugate_pair=True)


def expand_minus_double(lam: float, x: float, trunc: TruncationPolicy,
                        max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Expansion at the double saddle, on the coalescence curve a = a*(lam):

        2^(2/3) e^(x h0) / (3 pi) * sum_k B_k Gamma((k+1)/3)
                                    * sin(pi (k+1)/3) / (H x/3)^((k+1)/3)

    with H = 2 h'''(u0).  The sine kills every k = 2 (mod 3) term, so those
    appear as exact zeros in the term list.
    """
    if lam <= 0.0:
        raise WrongRegime("the double-saddle route requires lam > 0")
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"x must be positive and finite, got {x}")
    kmax = _series_span(trunc, max_order)
    series = double_saddle_coeffs(lam, kmax)
    with mp.workdps(_PREC_DPS):
        lm, xm = mp.mpf(lam), mp.mpf(x)
        gam = (1 - lm) / (1 + lm)
        am = (1 + lm) / 2 * lm ** gam
        u0 = 2 * mp.log(lm) / (1 + lm)
        h0 = (mp.exp(u0) - mp.exp(-lm * u0)) / 2 - am * u0
        big_h = (1 + lm) * lm ** (2 / (1 + lm))
        hx3 = big_h * xm / 3
        terms = []
        for k in range(kmax + 1):
            if k % 3 == 2:
                terms.append(mp.mpf(0))
                continue
            t = (mp.mpf(series.coefficients[k].real) / hx3 ** (mp.mpf(k) / 3)
                 * mp.gamma(mp.mpf(k + 1) / 3) * mp.sin(mp.pi * (k + 1) / 3))
            terms.append(t)
        k_cut = _pick_k(trunc, [abs(t) for t in terms])
        pref = (mp.mpf(2) ** (mp.mpf(2) / 3) * mp.e ** (xm * h0)
                / (3 * mp.pi * hx3 ** (mp.mpf(1) / 3)))
        val = pref * mp.fsum(terms[:k_cut + 1])
        return _result(val, terms, k_cut, h0, x, trunc, "double-saddle")


# The chain geometry and the pair corrections do not depend on where I_0
# is cut, so fixed-k error sweeps would otherwise redo the costly parts
# (extended-precision reversion per saddle) once per column.
@functools.lru_cache(maxsize=64)
def _cached_region(lam: float, a: float) -> RegionCount:
    return count_contributory_pairs(lam, a)


@functools.lru_cache(maxsize=64)
def _cached_pair_contributions(lam: float, a: float, x: float,
                               n_pairs: int, max_order: int):
    phase = Phase(lam, a, Sign.PLUS)
    with mp.workdps(_PLUS_DPS):
        return tuple(_saddle_series(phase, sadl.location, x,
                                    TruncationPolicy.optimal(), max_order,
                                    True, "chain pair")
                     for sadl in complex_saddle_chain(phase, n_pairs))


def expand_plus(args: ScaledArgs, trunc: TruncationPolicy,
                include_subdominant: bool = False,
                max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Plus-phase expansion: the real-saddle series I_0 plus the
    contributory complex-pair contributions I_1..I_N.

    The truncation policy applies to I_0; each pair series is cut at its
    own optimal point (their terms diverge much earlier, and the fixed-k
    error study only makes sense against fully converged corrections).
    When the last pair is subdominant (Re h(u_N) < 0, exponentially small
    against I_0) it is reported in components but left out of the value
    unless include_subdominant is set.
    """
    if args.sign is not Sign.PLUS:
        raise WrongRegime("plus-phase route called with minus-sign arguments")
    lam, a, x = args.lam, args.a, args.x
    region: RegionCount = _cached_region(lam, a)
    phase = Phase(lam, a, Sign.PLUS)
    real_saddle = solve_real_saddle(phase)
    with mp.workdps(_PLUS_DPS):
        i0 = _saddle_series(phase, real_saddle.location, x, trunc, max_order,
                            False, "chain")
        parts = (i0,) + _cached_pair_contributions(lam, a, x, region.n_pairs,
                                                   max_order)
        components = tuple(p.mp_value for p in parts)
        kept = components
        if region.last_pair_subdominant and not include_subdominant:
            kept = components[:-1]
        total = sum(kept, mp.mpf(0))
        return ExpansionResult(
            value=float(total),
            terms=i0.terms,
            truncation_index=i0.truncation_index,
            truncation_mode=trunc.mode,
            exponent=i0.exponent,
            components=tuple(float(c) for c in components),
            component_truncations=tuple(p.truncation_index for p in parts),
            mp_value=total,
            mp_components=components,
            route="chain",
        )


def expand_minus_auto(args: ScaledArgs, trunc: TruncationPolicy,
                      max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Dispatch the minus-phase expansion on the saddle configuration:
    real route above the curve (or lam <= 0), double route within 1e-6 of
    it, conjugate-pair route below."""
    lam, a = args.lam, args.a
    if lam > 0.0 and is_near_curve(lam, a):
        return expand_minus_double(lam, args.x, trunc, max_order)
    cls = classify_minus(lam, a)
    if cls.regime is Regime.CONJUGATE_PAIR:
        return expand_minus_complex(args, trunc, max_order)
    return expand_minus_real(args, trunc, max_order)
