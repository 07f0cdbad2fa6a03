"""Steepest-descent asymptotic expansions of the scaled Wright functions
for large x at fixed lam and a.

Four routes, one per saddle configuration:

  minus sign, two real saddles      -> expand_minus_real   (larger saddle)
  minus sign, conjugate pair        -> expand_minus_complex
  minus sign, on the coalescence curve -> expand_minus_double
  plus sign (always)                -> expand_plus (real saddle plus the
                                       contributory complex-pair chain)

Each returns the truncated series value together with the raw terms and
the value at every shorter cut (the partial sums), so callers can study
the error behaviour from one call rather than just consume a number.
Every route works at one extended precision, 50 digits: e^(x h0)
reaches 1e12 and beyond, where double rounding alone would swamp the
small differences (oracle minus expansion) these expansions are judged
by; the deep tail of a series reaches relative errors near 1e-13, where
double-precision noise in A_4, A_5 already shows; and the plus-phase
value feeds differences (W - I_0) in which twelve leading digits cancel,
leaving about 38.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import mpmath as mp

from .core import DomainError, ScaledArgs, Sign
from .coeffs import simple_coeffs_mp, double_saddle_coeffs
from .saddles import Phase, Regime, classify_minus, \
    count_contributory_pairs, double_saddle_curve, is_near_curve, \
    polish_saddle, u_star

_PREC_DPS = 50
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
    actually cut (inclusive).  mp_partial_sums[k] is the extended-precision
    value with the primary series cut at k instead, for k = 0 ..
    truncation_index, so one call serves a whole fixed-k error study;
    mp_value, the last of them, is the result, and value its double
    rounding.  mp_components carries the per-saddle contributions I_j in
    saddle order (for the single-saddle routes just the value itself) and
    components their doubles, component_truncations their individual cut
    points and truncation_reasons why each was cut there: "fixed" (the
    policy's k), "minimum" (the smallest term) or "capped" (the optimal
    rule landed on the last computed term, so the minimum may lie beyond
    max_order), and exponent = x * Re h(u0) locates the overall scale.
    coefficients holds the A_k (or, on the double route, the B_k) of the
    primary series as the route used them, k = 0 .. len(terms) - 1.
    """

    terms: tuple[complex, ...]
    truncation_index: int
    truncation_mode: TruncationMode
    exponent: float
    component_truncations: tuple[int, ...]
    truncation_reasons: tuple[str, ...]
    mp_partial_sums: tuple
    mp_components: tuple
    route: str
    coefficients: tuple

    @property
    def mp_value(self):
        return self.mp_partial_sums[-1]

    @property
    def value(self) -> float:
        return float(self.mp_value)

    @property
    def components(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.mp_components)


def _series_span(policy: TruncationPolicy, max_order: int) -> int:
    if policy.mode is TruncationMode.FIXED:
        return policy.k
    return max_order


def _result(pref, terms, coeffs, h0, x: float, trunc: TruncationPolicy,
            route: str, pair: bool = False) -> ExpansionResult:
    """A one-component result: the series cut where the policy says (its
    k, or the smallest term) and pref * sum_{j<=k} t_j for every k up to
    that cut, twice the real part for the upper member of a conjugate
    pair.  Each prefix sum is one exact running sum rounded once, so it is
    bit-equal to mp.fsum of the prefix."""
    if trunc.mode is TruncationMode.FIXED:
        k_cut, reason = trunc.k, "fixed"
    else:
        k_cut = optimal_truncation([abs(t) for t in terms])
        reason = "capped" if k_cut == len(terms) - 1 else "minimum"
    partials, s = [], mp.mpf(0)
    for t in terms[:k_cut + 1]:
        s = mp.fadd(s, t, exact=True)
        v = pref * (+s)
        partials.append(2 * mp.re(v) if pair else v)
    return ExpansionResult(
        terms=tuple(complex(t) for t in terms),
        truncation_index=k_cut,
        truncation_mode=trunc.mode,
        exponent=float(x * mp.re(h0)),
        component_truncations=(k_cut,),
        truncation_reasons=(reason,),
        mp_partial_sums=tuple(partials),
        mp_components=(partials[-1],),
        route=route,
        coefficients=tuple(coeffs),
    )


def _saddle_series(phase: Phase, location: complex, x: float,
                   trunc: TruncationPolicy, max_order: int,
                   route: str) -> ExpansionResult:
    """One simple-saddle series at working precision:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    with the location Newton-polished first.  A real saddle gives real
    terms and this value as it stands; a complex location is the upper
    member of a conjugate pair (principal square root), whose mirror
    saddle adds the complex conjugate, so the value is twice the real
    part.
    """
    xm = mp.mpf(x)
    um, h0, h2 = polish_saddle(phase, location)
    kmax = _series_span(trunc, max_order)
    coeff = simple_coeffs_mp(phase, um, kmax)
    # r = (-1)^k (1/2)_k / (x/2)^k as one running product
    terms, r, hx = [], mp.mpf(1), -xm / 2
    for k, ak in enumerate(coeff):
        terms.append(r * ak)
        r = r * (k + 0.5) / hx
    pref = mp.e ** (xm * h0) / mp.sqrt(2 * mp.pi * xm * h2)
    return _result(pref, terms, coeff, h0, x, trunc, route,
                   location.imag != 0)


def _minus_route(args: ScaledArgs, trunc: TruncationPolicy, max_order: int,
                 route: str | None) -> ExpansionResult:
    """Regime checks of the real-saddle or conjugate-pair route, then the
    series over its contributory saddle; with route None, whichever route
    the saddle configuration calls for, the double one included."""
    if args.sign is not Sign.MINUS:
        raise WrongRegime("minus-phase route called with plus-sign arguments")
    lam, a = args.lam, args.a
    if is_near_curve(lam, a):
        if route is None:
            return expand_minus_double(lam, args.x, trunc, max_order)
        raise WrongRegime(
            "parameters lie on the saddle-coalescence curve; "
            "use the double-saddle expansion")
    cls = classify_minus(lam, a)
    found = ("conjugate-pair" if cls.regime is Regime.CONJUGATE_PAIR
             else "real-saddle")
    if route not in (None, found):
        need = ("complex saddles" if route == "conjugate-pair"
                else "a real saddle")
        raise WrongRegime(f"{route} route needs {need}; regime is "
                          f"{cls.regime.value} at lam={lam}, a={a}")
    with mp.workdps(_PREC_DPS):
        return _saddle_series(Phase(lam, a, Sign.MINUS),
                              cls.contributory[0].location, args.x, trunc,
                              max_order, found)


def expand_minus_real(args: ScaledArgs, trunc: TruncationPolicy,
                      max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Expansion over the larger of the two real minus-phase saddles:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    Valid above the coalescence curve (and for -1 < lam <= 0, where the
    single real saddle plays the same role).  Within 1e-6 of the curve the
    reversion is ill conditioned; use the double-saddle route there.
    """
    return _minus_route(args, trunc, max_order, "real-saddle")


def expand_minus_complex(args: ScaledArgs, trunc: TruncationPolicy,
                         max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Expansion over the conjugate saddle pair (minus phase below the
    coalescence curve):

        sqrt(2/(pi x)) * Re{ e^(x h0) / sqrt(h0'')
                             * sum_k (-1)^k (1/2)_k A_k / (x/2)^k }

    evaluated at the upper saddle with the principal square root; the
    conjugate saddle contributes the mirror term, hence the real part.
    """
    return _minus_route(args, trunc, max_order, "conjugate-pair")


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
    coeffs = double_saddle_coeffs(lam, kmax)
    with mp.workdps(_PREC_DPS):
        xm = mp.mpf(x)
        phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        h0, _, _, h3 = phase.derivs(u_star(mp.mpf(lam)), 3)
        hx3 = 2 * h3 * xm / 3
        terms = []
        for k in range(kmax + 1):
            if k % 3 == 2:
                terms.append(mp.mpf(0))
                continue
            t = (mp.mpf(coeffs[k]) / hx3 ** (mp.mpf(k) / 3)
                 * mp.gamma(mp.mpf(k + 1) / 3) * mp.sin(mp.pi * (k + 1) / 3))
            terms.append(t)
        pref = (mp.mpf(2) ** (mp.mpf(2) / 3) * mp.e ** (xm * h0)
                / (3 * mp.pi * hx3 ** (mp.mpf(1) / 3)))
        return _result(pref, terms, coeffs, h0, x, trunc, "double-saddle")


def expand_plus(args: ScaledArgs, trunc: TruncationPolicy,
                include_subdominant: bool = False,
                max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Plus-phase expansion: the real-saddle series I_0 plus the
    contributory complex-pair contributions I_1..I_N.

    The truncation policy applies to I_0; each pair series is cut at its
    own optimal point (their terms diverge much earlier, and the fixed-k
    error study only makes sense against fully converged corrections), so
    partial sum k is I_0 cut at k plus the same pair values.  When the
    last pair is subdominant (Re h(u_N) < 0, exponentially small against
    I_0) it is reported in components but left out of the value unless
    include_subdominant is set.
    """
    if args.sign is not Sign.PLUS:
        raise WrongRegime("plus-phase route called with minus-sign arguments")
    lam, a, x = args.lam, args.a, args.x
    region = count_contributory_pairs(lam, a)
    phase = Phase(lam, a, Sign.PLUS)
    with mp.workdps(_PREC_DPS):
        i0 = _saddle_series(phase, region.saddles[0].location, x, trunc,
                            max_order, "chain")
        parts = (i0,) + tuple(
            _saddle_series(phase, sadl.location, x,
                           TruncationPolicy.optimal(), max_order,
                           "chain pair")
            for sadl in region.saddles[1:])
        components = tuple(p.mp_value for p in parts)
        kept = components[1:]
        if region.last_pair_subdominant and not include_subdominant:
            kept = kept[:-1]
        return replace(
            i0,
            component_truncations=tuple(p.truncation_index for p in parts),
            truncation_reasons=tuple(p.truncation_reasons[0] for p in parts),
            mp_partial_sums=tuple(sum((s,) + kept, mp.mpf(0))
                                  for s in i0.mp_partial_sums),
            mp_components=components,
        )


def expand_minus_auto(args: ScaledArgs, trunc: TruncationPolicy,
                      max_order: int = _DEFAULT_MAX_ORDER) -> ExpansionResult:
    """Dispatch the minus-phase expansion on the saddle configuration:
    real route above the curve (or lam <= 0), double route within 1e-6 of
    it, conjugate-pair route below.  The saddles are located once."""
    return _minus_route(args, trunc, max_order, None)
