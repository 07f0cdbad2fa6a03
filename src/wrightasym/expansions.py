"""Steepest-descent asymptotic expansions of the scaled Wright functions
for large x at fixed lam and a.

Two entries, one per sign, over one body that reads the saddles the
contour crosses (saddles.contour) and names the route after its regime:

  expand_minus_auto  minus sign, in one of three regimes:
                       real saddle (the larger of two above the
                         coalescence curve a*, the only one for lam <= 0)
                       conjugate pair (below the curve)
                       double saddle (contour's DOUBLE regime,
                         |a - a*| <= 1e-6 * max(1, a*), where `wright
                         saddles` reports `regime: double`)
  expand_plus        plus sign: the real saddle plus the contributory
                     complex-pair chain

The body builds the double-saddle series, or else one SaddleSeries per
contributory saddle (location, h0, prefactor, terms and coefficients,
uncut), and hands them to one assembly, which cuts, folds conjugate
pairs into twice the real part and sums.  A simple-saddle series the
optimal rule cuts is built term by term on the resumable coefficient
engine (coeffs.SimpleCoeffs), and only until its terms have risen well
past their least one or fallen below the working precision
(_least_terms); a fixed cut and the double saddle compute their orders
in one go.  The result keeps those
series, the value and the value at every shorter cut (the partial sums),
so callers can study the error behaviour from one call rather than just
consume a number; a subdominant last chain pair that the value leaves
out is polished at the call, but its series is built only when a caller
reads the components.  Both entries work at one extended precision, 50
digits: e^(x h0) reaches 1e12 and beyond, where double rounding alone
would swamp the small differences (oracle minus expansion) these
expansions are judged by; the deep tail of a series reaches relative
errors near 1e-13, where double-precision noise in A_4, A_5 already
shows; and the plus-phase value feeds differences (W - I_0) in which
twelve leading digits cancel, leaving about 38.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate, count

import mpmath as mp

from .core import ScaledArgs, Sign
from .coeffs import DegenerateSaddle, SimpleCoeffs, double_saddle_coeffs, \
    simple_coeffs_mp
from .saddles import Phase, Regime, contour, double_saddle_curve, \
    polish_saddle, u_star

_PREC_DPS = 50
_EXACT_ADD = functools.partial(mp.fadd, exact=True)
# the highest order a series is computed to: the cap of the optimal
# rule and the largest fixed truncation k
_MAX_ORDER = 40
# an optimal series stops at its least term once the two latest terms'
# binary exponents, as _least_terms estimates them, lie this many above
# the least one's (over 10 decades apart), and at the working precision
# once two consecutive terms lie this many bits more than the working
# precision below their partial sums (over 8 more, real or complex)
_RISE = 35
_TINY = 10
_ROUTES = {Regime.SINGLE_REAL: "real-saddle", Regime.TWO_REAL: "real-saddle",
           Regime.CONJUGATE_PAIR: "conjugate-pair",
           Regime.DOUBLE: "double-saddle", Regime.CHAIN: "chain"}


class WrongRegime(ValueError):
    """An expansion entry was called with arguments of the other sign."""


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
        if k > _MAX_ORDER:
            raise ValueError(f"truncation order must be at most {_MAX_ORDER}")
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
class SaddleSeries:
    """One contributory saddle's series, uncut.

    location is the double-precision saddle the route solved; a complex
    location is the upper member of a conjugate pair, whose mirror saddle
    adds the complex conjugate.  h0 is h(u0) at the polished saddle, pref
    the prefactor and mp_terms the series terms after it is pulled out,
    built from coefficients (the A_k, or the B_k at the double saddle),
    k = 0 .. len(mp_terms) - 1: to the fixed k, or for a simple-saddle
    series the optimal rule cuts, to where it stopped (_least_terms).
    """

    location: complex
    h0: object
    pref: object
    mp_terms: tuple
    coefficients: tuple
    # "precision" where a series built term by term stopped because its
    # last two terms fell below the working precision (_least_terms)
    _stop: str | None = field(default=None, repr=False)


@dataclass(frozen=True)
class ExpansionResult:
    """One evaluated expansion.

    series holds each contributory saddle's SaddleSeries, the primary one
    first.  terms (rounded to complex doubles) and coefficients (the A_k,
    or on the double route the B_k) are views of the primary series,
    which an optimal call builds only until its rule stops, and
    truncation_index is where it was actually cut (inclusive).  mp_value
    is the extended-precision result, and value its double rounding.
    mp_partial_sums[k] is the value with the primary series cut at k
    instead, for k = 0 .. truncation_index, so one call serves a whole
    fixed-k error study; it is built on first read, and its last entry is
    mp_value.  mp_components carries the per-saddle contributions I_j in
    saddle order (for the single-saddle routes just the value itself) and
    components their doubles, component_truncations their individual cut
    points and truncation_reasons why each was cut there: "fixed" (the
    policy's k), "minimum" (the smallest term), "precision" (the last
    computed term: it and the one before lie below the working precision
    of the partial sum) or "capped" (the optimal rule landed on the last
    term the order cap allows, so the minimum may lie beyond it), and
    exponent = x * Re h(u0) locates the overall scale.  A chain pair the
    value leaves out (the subdominant last one) is still listed in
    series, the components, component_truncations and
    truncation_reasons; its series is built on the first read of any of
    them, once, at the working precision, and mp_summands lists the
    components as the value adds them without building it.
    """

    truncation_mode: TruncationMode
    exponent: float
    mp_value: object
    route: str
    # (series, cut, reason, component) of each saddle the value adds, the
    # primary one first
    _cuts: tuple
    # builds the series of the saddle left out of the value, if any; two
    # results of one call compare equal whether or not it has run
    _left_out: Callable[[], SaddleSeries] | None = field(default=None,
                                                         compare=False)

    @functools.cached_property
    def _columns(self) -> tuple:
        """(series, cuts, reasons, components), the left-out saddle's
        built and cut at the working precision."""
        cuts = self._cuts
        if self._left_out is not None:
            with mp.workdps(_PREC_DPS):
                cuts += (_cut(self._left_out()),)
        return tuple(zip(*cuts))

    @property
    def series(self) -> tuple[SaddleSeries, ...]:
        return self._columns[0]

    @property
    def component_truncations(self) -> tuple[int, ...]:
        return self._columns[1]

    @property
    def truncation_reasons(self) -> tuple[str, ...]:
        return self._columns[2]

    @property
    def mp_components(self) -> tuple:
        return self._columns[3]

    @property
    def mp_summands(self) -> tuple:
        """What mp_value sums, one entry per saddle listed in series: the
        mp_components, except that a pair the value leaves out adds 0 and
        is not built."""
        left = (mp.mpf(0),) if self._left_out is not None else ()
        return tuple(c[3] for c in self._cuts) + left

    @property
    def terms(self) -> tuple[complex, ...]:
        return tuple(complex(t) for t in self._cuts[0][0].mp_terms)

    @property
    def coefficients(self) -> tuple:
        return self._cuts[0][0].coefficients

    @property
    def truncation_index(self) -> int:
        return self._cuts[0][1]

    @functools.cached_property
    def mp_partial_sums(self) -> tuple:
        (s, k, _, _), added = self._cuts[0], [c[3] for c in self._cuts[1:]]
        sums = accumulate(s.mp_terms[:k + 1], _EXACT_ADD)
        with mp.workdps(_PREC_DPS):
            return tuple(sum(added, _component(s, acc)) for acc in sums)

    @property
    def value(self) -> float:
        return float(self.mp_value)

    @property
    def components(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.mp_components)


def _component(s: SaddleSeries, acc):
    """pref * acc, acc an exact sum of s's terms rounded once, and twice
    its real part for a complex location."""
    v = s.pref * (+acc)
    return 2 * mp.re(v) if s.location.imag != 0 else v


def _cut(s: SaddleSeries, k: int | None = None) -> tuple:
    """(s, k, reason, component): s cut at k, or at its smallest term when
    k is None.  The component is pref * sum_{j<=k} t_j, twice the real
    part for a complex location, the sum exact and rounded once."""
    if k is not None:
        why = "fixed"
    elif s._stop == "precision":
        k, why = len(s.mp_terms) - 1, s._stop
    else:
        k = optimal_truncation([abs(t) for t in s.mp_terms])
        why = "capped" if k == len(s.mp_terms) - 1 else "minimum"
    acc = functools.reduce(_EXACT_ADD, s.mp_terms[:k + 1])
    return s, k, why, _component(s, acc)


def _assemble(series, x: float, trunc: TruncationPolicy, route: str,
              left_out: Callable[[], SaddleSeries] | None = None
              ) -> ExpansionResult:
    """A route's result from the series of the saddles its value adds, the
    primary one first: that one cut by the policy (its k, or the smallest
    term), every other at its smallest term, and the value their sum.
    left_out builds the series of a further saddle the result lists but
    the value leaves out; it runs on first read."""
    k0 = trunc.k if trunc.mode is TruncationMode.FIXED else None
    cuts = tuple(_cut(s, None if j else k0) for j, s in enumerate(series))
    comps = [c[3] for c in cuts]
    return ExpansionResult(
        truncation_mode=trunc.mode,
        exponent=float(x * mp.re(series[0].h0)),
        mp_value=sum(comps[1:], comps[0]),
        route=route,
        _cuts=cuts,
        _left_out=left_out,
    )


def _saddle_series(phase: Phase, location: complex, x: float,
                   order: int, optimal: bool) -> Callable[[], SaddleSeries]:
    """One simple-saddle series at working precision:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    with the location Newton-polished first (principal square root for
    a complex saddle); to A_order, or with optimal set term by term with
    order the cap (_least_terms).  The polish and the refusal of a
    degenerate saddle run at the call; the series is built by the
    function returned, which the caller runs at the working precision.
    """
    um, h0, h2, pq = polish_saddle(phase, location, parts=True)
    if abs(h2) < 1e-10:
        raise DegenerateSaddle(f"|h^(2)(u0)| = {float(abs(h2)):.2e}: "
                               f"saddle is (numerically) of higher order")
    return functools.partial(_build_series, phase, location, um, h0, h2,
                             pq, x, order, optimal)


def _build_series(phase: Phase, location: complex, um, h0, h2, pq,
                  x: float, order: int, optimal: bool) -> SaddleSeries:
    """_saddle_series's series, from the polished saddle um, h0, h2 and
    pq = Phase.parts(um)."""
    xm = mp.mpf(x)
    if optimal:
        coeff, terms, stop = _least_terms(SimpleCoeffs(phase, um, order,
                                                       pq), xm, order)
    else:
        coeff = simple_coeffs_mp(phase, um, order, pq)
        terms = [r * a for r, a in zip(_ratios(xm), coeff)]
        stop = None
    pref = mp.e ** (xm * h0) / mp.sqrt(2 * mp.pi * xm * h2)
    return SaddleSeries(location, h0, pref, tuple(terms), tuple(coeff),
                        stop)


def _ratios(xm):
    """(-1)^k (1/2)_k / (x/2)^k, k = 0, 1, ..., as one running product."""
    r, hx = mp.mpf(1), -xm / 2
    for k in count():
        yield r
        r = r * (k + 0.5) / hx


def _mag(v) -> int | None:
    """e with 2^(e-1) <= max(|Re v|, |Im v|) < 2^e; None for v = 0."""
    if type(v) is mp.mpc:
        (_, m, e, bc), (_, mi, ei, bci) = v._mpc_
        if mi and (not m or ei + bci > e + bc):
            return ei + bci
    else:
        _, m, e, bc = v._mpf_
    return e + bc if m else None


def _least_terms(coeffs: SimpleCoeffs, xm, cap: int) -> tuple:
    """(A_0..A_n, t_0..t_n, stop) of a series the optimal rule cuts: the
    engine is extended one A_k at a time, and the series ends at the
    first n at which

    - the two latest terms both lie _RISE binary orders above the least
      nonzero term so far, so the least term is behind (stop None); or
    - the two latest terms both lie wp + _TINY bits below their partial
      sums, wp the working precision, so no later term can move the
      value (stop "precision"); or
    - n = cap (stop None).

    The first test takes log2 |t_k| as l_k + SimpleCoeffs.log2(k), l_k
    the float log2 of |t_k / A_k|, which is at most 1 above it and under
    1/2 below it; _RISE = 35 leaves over 2^33.5 > 1e10.  The A_k and the
    terms are formed once the series stops, as for a fixed cut, unless
    a term may be within reach of the second test: from there on each is
    formed as it comes, with the exact partial sum the test compares it
    with.  If the engine then re-runs the orders used at a larger scale
    (SimpleCoeffs.rescale), the series is built again.
    """
    wp, x = mp.mp.prec, float(xm)
    floor = wp + _TINY
    # a term is formed once it may lie floor bits below its partial sum,
    # which is under (cap + 1) times the largest term
    reach = floor - (cap + 1).bit_length() - 3
    ratios = _ratios(xm)
    terms, stop, tiny = None, None, False
    lr, low, top, prev = 0.0, None, None, None
    for k in range(cap + 1):
        la = coeffs.log2(k)
        m = None if la is None else lr + la
        lr += math.log2((2 * k + 1) / x)
        if m is not None:
            low = m if low is None else min(low, m)
            top = m if top is None else max(top, m)
        if terms is None and (m is None or m <= top - reach):
            terms = [r * a for a, r in zip(coeffs.upto(k), ratios)]
            acc = functools.reduce(_EXACT_ADD, terms)
        elif terms is not None:
            terms.append(next(ratios) * coeffs.upto(k)[k])
            acc = _EXACT_ADD(acc, terms[-1])
        if terms is not None:
            mt, sm = _mag(terms[-1]), _mag(acc)
            was = tiny
            tiny = mt is None or sm is not None and mt <= sm - floor
            if was and tiny:
                stop = "precision"
                break
        if None not in (m, prev) and min(m, prev) >= low + _RISE:
            break
        prev = m
    if coeffs.rescale():
        return _least_terms(coeffs, xm, cap)
    coeff = coeffs.upto(k)
    if terms is None:
        terms = [r * a for a, r in zip(coeff, ratios)]
    return coeff, terms, stop


def _double_series(lam: float, x: float, order: int) -> SaddleSeries:
    """The double-saddle series to B_order at working precision, on the
    coalescence curve a = a*(lam):

        2^(2/3) e^(x h0) / (3 pi) * sum_k B_k Gamma((k+1)/3)
                                    * sin(pi (k+1)/3) / (H x/3)^((k+1)/3)

    with H = 2 h'''(u0).  The sine kills every k = 2 (mod 3) term, so those
    appear as exact zeros in the term list.
    """
    coeffs = double_saddle_coeffs(lam, order)
    xm = mp.mpf(x)
    phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    u0 = u_star(mp.mpf(lam))
    h0, _, _, h3 = phase.derivs(u0, 3)
    hx3 = 2 * h3 * xm / 3
    root = mp.cbrt(hx3)
    # g[k % 3] = Gamma((k+1)/3) / (H x/3)^(k/3), carried from k to k + 3
    # by Gamma(s + 1) = s Gamma(s); the sine is sqrt(3)/2 times 1, 1, 0,
    # -1, -1, 0 as k runs through 0..5 (mod 6)
    g13, g23, sine, c23, pi3 = _double_constants(mp.mp.prec)
    g = [g13, g23 / root]
    terms = []
    for k, bk in enumerate(coeffs):
        if k % 3 == 2:
            terms.append(mp.mpf(0))
            continue
        terms.append(mp.mpf(bk) * g[k % 3] * (sine if k % 6 < 2 else -sine))
        g[k % 3] = g[k % 3] * (k + 1) / (3 * hx3)
    pref = c23 * mp.e ** (xm * h0) / (pi3 * root)
    return SaddleSeries(complex(u0), h0, pref, tuple(terms), tuple(coeffs))


@functools.cache
def _double_constants(prec: int) -> tuple:
    """Gamma(1/3), Gamma(2/3), sqrt(3)/2, 2^(2/3) and 3 pi at prec bits,
    as _double_series uses them."""
    with mp.workprec(prec):
        return (mp.gamma(mp.mpf(1) / 3), mp.gamma(mp.mpf(2) / 3),
                mp.sqrt(3) / 2, mp.mpf(2) ** (mp.mpf(2) / 3), 3 * mp.pi)


def _expand(sign: Sign, args: ScaledArgs, trunc: TruncationPolicy,
            include_subdominant: bool, max_order: int) -> ExpansionResult:
    """Both entries' body: the series of the saddles args' contour
    crosses, assembled under the route its regime names.  A subdominant
    last pair the value leaves out is polished here and built on first
    read."""
    if args.sign is not sign:
        raise WrongRegime(f"{sign.value}-phase route called with "
                          f"{args.sign.value}-sign arguments")
    if not 0 <= max_order <= _MAX_ORDER:
        raise ValueError("max_order must be nonnegative" if max_order < 0
                         else f"max_order must be at most {_MAX_ORDER}")
    lam, a, x = args.lam, args.a, args.x
    c = contour(lam, a, args.sign)
    fixed = trunc.mode is TruncationMode.FIXED
    order = trunc.k if fixed else max_order
    kept = len(c.saddles) - 1
    if c.last_pair_subdominant and not include_subdominant:
        kept -= 1
    series, left_out = [], None
    with mp.workdps(_PREC_DPS):
        if c.regime is Regime.DOUBLE:
            series.append(_double_series(lam, x, order))
        else:
            phase = Phase(lam, a, args.sign)
            for j, sadl in enumerate(c.saddles):
                # the primary series to the policy's k, every other one
                # (and an optimal primary one) term by term to max_order
                build = _saddle_series(phase, sadl.location, x,
                                       max_order if j else order,
                                       bool(j) or not fixed)
                if j <= kept:
                    series.append(build())
                else:
                    left_out = build
        return _assemble(series, x, trunc, _ROUTES[c.regime], left_out)


def expand_minus_auto(args: ScaledArgs,
                      trunc: TruncationPolicy) -> ExpansionResult:
    """Minus-phase expansion over the saddle its contour crosses.

    At a real saddle (the larger of two above the coalescence curve, the
    only one for lam <= 0):

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    Below the curve, over the conjugate pair:

        sqrt(2/(pi x)) * Re{ e^(x h0) / sqrt(h0'')
                             * sum_k (-1)^k (1/2)_k A_k / (x/2)^k }

    evaluated at the upper saddle with the principal square root; the
    conjugate saddle contributes the mirror term, hence the real part.
    Near the curve a* the reversion behind the A_k is ill conditioned, so
    in contour's DOUBLE regime, |a - a*| <= 1e-6 * max(1, a*), the
    double-saddle series (_double_series) is evaluated on the curve
    itself.  The saddles are located once.
    """
    return _expand(Sign.MINUS, args, trunc, False, _MAX_ORDER)


def expand_plus(args: ScaledArgs, trunc: TruncationPolicy,
                include_subdominant: bool = False,
                max_order: int = _MAX_ORDER) -> ExpansionResult:
    """Plus-phase expansion: the real-saddle series I_0 plus the
    contributory complex-pair contributions I_1..I_N.

    The truncation policy applies to I_0; each pair series is cut at its
    own optimal point (their terms diverge much earlier, and the fixed-k
    error study only makes sense against fully converged corrections), so
    partial sum k is I_0 cut at k plus the same pair values.  When the
    last pair is subdominant (Re h(u_N) < 0, exponentially small against
    I_0) it is reported in components but left out of the value unless
    include_subdominant is set; left out, its series is built on the
    first read of the components (or of series, their cuts or reasons),
    so a caller of the value alone never pays for it.  max_order caps the
    order of the pair series (and of an optimal I_0): each is built term
    by term only until its optimal rule stops, at its least term, at the
    working precision or at the cap.  It must lie in 0..40; anything else
    is refused with ValueError.
    """
    return _expand(Sign.PLUS, args, trunc, include_subdominant, max_order)
