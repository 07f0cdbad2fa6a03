"""Expansion coefficients: reversion, closed forms, double-saddle scaling.

The low orders are checked against the closed forms in closed_forms.py,
the high orders against an independent Lagrange inversion kept here:
J.C.P. Miller powers of the Taylor series of
w(t) = (m (h(u0) - h(u0 + t)))^(1/m), O(n^3).  The integer engine is
also held to the mpmath engine it replaced (fdot_engine.py) run at 80
digits, the complex recurrence to the four-product one it replaced
(four_products.py).
"""

from __future__ import annotations

import cmath
import hashlib
import random

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, from_rational, round_nearest

import fdot_engine
import four_products
from closed_forms import b_polynomials, closed_form_A
from wrightasym import coeffs
from wrightasym.core import DomainError, Sign
from wrightasym.coeffs import (
    DegenerateSaddle,
    SaddleCoeffs,
    double_saddle_coeffs,
)
from wrightasym.saddles import (
    Phase,
    chain_member,
    double_saddle_curve,
    double_saddle_point,
    polish_saddle,
    solve_complex_pair,
    solve_real_saddle,
)


def _real_case(lam, factor):
    a = double_saddle_curve(lam) * factor
    ph = Phase(lam, a, Sign.MINUS)
    lo, hi = solve_real_saddle(ph)
    return ph, hi


def _one_shot(phase, u0, m, n):
    """(parts, fb, r, h^(m)(u0)) of the engine run to beta_n in one go,
    its bits checked, as SaddleCoeffs.checked runs it; n = 2 cap + 1 at
    m = 2 and cap + 1 at m = 3, cap the last c_k."""
    b = SaddleCoeffs(phase, u0, m, (n - 1) // (2 if m == 2 else 1))
    b.extend(n)
    b.rescale()
    return b.parts, b.fb, b.r, b.hm


def _betas(phase, u0, m, n):
    """beta_1..beta_n and h^(m)(u0), each beta rounded once from the
    engine's ints to the working precision: the engine read at any m and
    precision, which the double route reads at m = 3 in floats only."""
    parts, fb, r, hm = _one_shot(phase, u0, m, n)
    out = []
    for k, v in enumerate(zip(*parts), 1):
        s = fb + r * k
        xs = [from_rational(x, k << s, mp.mp.prec, round_nearest) if s >= 0
              else from_rational(x << -s, k, mp.mp.prec, round_nearest)
              for x in v]
        out.append(mp.make_mpf(xs[0]) if len(xs) == 1
                   else mp.make_mpc(tuple(xs)))
    return out, hm


def _engine_A(ph, location, order):
    """A_0..A_order the one way the package makes them: the polished
    saddle, then the coefficient engine, at 50 digits."""
    with mp.workdps(50):
        u0, _, _, _ = polish_saddle(ph, location)
        return SaddleCoeffs(ph, u0, 2, order).checked(order)


# -- phase derivatives and the saddle polish -----------------------------

def test_phase_dnh_matches_numerical_differentiation():
    ph, saddle = _real_case(1.0, 1.3)
    u0 = saddle.location.real
    with mp.workdps(40):
        for n in range(2, 9):
            num = mp.diff(lambda t: (mp.e ** t - mp.e ** (-1.0 * t)) / 2 - ph.a * t,
                          mp.mpf(u0), n)
            assert abs(ph.derivs(u0, n)[n] - complex(num)) \
                < 1e-9 * max(1.0, abs(num))


def test_polish_rejects_non_stationary_point():
    ph = Phase(1.0, 1.3, Sign.MINUS)
    lo, hi = solve_real_saddle(ph)
    with pytest.raises(DomainError):
        polish_saddle(ph, hi.location + 0.25)
    # a saddle of the other phase is not stationary for this one
    with pytest.raises(DomainError):
        polish_saddle(Phase(1.0, 1.3, Sign.PLUS), hi.location)


# -- simple-saddle A_k ----------------------------------------------------

def test_closed_forms_match_reversion_real_regime():
    rng = random.Random(3)
    for _ in range(20):
        lam = rng.uniform(0.2, 5.0)
        ph, saddle = _real_case(lam, rng.uniform(1.05, 3.0))
        got = _engine_A(ph, saddle.location, 3)
        closed = closed_form_A(ph, saddle.location)
        for k in (1, 2, 3):
            want = closed[k]
            assert abs(complex(got[k]) - want) <= 1e-10 * max(1.0, abs(want)), \
                (lam, k)


def test_closed_forms_match_reversion_complex_regime():
    rng = random.Random(5)
    for _ in range(20):
        lam = rng.uniform(0.3, 4.0)
        a = double_saddle_curve(lam) * rng.uniform(0.2, 0.9)
        ph = Phase(lam, a, Sign.MINUS)
        saddle = solve_complex_pair(ph)
        got = _engine_A(ph, saddle.location, 3)
        closed = closed_form_A(ph, saddle.location)
        for k in (1, 2, 3):
            assert abs(complex(got[k]) - closed[k]) \
                <= 1e-10 * max(1.0, abs(closed[k])), (lam, a, k)


def test_a_real_at_real_saddles():
    for lam, factor in ((0.7, 1.5), (2.0, 1.2), (4.0, 2.0)):
        ph, saddle = _real_case(lam, factor)
        with mp.workdps(50):
            u0, h0, h2, _ = polish_saddle(ph, saddle.location)
        assert all(type(v) is mp.mpf for v in (u0, h0, h2))
        coeffs = _engine_A(ph, saddle.location, 5)
        assert coeffs[0] == 1
        assert all(type(c) is mp.mpf for c in coeffs)


def test_a_conjugation_equivariance():
    ph = Phase(1.5, 0.5, Sign.MINUS)
    s = solve_complex_pair(ph)
    up = _engine_A(ph, s.location, 4)
    dn = _engine_A(ph, s.location.conjugate(), 4)
    for cu, cd in zip(up, dn):
        assert cmath.isclose(complex(cd), complex(cu).conjugate(),
                             rel_tol=1e-11, abs_tol=1e-13)


def test_degenerate_saddle_refused():
    lam = 1.0
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    u0 = double_saddle_point(lam).location
    with pytest.raises(DegenerateSaddle):
        closed_form_A(ph, u0)
    with mp.workdps(50), pytest.raises(DegenerateSaddle):
        SaddleCoeffs(ph, mp.mpf(u0.real), 2, 3).checked(3)


# -- double-saddle B_k ----------------------------------------------------

def test_b_polynomials_spot_values():
    c = 2.0 ** (1.0 / 3.0)
    for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
        b = double_saddle_coeffs(lam, 6)
        assert b[0] == pytest.approx(1.0, abs=1e-14)
        assert b[1] == pytest.approx((lam - 1.0) / (3.0 * c), rel=1e-12)
        assert b[2] == pytest.approx((1.0 - 6.0 * lam + lam ** 2) / (20.0 * c * c),
                                     rel=1e-12, abs=1e-14)
        assert b[3] == pytest.approx(
            (5.0 + 93.0 * lam - 93.0 * lam ** 2 - 5.0 * lam ** 3) / 1620.0,
            rel=1e-12, abs=1e-14)


def test_b_polynomials_match_numerical_reversion():
    for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
        poly = b_polynomials(lam)
        revd = double_saddle_coeffs(lam, 6)
        for k in range(7):
            assert abs(poly[k] - revd[k]) <= 1e-10 * max(1.0, abs(revd[k])), \
                (lam, k, poly[k], revd[k])


def test_b_at_lam_one_odd_orders_vanish():
    b = double_saddle_coeffs(1.0, 6)
    assert abs(b[1]) < 1e-14
    assert abs(b[3]) < 1e-14
    assert abs(b[5]) < 1e-14


def test_double_h_scale_is_twice_third_derivative():
    for lam in (0.5, 1.0, 2.0, 3.0):
        ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
        u0 = 2.0 * cmath.log(lam).real / (1.0 + lam)
        want = (1.0 + lam) * lam ** (2.0 / (1.0 + lam))
        assert abs(2.0 * ph.derivs(u0, 3)[3].real - want) < 1e-12 * want


# -- high orders against Lagrange inversion ------------------------------

def _ps_pow_unit(f, alpha, n):
    # q = f**alpha for a unit series (f[0] == 1), J.C.P. Miller recurrence
    q = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1)
    for k in range(1, n):
        s = mp.mpc(0)
        for j in range(1, k + 1):
            s += ((alpha + 1) * j - k) * f[j] * q[k - j]
        q[k] = s / k
    return q


def _lagrange_b(phase, u0, m, js):
    """b_j for j in js of t(w), h(u0) - h(u0 + t) = w^m/m, by Lagrange
    inversion: b_j = [t^(j-1)] (t/w(t))^j / j, one O(n^2) power per j."""
    js = list(js)
    n = max(js)
    s = -1 if phase.sign is Sign.MINUS else 1
    lam = mp.mpf(phase.lam)
    # Taylor coefficients c_j = h^(j)(u0)/j!, j = m..m+n-1
    c = [(mp.exp(u0) + s * (-lam) ** j * mp.exp(-lam * u0)) / 2
         / mp.factorial(j) for j in range(m, m + n)]
    # w = w1 t (1 + (c_(m+1)/c_m) t + ...)^(1/m); w1 on the package's branch
    w1 = 1 / mp.root(-1 / (m * c[0]), m)
    f = _ps_pow_unit([cj / c[0] for cj in c], mp.mpf(1) / m, n)
    return [_ps_pow_unit(f, -j, j)[j - 1] / (j * w1 ** j) for j in js]


def _cubic_b(phase, u0, n):
    """b_1..b_n of the cubic substitution from the normalized engine:
    b_k = beta_k b_1^k, b_1 the principal root of b_1^3 = -2/h^(3)(u0)."""
    beta, h3 = _betas(phase, u0, 3, n)
    b1 = mp.root(-2 / h3, 3)
    return [bk * b1 ** k for k, bk in enumerate(beta, 1)]


def _polished(phase, u):
    s = -1 if phase.sign is Sign.MINUS else 1
    lam, a = mp.mpf(phase.lam), mp.mpf(phase.a)
    return mp.findroot(
        lambda v: (mp.exp(v) - s * lam * mp.exp(-lam * v)) / 2 - a, u)


def _high_order_cases():
    ph = Phase(1.0, 1.2, Sign.MINUS)
    yield ph, mp.mpf(solve_real_saddle(ph)[1].location.real)
    ph = Phase(1.5, 0.5, Sign.MINUS)
    yield ph, mp.mpc(solve_complex_pair(ph).location)
    ph = Phase(3.0, 0.2, Sign.PLUS)
    yield ph, mp.mpc(chain_member(ph, 1).location)


@pytest.mark.parametrize("case", range(3), ids=["real", "conjugate", "chain"])
def test_simple_coeffs_match_lagrange_inversion_to_order_15(case):
    ph, u = list(_high_order_cases())[case]
    with mp.workdps(60):
        u0 = _polished(ph, u)
        got = SaddleCoeffs(ph, u0, 2, 15).checked(15)
        b = _lagrange_b(ph, u0, 2, range(1, 32))
        for k in range(16):
            want = (-1) ** k * (2 * k + 1) * b[2 * k] / b[0]
            assert abs(got[k] - want) <= mp.mpf(10) ** -40 * abs(want), k


@pytest.mark.parametrize("lam", [0.5, 1.7, 4.0])
def test_cubic_reversion_matches_lagrange_to_order_20(lam):
    # B_k is a fixed multiple of b_(k+1), so B_0..B_20 need b_1..b_21
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    with mp.workdps(60):
        lm = mp.mpf(lam)
        u0 = 2 * mp.log(lm) / (1 + lm)
        got = _cubic_b(ph, u0, 21)
        want = _lagrange_b(ph, u0, 3, range(1, 22))
        for j, (g, w) in enumerate(zip(got, want), start=1):
            assert abs(g - w) <= mp.mpf(10) ** -40 * abs(w), j


@pytest.mark.parametrize("case", range(3), ids=["real", "conjugate", "chain"])
def test_simple_coeffs_match_lagrange_inversion_at_orders_20_to_40(case):
    # the optimal routes compute A_0..A_40
    ph, u = list(_high_order_cases())[case]
    orders = (20, 30, 40)
    with mp.workdps(60):
        u0 = _polished(ph, u)
        got = SaddleCoeffs(ph, u0, 2, 40).checked(40)
        b1, *bs = _lagrange_b(ph, u0, 2, [1] + [2 * k + 1 for k in orders])
        for k, b in zip(orders, bs):
            want = (-1) ** k * (2 * k + 1) * b / b1
            assert abs(got[k] - want) <= mp.mpf(10) ** -40 * abs(want), k


def test_cubic_reversion_matches_lagrange_at_orders_30_and_40():
    lam = 1.7
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    b_float = double_saddle_coeffs(lam, 40)
    with mp.workdps(60):
        lm = mp.mpf(lam)
        u0 = 2 * mp.log(lm) / (1 + lm)
        got = _cubic_b(ph, u0, 41)
        big_h = (1 + lm) * lm ** (2 / (1 + lm))
        for k, b in zip((30, 40), _lagrange_b(ph, u0, 3, (31, 41))):
            assert abs(got[k] - b) <= mp.mpf(10) ** -40 * abs(b), k
            # B_k = (k+1) b_(k+1) (H^(1/3) e^(-i pi/3))^(k+1) / 2^(2/3)
            want = ((k + 1) * b * (mp.cbrt(big_h) * mp.expjpi(-mp.mpf(1) / 3))
                    ** (k + 1) / mp.cbrt(4))
            assert abs(want.imag) <= mp.mpf(10) ** -40 * abs(want), k
            assert b_float[k] == pytest.approx(float(want.real), rel=1e-14)


def test_engine_cost_and_real_arithmetic(monkeypatch):
    # the recurrence runs on ints, and where the saddle is real nothing
    # complex is made: counts, not timings
    calls = {"fdot": 0, "complex": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mp, "fdot", counted("fdot", mp.fdot))
    monkeypatch.setattr(mp, "make_mpc", counted("complex", mp.make_mpc))
    monkeypatch.setattr(coeffs, "_complex_betas",
                        counted("complex", coeffs._complex_betas))
    ph = Phase(1.0, 1.2, Sign.MINUS)
    with mp.workdps(50):
        u0 = _polished(ph, mp.mpf(solve_real_saddle(ph)[1].location.real))
        a_k = SaddleCoeffs(ph, u0, 2, 40).checked(40)
    assert calls == {"fdot": 0, "complex": 0}
    assert all(type(c) is mp.mpf for c in a_k)
    lam = 1.7
    with mp.workdps(40):
        lm = mp.mpf(lam)
        beta, h3 = _betas(Phase(lam, double_saddle_curve(lam), Sign.MINUS),
                          2 * mp.log(lm) / (1 + lm), 3, 41)
    assert calls == {"fdot": 0, "complex": 0}
    assert len(beta) == 41 and type(h3) is mp.mpf
    assert all(type(c) is mp.mpf for c in beta)


def _engine_cases():
    """The real, conjugate, lam < 0 and two chain saddles the integer
    engine is held to the fdot engine at."""
    ph = Phase(1.0, 1.2, Sign.MINUS)
    yield ph, solve_real_saddle(ph)[1].location
    ph = Phase(2.0, 0.5, Sign.MINUS)
    yield ph, solve_complex_pair(ph).location
    ph = Phase(-0.25, 1.0, Sign.MINUS)
    yield ph, solve_real_saddle(ph).location
    ph = Phase(3.0, 0.2, Sign.PLUS)
    yield ph, chain_member(ph, 1).location
    ph = Phase(6.0, 0.2, Sign.PLUS)
    yield ph, chain_member(ph, 2).location


def _errors_against_80_digits(ph, location):
    """Largest relative error of A_0..A_40 at 50 digits, from the integer
    engine and from the fdot engine, against the fdot engine at 80 digits;
    both 50-digit runs start from the 80-digit polished saddle rounded to
    50 digits."""
    with mp.workdps(80):
        u80, _, _, _ = polish_saddle(ph, location)
        want = fdot_engine.simple_coeffs(ph, u80, 40)
    with mp.workdps(50):
        u = +u80
        got = SaddleCoeffs(ph, u, 2, 40).checked(40)
        old = fdot_engine.simple_coeffs(ph, u, 40)
    with mp.workdps(80):
        return tuple(max(abs(a - w) / abs(w) for a, w in zip(run, want))
                     for run in (got, old))


@pytest.mark.parametrize("case", range(5), ids=["real", "conjugate",
                                                "lam<0", "chain1", "chain2"])
def test_engine_matches_80_digit_engine(case):
    # the fdot engine's errors here are 1.8e-49, 5.3e-50, 2.2e-48, 8e-50
    # and 1.0e-49
    ph, location = list(_engine_cases())[case]
    new, old = _errors_against_80_digits(ph, location)
    assert new <= 2 * old, (new, old)


@pytest.mark.parametrize("case", [1, 3, 4],
                         ids=["conjugate", "chain1", "chain2"])
@pytest.mark.parametrize("order", [6, 40])
def test_three_product_recurrence_matches_four_products(monkeypatch, case,
                                                        order):
    # the engine's runs to n = 13 and n = 81 (the pilot's too) give the
    # four-product recurrence's ints on the same (cp, cq, cl, fb, r)
    runs = []
    complex_betas = coeffs._complex_betas

    def recorded(*args):
        runs.append(args)
        return complex_betas(*args)

    monkeypatch.setattr(coeffs, "_complex_betas", recorded)
    ph, location = list(_engine_cases())[case]
    _engine_A(ph, location, order)
    assert 2 * order + 1 in {len(br) for *_, br, bi in runs}
    for cp, cq, cl, m, fb, r, br, bi in runs:
        want = four_products.complex_betas(cp, cq, cl, m, len(br), fb, r)
        assert [br, bi] == want, (m, fb, r)


@pytest.mark.parametrize("case", range(5), ids=["real", "conjugate",
                                                "lam<0", "chain1", "chain2"])
def test_running_power_matches_mpmath_power(case):
    # h''^k as one exact power rounded once is mpmath's own h2 ** k, so
    # every A_k is the quotient (2k+1) beta_(2k+1) / h2 ** k bit for bit
    ph, location = list(_engine_cases())[case]
    with mp.workdps(50):
        u0, _, _, _ = polish_saddle(ph, location)
        got = SaddleCoeffs(ph, u0, 2, 40).checked(40)
        parts, fb, r, h2 = _one_shot(ph, u0, 2, 81)
        for k, a_k in enumerate(got):
            j = 2 * k + 1
            num = [from_man_exp(v[j - 1], -fb - r * j) for v in parts]
            num = (mp.make_mpf(num[0]) if len(num) == 1
                   else mp.make_mpc(tuple(num)))
            want = num / h2 ** k
            assert type(a_k) is type(want) and a_k == want, k


# sha256 of repr((fb, r, [ints of each part])) from the one-shot run
# (_one_shot(ph, u0, 2, n)) of the engine before it was resumable,
# at the five _engine_cases polished at 50 digits
_ONE_SHOT = {(0, 13): "82c79b9d2fdcfc73", (0, 81): "4e188d8dc5c78d40",
             (1, 13): "57a4a1a2cf3d3fa4", (1, 81): "0d20d4151307849b",
             (2, 13): "fa2d20650e2c7f85", (2, 81): "19ffdc0d50ba43d5",
             (3, 13): "1ea7c1186d528518", (3, 81): "815a12729596a449",
             (4, 13): "b31c2f8381efc233", (4, 81): "f3b34ae3358c7e8e"}


@pytest.mark.parametrize("n", [13, 81])
@pytest.mark.parametrize("case", range(5), ids=["real", "conjugate",
                                                "lam<0", "chain1", "chain2"])
def test_resumable_engine_is_the_one_shot_run_at_every_order(case, n):
    # sized from its cap, the engine extended one order at a time holds,
    # at every order, the ints the one-shot run to the cap ends with
    ph, location = list(_engine_cases())[case]
    with mp.workdps(50):
        u0, _, _, parts = polish_saddle(ph, location)
        parts_, fb, r, _ = _one_shot(ph, u0, 2, n)
        digest = hashlib.sha256(repr((fb, r, [list(p) for p in parts_]))
                                .encode()).hexdigest()[:16]
        assert digest == _ONE_SHOT[case, n]
        engine = SaddleCoeffs(ph, u0, 2, (n - 1) // 2, parts)
        for k in range(1, n + 1):
            engine.extend(k)
            assert (engine.fb, engine.r) == (fb, r)
            assert [p[:k] for p in engine.parts] == [p[:k] for p in parts_]
        assert not engine.rescale()


def test_simple_coeffs_resume_to_the_one_shot_values():
    # A_k read one at a time, then checked, are the one-shot checked(40)
    ph, location = list(_engine_cases())[1]
    with mp.workdps(50):
        u0, _, _, _ = polish_saddle(ph, location)
        want = SaddleCoeffs(ph, u0, 2, 40).checked(40)
        got = SaddleCoeffs(ph, u0, 2, 40)
        logs = [got.log2(k) for k in range(41)]
        assert got.checked(40) == want
        for k, (a, e) in enumerate(zip(want, logs)):
            assert e - 1 <= mp.log(abs(a), 2) < e + 0.5, k


def test_engine_reruns_at_a_larger_scale(monkeypatch):
    # with no pilot and no headroom the first run keeps too few bits at
    # (-0.25, 1, -), whose beta's fall to 1e-47 by order 81: the re-run
    # at the larger scale must restore the accuracy
    runs = 0
    real_betas = coeffs._real_betas

    def counted(*args):
        nonlocal runs
        runs += 1
        return real_betas(*args)

    monkeypatch.setattr(coeffs, "_real_betas", counted)
    monkeypatch.setattr(coeffs, "_PILOT", 100)
    monkeypatch.setattr(coeffs, "_SLACK", 0)
    ph, location = list(_engine_cases())[2]
    new, old = _errors_against_80_digits(ph, location)
    assert runs == 2
    assert new <= 2 * old, (new, old)


@pytest.mark.parametrize("lam", [0.2, 0.3, 0.5, 1.0, 1.7, 2.0, 4.0, 8.0])
def test_float_b_engine_matches_60_digit_engine_to_order_40(lam):
    # the double route's B_k come from the engine run in floats at the
    # float u*; the worst gap measured is 9.3e-13 (lam = 4, k = 38)
    got = double_saddle_coeffs(lam, 40)
    assert all(type(b) is float for b in got)
    ph = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    with mp.workdps(60):
        lm = mp.mpf(lam)
        beta, _ = _betas(ph, 2 * mp.log(lm) / (1 + lm), 3, 41)
        for k, (b, bk) in enumerate(zip(got, beta)):
            want = (k + 1) * bk * mp.cbrt(4) ** k
            assert abs(b - want) <= 2e-12 * abs(want), (k, b, want)
