"""Acceptance gate: eight numbered end-to-end checks, one test each.

Every test reproduces a block of the tabulated reference material (or a
property the construction promises) and emits a single PASS/FAIL verdict
line; conftest.py replays the lines in the terminal summary.

Checks 1-5 compare against the figures exactly as tabulated.  Where
recomputation shows a tabulated figure is itself off (the slipped-digit
and stray-power-of-ten cells documented in reference.py), the comparison
here still targets the figure as printed and fails honestly; the
self-checks in tables.py carry the adjudicated values instead.  Each
deviation in a failing verdict line is tagged "[documented erratum]" when
its cell has a reference.CORRECTIONS entry and meets that entry within
the self-check tolerance, and "[new]" otherwise.
"""

import random
import time

import pytest
from mpmath import mp

from closed_forms import b_polynomials, closed_form_A
from wrightasym.coeffs import SaddleCoeffs, double_saddle_coeffs
from wrightasym.core import ScaledArgs, Sign, WrightParams
from wrightasym.oracle import PrecisionConfig, w_minus, w_plus, wright_series
from wrightasym.saddles import (
    Phase,
    double_saddle_curve,
    polish_saddle,
    solve_complex_pair,
    solve_real_saddle,
)
from wrightasym.tables import (
    compute_fig2,
    compute_fig4,
    compute_t1,
    compute_t2,
    compute_t3,
    compute_t4,
    compute_t5,
)

# tolerance conventions: "matches p significant figures" is a relative
# deviation below 5e-p; "all 8 printed digits" is half a unit in the
# eighth decimal place; coefficient cells allow one unit in the last
# printed place (the tables truncate some round-half digits)
_SIG12 = 5e-12
_SIG7 = 5e-7
_SIG3 = 5e-3


def _finish(verdict, num: int, title: str, failures: list[str],
            detail: str) -> None:
    ok = not failures
    if not ok:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; +{len(failures) - 4} more"
        detail = f"{len(failures)} deviation(s): {shown}"
    verdict(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {title} ({detail})")
    assert ok, f"{title}: " + "; ".join(failures)


def _tag(*cells) -> str:
    """How a deviation involving these cells stands against the
    adjudicated corrections (a cell carries a note exactly when it has a
    reference.CORRECTIONS entry)."""
    documented = all(c.note is not None and c.ok for c in cells)
    return "[documented erratum]" if documented else "[new]"


@pytest.fixture(scope="module")
def t1_timed():
    start = time.perf_counter()
    report = compute_t1()
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def t2_report():
    return compute_t2()


@pytest.fixture(scope="module")
def t3_report():
    return compute_t3()


def test_acceptance_1_real_saddle_table(verdict, t1_timed):
    report, seconds = t1_timed
    failures = [f"{c.row} {c.label}: dev {c.deviation:.2e} > {c.tol:.2e}"
                for c in report.cells if not c.ok]
    if seconds >= 10.0:
        failures.append(f"runtime {seconds:.1f} s, limit 10 s")
    _finish(verdict, 1, "real-saddle table: u0, A_1..A_5, error decay",
            failures, f"{len(report.cells)} cells in {seconds:.1f} s")


def test_acceptance_2_conjugate_pair_table(verdict, t2_report):
    failures = [f"{c.row} {c.label}: dev {c.deviation:.2e} > {c.tol:.2e}"
                for c in t2_report.cells if not c.ok]
    _finish(verdict, 2, "conjugate-pair table: saddle, complex A_1..A_5, "
            "error decay", failures, f"{len(t2_report.cells)} cells")


def test_acceptance_3_double_saddle_table(verdict, t3_report):
    failures = []
    n_err = 0
    for c in t3_report.cells:
        if "==" in c.label:
            # lam=1: the k=0,1,3 truncations must coincide to >= 10 digits
            dev = abs(c.computed - c.target) / abs(c.target)
            if dev > 5e-10:
                failures.append(f"{c.row} {c.label}: agree only to "
                                f"{dev:.1e} {_tag(c)}")
            continue
        n_err += 1
        dev = abs(c.computed - c.printed) / abs(c.printed)
        if dev > 1e-2:
            failures.append(
                f"{c.row} {c.label}: computed {c.computed:.4e} is "
                f"{dev:.1%} off the tabulated {c.printed:.4e} {_tag(c)}")
    _finish(verdict, 3, "double-saddle error table vs tabulated figures",
            failures, f"{n_err} error cells + lam=1 coincidence rows")


def test_acceptance_4_chain_truncation_table(verdict):
    report = compute_t4()
    failures = []
    for c in report.cells:
        if c.label == "N":
            if c.computed != c.printed:
                failures.append(f"{c.row}: N = {c.computed:g}, "
                                f"stated {c.printed:g} {_tag(c)}")
            continue
        dev = abs(c.computed - c.printed) / abs(c.printed)
        if dev > 2e-2:
            failures.append(
                f"{c.row} {c.label}: computed {c.computed:.4e} is "
                f"{dev:.1%} off the tabulated {c.printed:.4e} {_tag(c)}")
    _finish(verdict, 4, "chain mixed-truncation table: pair counts and "
            "k=0..5 errors", failures, f"{len(report.cells)} cells")


def test_acceptance_5_difference_table(verdict):
    report = compute_t5()
    failures = []
    for c in report.cells:
        tol = _SIG7 if c.label == "W" else _SIG3
        dev = abs(c.computed - c.printed) / abs(c.printed)
        if dev > tol:
            failures.append(
                f"{c.row} {c.label}: computed {c.computed:.6e} is "
                f"{dev:.2e} off the tabulated {c.printed:.6e} {_tag(c)}")
    _finish(verdict, 5, "difference table: W to 7 figures, Delta W and "
            "I_1 to 3 figures", failures, f"{len(report.cells)} cells")


def test_acceptance_6_parameter_plane_landmarks(verdict):
    cells = compute_fig2().cells + compute_fig4().cells
    failures = [f"{c.row} {c.label}: dev {c.deviation:.2e} > {c.tol:.0e}"
                for c in cells if not c.ok]
    _finish(verdict, 6, "curve maximum and first contour-change crossing",
            failures, "3 landmarks")


def test_acceptance_7_property_suites(verdict, t1_timed, t2_report,
                                      t3_report):
    failures = []

    # residual and curvature window on random two-real-saddle cases
    rng = random.Random(11)
    for _ in range(50):
        lam = rng.uniform(0.2, 5.0)
        a = double_saddle_curve(lam) * rng.uniform(1.05, 3.0)
        ph = Phase(lam, a, Sign.MINUS)
        lo, hi = solve_real_saddle(ph)
        for sadl in (lo, hi):
            res = abs(ph.dh(sadl.location.real))
            if res > 1e-12:
                failures.append(f"residual {res:.1e} at lam={lam:.3f} "
                                f"a={a:.3f} [new]")
        h2 = hi.second_derivative.real
        if not 0.0 < h2 < a:
            failures.append(f"h'' = {h2:.3e} outside (0, a={a:.3f}) at "
                            f"lam={lam:.3f} [new]")

    # closed-form A_0..A_3 against the coefficient engine at the
    # polished saddle, both regimes
    for seed, complex_pair in ((211, False), (212, True)):
        rng = random.Random(seed)
        for _ in range(20):
            if complex_pair:
                lam = rng.uniform(0.3, 4.0)
                a = double_saddle_curve(lam) * rng.uniform(0.2, 0.9)
                ph = Phase(lam, a, Sign.MINUS)
                sadl = solve_complex_pair(ph)
            else:
                lam = rng.uniform(0.2, 5.0)
                a = double_saddle_curve(lam) * rng.uniform(1.05, 3.0)
                ph = Phase(lam, a, Sign.MINUS)
                sadl = solve_real_saddle(ph)[1]
            with mp.workdps(50):
                u0, _, _, _ = polish_saddle(ph, sadl.location)
                engine = SaddleCoeffs(ph, u0, 2, 3).checked(3)
            closed = closed_form_A(ph, sadl.location)
            for k in range(4):
                dev = abs(complex(engine[k]) - closed[k])
                if dev > 1e-10 * max(1.0, abs(closed[k])):
                    failures.append(f"A_{k} reversion gap {dev:.1e} at "
                                    f"lam={lam:.3f} a={a:.3f} [new]")

    # B_0..B_6 closed polynomials against numeric reversion
    for lam in (0.3, 0.5, 1.0, 2.0, 5.0):
        poly = b_polynomials(lam)
        reverted = double_saddle_coeffs(lam, 6)
        for k in range(7):
            dev = abs(poly[k] - reverted[k])
            if dev > 1e-10 * max(1.0, abs(reverted[k])):
                failures.append(f"B_{k} reversion gap {dev:.1e} at "
                                f"lam={lam:g} [new]")

    # oracle stability under precision doubling across the table grid
    grid = [(-0.25, 1.0, 40.0, Sign.MINUS), (1.0, 1.20, 40.0, Sign.MINUS),
            (0.50, 0.80, 40.0, Sign.MINUS), (1.50, 0.50, 40.0, Sign.MINUS)]
    grid += [(lam, double_saddle_curve(lam), 40.0, Sign.MINUS)
             for lam in (0.5, 1.0, 2.0)]
    grid += [(1.0, 0.50, 20.0, Sign.PLUS), (3.0, 0.20, 20.0, Sign.PLUS),
             (6.0, 0.20, 20.0, Sign.PLUS)]
    grid += [(lam, 0.20, x, Sign.PLUS)
             for lam in (3.0, 4.0, 6.0) for x in (20.0, 30.0, 40.0)]
    for lam, a, x, sign in grid:
        args = ScaledArgs(lam, a, x, sign)
        fn = w_minus if sign is Sign.MINUS else w_plus
        v1 = fn(args, PrecisionConfig(60)).mp_value
        v2 = fn(args, PrecisionConfig(120)).mp_value
        with mp.workdps(140):
            rel = float(abs(v1 - v2) / abs(v2))
        if rel > 1e-14:
            failures.append(f"doubling moved the oracle by {rel:.1e} at "
                            f"lam={lam:g} a={a:g} x={x:g} [new]")

    # error decay must not reverse along any tabulated row
    for name, report in (("real-saddle", t1_timed[0]),
                         ("conjugate-pair", t2_report),
                         ("double-saddle", t3_report)):
        rows: dict[str, list[tuple[int, float]]] = {}
        for c in report.cells:
            if c.label.startswith("err k=") and "==" not in c.label:
                rows.setdefault(c.row, []).append(
                    (int(c.label.split("=")[1]), c))
        for row, pairs in rows.items():
            pairs.sort(key=lambda kc: kc[0])
            for (k0, c0), (k1, c1) in zip(pairs, pairs[1:]):
                if c1.computed > c0.computed:
                    failures.append(
                        f"{name} {row}: error rises from {c0.computed:.4e} "
                        f"at k={k0} to {c1.computed:.4e} at k={k1} "
                        f"{_tag(c0, c1)}")

    _finish(verdict, 7, "property suites: residuals, curvature window, "
            "coefficient cross-checks, oracle stability, error decay",
            failures, "50+40 random cases, 5 B rows, 19 grid points")


def _bessel_series(order, w):
    """Modified Bessel I_order(w) summed directly from its series."""
    half = w / 2
    total = mp.mpf(0)
    for n in range(80):
        total += half ** (2 * n + order) / (mp.factorial(n)
                                            * mp.gamma(n + order + 1))
    return total


def test_acceptance_8_bessel_identity(verdict):
    failures = []
    for mu in (1.0, 2.0, 5.0):
        for z in (0.5, 1.0, 4.0):
            res = wright_series(WrightParams(1.0, mu), z)
            with mp.workdps(40):
                zm = mp.mpf(z)
                ref = zm ** ((1 - mp.mpf(mu)) / 2) \
                    * _bessel_series(mp.mpf(mu) - 1, 2 * mp.sqrt(zm))
                rel = float(abs((mp.mpf(res.value) - ref) / ref))
            if rel > _SIG12:
                failures.append(f"mu={mu:g} z={z:g}: rel dev {rel:.1e}")
    _finish(verdict, 8, "modified-Bessel reduction at lam=1 to 12 figures",
            failures, "9 (mu, z) points")
