"""Cost of the optimal expansion against the oracle at four fixed points.

    python3 tools/thesis_cost.py [--root CHECKOUT] [--xs 30,100,300]
        [--repeat 5]

For each of the points (1.7, 0.9, -), (0.3, 1.3, -), (2.6, 0.25, +) and
(2, 0.5, -), and each x (default 30, 100, 300, 1000 and 3000), it times
one optimal expansion (`expand_minus_auto` or `expand_plus` with
`TruncationPolicy.optimal()`) and one oracle call (`w_minus` or `w_plus`
at the default 60 digits), each the best of --repeat calls in this
process after one untimed call.  An oracle call that raises is timed to
its refusal and reported by the exception's name.  The table gives the
expansion's route, its truncation reason and index for every series it
sums (the primary one first), both times and their ratio; a ratio below
1 is where the expansion is the cheaper of the two.

--root imports the package from another checkout (say an export of the
parent commit made with `git archive`), so one script measures both
sides of a change; it defaults to the checkout holding this file.  Times
are wall-clock milliseconds on the machine that runs it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

POINTS = ((1.7, 0.9, "minus"), (0.3, 1.3, "minus"), (2.6, 0.25, "plus"),
          (2.0, 0.5, "minus"))
XS = (30.0, 100.0, 300.0, 1000.0, 3000.0)


def _best(call, repeat: int) -> tuple[float, object]:
    """(best wall time in ms, the last result or the exception raised)."""
    best, out = float("inf"), None
    for i in range(repeat + 1):
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 - a refusal is a result
            out = exc
        if i:
            best = min(best, (time.perf_counter() - t0) * 1e3)
    return best, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                    help="checkout whose src/ to import the package from")
    ap.add_argument("--xs", default=",".join(f"{x:g}" for x in XS),
                    help="comma-separated x values")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed calls per entry (best of)")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.root, "src")))
    from wrightasym.core import ScaledArgs, Sign
    from wrightasym.expansions import (TruncationPolicy, expand_minus_auto,
                                       expand_plus)
    from wrightasym.oracle import PrecisionConfig, w_minus, w_plus

    print("| (lam, a, sign) | x | route | cuts | expansion ms | oracle ms "
          "| exp/oracle |")
    print("|---|---|---|---|---|---|---|")
    for lam, a, sign in POINTS:
        minus = sign == "minus"
        expand = expand_minus_auto if minus else expand_plus
        oracle = w_minus if minus else w_plus
        for x in map(float, args.xs.split(",")):
            sa = ScaledArgs(lam, a, x, Sign.MINUS if minus else Sign.PLUS)
            t_exp, res = _best(lambda: expand(sa, TruncationPolicy.optimal()),
                               args.repeat)
            t_or, ref = _best(lambda: oracle(sa, PrecisionConfig()),
                              args.repeat)
            if isinstance(res, Exception):
                route, cuts = "-", type(res).__name__
            else:
                route = res.route
                cuts = ", ".join(f"{why} {k}" for why, k in zip(
                    res.truncation_reasons, res.component_truncations))
            oracle_ms = (f"{t_or:.2f}" if not isinstance(ref, Exception)
                         else f"{t_or:.2f} ({type(ref).__name__})")
            print(f"| ({lam:g}, {a:g}, {'-' if minus else '+'}) | {x:g} "
                  f"| {route} | {cuts} | {t_exp:.2f} | {oracle_ms} "
                  f"| {t_exp / t_or:.2g} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
