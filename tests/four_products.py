"""The complex beta recurrence with four real products, kept as a reference.

Not collected by pytest (no test_ prefix); test_coeffs.py imports it.
wrightasym.coeffs._complex_betas forms each complex dot product from
three real ones, p1 = sum re re, p2 = sum im im and p3 = sum (re + im)
(re + im), keeping the sums re + im of every series up to date beside
it.  This is the recurrence it replaced: each complex dot product as
four real ones.  Both are exact integer arithmetic up to the same
roundings toward zero, so they give the same ints.
"""

from __future__ import annotations

from operator import mul

from wrightasym.coeffs import _rz, _series_start


def complex_betas(cp, cq, cl, m: int, n: int, fb: int, r: int) -> list:
    """[re, im] of k beta_k, k = 1..n, in units of 2^-(fb + r k), as
    coeffs._complex_betas defines them."""
    (pr, pi), (qr, qi) = cp, cq
    f2 = 2 * fb
    er, fr = _series_start(cl, m, fb, r)
    ei, fi = [0] * (m + 1), [0] * (m + 1)
    br, bi = [1 << (fb + r)], [0]
    solve = f2 + r * (m - 1)

    def cdot(xr, xi, yr, yi):
        return (sum(map(mul, xr, reversed(yr)))
                - sum(map(mul, xi, reversed(yi))),
                sum(map(mul, xr, reversed(yi)))
                + sum(map(mul, xi, reversed(yr))))

    for k in range(2, n + 1):
        top = k + m - 1
        ser, sei = cdot(br, bi, er, ei)
        sfr, sfi = cdot(br, bi, fr, fi)
        xr = pr * ser - pi * sei - qr * sfr + qi * sfi
        xi = pr * sei + pi * ser - qr * sfi - qi * sfr
        kr = _rz(-k * xr, solve, top)
        ki = _rz(-k * xi, solve, top)
        er.append(_rz(ser, fb, top))
        ei.append(_rz(sei, fb, top))
        fr.append(_rz(cl * sfr, f2, top))
        fi.append(_rz(cl * sfi, f2, top))
        b_r, b_i = _rz(kr, 0, k), _rz(ki, 0, k)
        g_r, g_i = _rz(cl * b_r, fb), _rz(cl * b_i, fb)
        for o in range(m - 1, -1, -1):
            dr = b_r * er[o] - b_i * ei[o]
            di = b_r * ei[o] + b_i * er[o]
            hr = g_r * fr[o] - g_i * fi[o]
            hi = g_r * fi[o] + g_i * fr[o]
            s = fb
            if o == k:
                dr = 2 * dr + b_r * b_r - b_i * b_i
                di = 2 * (di + b_r * b_i)
                hr = 2 * hr + g_r * g_r - g_i * g_i
                hi = 2 * (hi + g_r * g_i)
                s += 1
            j = k + o
            er[j] += _rz(dr, s)
            ei[j] += _rz(di, s)
            fr[j] += _rz(hr, s)
            fi[j] += _rz(hi, s)
        br.append(kr)
        bi.append(ki)
    return [br, bi]
