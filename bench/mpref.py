"""50-digit mpmath evaluation of the coefficient recursion, and ``clean_order_max``.

Same recursion as the package's series engine (reciprocal and square of the
gap series, force composition through powers of the displacement), written
out here per particle in multiple precision from the same double-precision
inputs: the rest positions i*L/N, the force harmonics and the time rescale.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf

DIGITS = 50
#: Column-relative error under which an order counts as clean.
CLEAN_TOL = 1e-6
#: Agreement required on orders <= 5 at N=16 before the reference is trusted.
SELF_CHECK_TOL = 1e-13


def reference_columns(force: dict, N: int, J: int) -> list[list]:
    """Unscaled c_{ij} for j = 0..J as ``cols[j][i]`` (mpf), at DIGITS digits."""
    with mp.workdps(DIGITS):
        L = mpf(force["L"])
        delta = L / N
        x = [mpf(float(v)) for v in np.arange(N, dtype=float) * (float(force["L"]) / N)]
        k_cap = (J - 1) // 2
        fk = [[mpf(0)] * N for _ in range(k_cap + 1)]  # F^(k)(x_i) / k!
        for h in force["harmonics"]:
            w = 2 * mp.pi * h["k"] / L
            a, b = mpf(h["a"]), mpf(h["b"])
            for k in range(k_cap + 1):
                wk = w**k / math.factorial(k)
                for i in range(N):
                    th = w * x[i] + k * mp.pi / 2
                    fk[k][i] += wk * (a * mp.cos(th) + b * mp.sin(th))
        for i in range(N):
            fk[0][i] += mpf(force.get("a0", 0.0))

        zero = [mpf(0)] * N
        c = [zero] + [None] * J
        u, recip, w2, gap = [zero], [[1 / delta] * N], [[1 / delta**2] * N], [zero]
        powu = [None] + [[zero] for _ in range(k_cap)]  # powu[k][m][i] = [t^m] u_i^k
        c[1] = list(fk[0])
        for j in range(2, J + 1):
            m = j - 1
            u.append([c[m - 1][i] / m for i in range(N)])
            gap.append([u[m][(i + 1) % N] - u[m][i] for i in range(N)])
            recip.append([-mp.fsum(gap[q][i] * recip[m - q][i] for q in range(1, m + 1)) / delta
                          for i in range(N)])
            w2.append([mp.fsum(recip[q][i] * recip[m - q][i] for q in range(m + 1))
                       for i in range(N)])
            if k_cap >= 1:
                powu[1].append(u[m])
            for k in range(2, k_cap + 1):
                powu[k].append([mp.fsum(u[q][i] * powu[k - 1][m - q][i] for q in range(m + 1))
                                for i in range(N)])
            c[j] = [(w2[m][i - 1] - w2[m][i]
                     + mp.fsum(fk[k][i] * powu[k][m][i] for k in range(1, k_cap + 1))) / j
                    for i in range(N)]
        return c


def column_errors(table, force: dict) -> list[float]:
    """Column-relative error of ``table`` (a CoefficientTable) per order j = 1..J.

    An order whose reference column vanishes must vanish exactly in the table.
    """
    ref = reference_columns(force, table.N, table.j_max)
    errs = []
    with mp.workdps(DIGITS):
        s = mpf(table.scale)
        for j in range(1, table.j_max + 1):
            col = [v * s**j for v in ref[j]]
            top = max(abs(v) for v in col)
            diff = max(abs(mpf(float(table.data[i, j])) - col[i]) for i in range(table.N))
            if top == 0:
                errs.append(0.0 if diff == 0 else math.inf)
            else:
                errs.append(float(diff / top))
    return errs


def clean_order_max(errs: list[float]) -> int:
    """Highest j such that every order <= j is within CLEAN_TOL."""
    j = 0
    while j < len(errs) and errs[j] <= CLEAN_TOL:
        j += 1
    return j
