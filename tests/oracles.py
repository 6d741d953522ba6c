"""Test-only oracles: closed forms and two multiple-precision recursions, on
the lattice and on the proxy grid, that the coefficient engine is checked
against, the unpadded ring acceleration the integrator's kernel is checked
against, and the rest start and the acceleration of one state, built from
the integrator's kernel."""

import math

import numpy as np
from mpmath import mp, mpf

from coulomb_chain import (
    CoefficientProfile, RingConfig, TrajectoryState, eval_force,
    initial_positions, ode,
)
from coulomb_chain.series import force_grid


def explicit_c3(config: RingConfig) -> np.ndarray:
    """Closed form of the order-3 coefficient (unscaled).

    c_{i3} = (1/3) delta**(-3) (nabla_minus nabla_plus F)(i) + (1/6) F_i F'_i,
    the j=3 instance of the recursion, which only the m=1 and k=1 terms
    reach.  Agrees with direct third-order differentiation of the equations
    of motion at t=0.
    """
    delta = config.delta
    f0, f1 = force_grid(config, 1)
    forward = np.roll(f0, -1) - f0
    return (forward - np.roll(forward, 1)) / (3.0 * delta**3) + f0 * f1 / 6.0


def initial_state(config: RingConfig) -> TrajectoryState:
    """Uniform rest start: x_i = i*L/N, v_i = 0."""
    return TrajectoryState(t=0.0, x=initial_positions(config), v=np.zeros(config.N))


def acceleration(config: RingConfig, state: TrajectoryState) -> np.ndarray:
    """Net acceleration of every particle in ``state``, by the integrator's kernel.

    Every entry is NaN when any gap is at or below the collision floor, or
    NaN.  Inside ``ode.integrate`` such a row makes DOP853 reject the step,
    also at an accepted state's last stage (its error norm takes the NaN
    through ``np.dot(K.T, E5)`` although ``E5[-1] == 0``), so no accepted
    step reaches the floor; the ordering check and CLI exit code 4 stay as
    the guard for a solver or BLAS build that skips that zero weight.
    """
    x = np.asarray(state.x, dtype=float)
    g0, dg0, work = ode._kernel_rows(ode._gaps(x, config.L))
    out = np.empty_like(x)
    ode._acceleration(config, x, g0, dg0, np.zeros_like(x), out, work)
    return out


def with_left_acceleration(config: RingConfig, x0: np.ndarray, g0: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
    """Ring acceleration at ``x0 + u``, with ``g0`` the cyclic gaps of ``x0``, on unpadded rows.

    Each neighbour op is one ufunc on ``a[1:], a[:-1]`` plus a scalar op for
    the wrap ``op(a[0], a[-1])``, with the same operation order as
    ``ode._acceleration``: (g_i + g_{i-1}) * dg / (g_i g_{i-1}) / (g_i g_{i-1}).
    A gap at or below the floor, or a NaN gap, gives an all-NaN row, as the
    kernel does; ``acceleration`` says why the integrator needs no more
    than that and why its ordering check stays.
    """
    def with_left(op, a):
        out = np.empty_like(a)
        op(a[1:], a[:-1], out=out[1:])
        out[0] = op(a[0], a[-1])
        return out

    def forward_diff(a):
        out = np.empty_like(a)
        np.subtract(a[1:], a[:-1], out=out[:-1])
        out[-1] = a[0] - a[-1]
        return out

    g = g0 + forward_diff(u)
    floor = ode.GAP_FLOOR_FACTOR * config.delta
    if not (g > floor).all():
        return np.full_like(g, np.nan)
    dg = with_left(np.subtract, forward_diff(u))
    dg += with_left(np.subtract, g0)
    out = with_left(np.add, g)
    out *= dg
    g_prod = with_left(np.multiply, g)
    out /= g_prod
    out /= g_prod
    out += eval_force(config.force, x0 + u)
    return out


def _mp_odd_columns(force, J: int, x: list, delta, forward, column) -> list[list]:
    """The unscaled odd columns c_1, c_3, .. up to order J of the recursion on the points ``x``.

    ``forward(u)`` is the gap row nabla_plus(u), and ``column(w, composed, j)``
    is c_j from the rows w = [(delta + R)**(-2)]_{j-1} and
    composed = [F(x + u)]_{j-1}.  The force is composed from the
    powers u**k, sum_k F^(k)(x_i)/k! [u**k]_{j-1} (the engine composes
    through exp(i w u)), with u_m = c_{m-1}/m and the reciprocal and square
    of the gap series delta + nabla_plus(u).  The force's derivatives at
    ``x`` are exact to the working precision; only its amplitudes come in as
    doubles.  From rest only even t-orders of the series are nonzero, so
    row r holds order 2r.
    """
    n, L = len(x), mpf(force.L)
    k_cap = (J - 1) // 2
    fk = [[mpf(force.a0) if k == 0 else mpf(0)] * n for k in range(k_cap + 1)]
    for h in force.harmonics:
        w = 2 * mp.pi * h.k / L
        for k in range(k_cap + 1):
            wk = w**k / math.factorial(k)
            fk[k] = [f + wk * (h.a * mp.cos(w * xi + k * mp.pi / 2)
                               + h.b * mp.sin(w * xi + k * mp.pi / 2))
                     for f, xi in zip(fk[k], x)]
    cols = [fk[0]]
    u, recip, w2 = [None], [[1 / delta] * n], [[1 / delta**2] * n]
    gap = [None]
    powers = [None] + [[None] for _ in range(k_cap)]  # powers[k][r] = [t**(2r)] u**k
    for j in range(3, J + 1, 2):
        r = (j - 1) // 2
        u.append([c / (j - 1) for c in cols[-1]])
        gap.append(forward(u[r]))
        recip.append([-sum(gap[q][i] * recip[r - q][i] for q in range(1, r + 1)) / delta
                      for i in range(n)])
        w2.append([sum(recip[q][i] * recip[r - q][i] for q in range(r + 1)) for i in range(n)])
        powers[1].append(u[r])
        for k in range(2, k_cap + 1):
            powers[k].append([sum(u[q][i] * powers[k - 1][r - q][i]
                                  for q in range(1, r - k + 2)) if r >= k else mpf(0)
                              for i in range(n)])
        cols.append(column(w2[r], [sum(fk[k][i] * powers[k][r][i] for k in range(1, r + 1))
                                   for i in range(n)], j))
    return cols


def mp_coefficients(config: RingConfig, digits: int = 50) -> list[list]:
    """The rescaled odd columns c_{ij} scale**j, j = 1, 3, .., j_max, at ``digits`` digits.

    The unprojected recursion of ``_mp_odd_columns`` on the N lattice points
    i L/N, whose differences are index shifts mod N:
    c_j = (w_{i-1} - w_i + composed_i) / j.  The engine projects each
    column to its band.
    """
    N, J = config.N, config.j_max
    with mp.workdps(digits):
        L = mpf(config.force.L)
        cols = _mp_odd_columns(
            config.force, J, [i * L / N for i in range(N)], L / N,
            lambda u: [u[(i + 1) % N] - u[i] for i in range(N)],
            lambda w, composed, j: [(w[i - 1] - w[i] + composed[i]) / j for i in range(N)])
        s = mpf(config.scale)
        return [[c * s**j for c in col] for j, col in zip(range(1, J + 1, 2), cols)]


def mp_proxy_loop(config: RingConfig, digits: int = 60) -> tuple[int, list[list]]:
    """The engine's proxy-grid recursion at ``digits`` digits: P and each odd column's spectrum.

    Returns (P, spectra): spectra[k] holds the modes 0..B_j, B_j = ceil(j/2)
    K_max, of the P-point DFT X_m = sum_l c_j(x_l) exp(-2 pi i m l/P) of the
    rescaled column j = 2k + 1 on the engine's proxy grid x_l = l L/P, P the
    smallest power of two above 2 B_J.  The recursion is that of
    ``_mp_odd_columns`` on the grid points, exact to the working precision;
    each difference is the exact lattice symbol on the DFT, exp(i theta) - 1
    forward and 1 - exp(-i theta) backward, theta = 2 pi m/N, and each
    column keeps only its band: X = (DFT(composed) - (1 - exp(-i theta))
    DFT(w)) / j over the modes 0..B_j.  Every DFT is an explicit sum.  Unlike
    the engine it applies no filter.  With N = P the lattice is the grid.
    """
    N, J, force = config.N, config.j_max, config.force
    K = max((h.k for h in force.harmonics), default=0)
    bands = {j: (j + 1) // 2 * K for j in range(1, J + 1, 2)}
    top = max(bands.values())
    P = 1 << (2 * top).bit_length()
    with mp.workdps(digits):
        L = mpf(force.L)
        # roots[m][l] = exp(2 pi i m l/P), symbols[m] = exp(2 pi i m/N)
        roots = [[mp.expjpi(mpf(2 * m * l % (2 * P)) / P) for l in range(P)]
                 for m in range(top + 1)]
        symbols = [mp.expjpi(mpf(2 * m) / N) for m in range(top + 1)]

        def dft(values, band):
            return [sum(v * mp.conj(e) for v, e in zip(values, roots[m])) for m in range(band + 1)]

        def grid(spectrum):
            return [sum((1 if m == 0 else 2) * mp.re(x * roots[m][l])
                        for m, x in enumerate(spectrum)) / P for l in range(P)]

        def forward(u):
            return grid([x * (symbols[m] - 1) for m, x in enumerate(dft(u, top))])

        def column(w, composed, j):
            return grid([(c - (1 - mp.conj(symbols[m])) * x) / j for m, (c, x)
                         in enumerate(zip(dft(composed, bands[j]), dft(w, bands[j])))])

        cols = _mp_odd_columns(force, J, [l * L / P for l in range(P)], L / N, forward, column)
        s = mpf(config.scale)
        return P, [dft([c * s**j for c in col], bands[j]) for j, col in zip(bands, cols)]


def mp_lattice(spectra: list[list], N: int, P: int, points) -> list[list]:
    """The values at the lattice points ``points`` of each ``mp_proxy_loop`` spectrum.

    Point i of a spectrum X is (1/P) sum_m w_m Re(X_m exp(2 pi i m i/N)),
    w_0 = 1 and w_m = 2 above: the band-limited column it samples, at
    x = i L/N, at the working precision.
    """
    top = max(len(spectrum) for spectrum in spectra)
    roots = [[mp.expjpi(mpf(2 * m * int(i) % (2 * N)) / N) for m in range(top)] for i in points]
    return [[sum((1 if m == 0 else 2) * mp.re(x * e) for m, (x, e) in enumerate(zip(spectrum, row)))
             / P for row in roots] for spectrum in spectra]


def lattice_profile(config: RingConfig, P: int, spectra: list[list]) -> CoefficientProfile:
    """The magnitude profile of ``config``'s ring from the ``mp_proxy_loop`` output (P, spectra).

    Each spectrum is rounded to doubles and read at all N lattice points by
    a zero-padded ``irfft``, so max_abs[j] is the lattice maximum of |c_j|
    to a few ulps, at any N.
    """
    N, J = config.N, config.j_max
    max_abs = np.zeros(J + 1)
    for j, spectrum in zip(range(1, J + 1, 2), spectra):
        padded = np.zeros(N // 2 + 1, complex)
        padded[: len(spectrum)] = [complex(x) for x in spectrum]
        max_abs[j] = np.abs(np.fft.irfft(padded * (N / P), n=N)).max()
    return CoefficientProfile(N=N, L=config.L, scale=config.scale, max_abs=max_abs)


def clean_order_max(table, config: RingConfig, tol: float = 1e-6) -> tuple[int, float]:
    """How many orders of ``table`` agree with ``mp_coefficients`` in a row, and the worst error.

    An order is clean when its column-relative error is at most ``tol``;
    even orders must be exact zeros.  The worst error is over every order.
    """
    reference = mp_coefficients(config)
    errors = []
    for j in range(1, config.j_max + 1):
        if j % 2 == 0:
            errors.append(0.0 if not table.data[:, j].any() else math.inf)
            continue
        col = reference[j // 2]
        top = max(abs(v) for v in col)
        diff = max(abs(mpf(float(a)) - v) for a, v in zip(table.data[:, j], col))
        errors.append(float(diff / top) if top else (0.0 if diff == 0 else math.inf))
    clean = next((j for j, e in enumerate(errors) if not e <= tol), len(errors))
    return clean, max(errors)
