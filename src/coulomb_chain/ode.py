"""High-accuracy direct integration of the equations of motion.

The ring dynamics

    x_i'' = gap_{i-1}**(-2) - gap_i**(-2) + F(x_i),   gap_i = x_{i+1} - x_i

is integrated with an adaptive eighth-order explicit Runge-Kutta pair
(scipy's DOP853) driven step by step so the particle ordering can be
monitored on every accepted step and requested sample times can be filled
from the local dense interpolant.  This is the ground-truth oracle for the
velocity series, so controllable local error matters more than long-time
structure preservation.

The state is the displacement u = x - x(0) and the velocity v, and the
gaps are g_i = g0_i + (u_{i+1} - u_i) with g0 the gaps of the start (exactly
L/N for the uniform start).  Gaps formed as differences of O(L) positions
carry eps*L of rounding that the O(N**2) interaction terms amplify into
RHS noise, and DOP853 then shortens its steps to resolve noise: with the
force 0.5 sin(2 pi x), 416 steps at N = 1024, t_end = 1e-3, against 14 on
the displacements, whose growth of about 2.8x per doubling of N is the
explicit stability limit N**(3/2).  Reported states carry x = x(0) + u.
``ODESolution.local_error_bound`` accumulates ``rel_tol * max|(u, v)| +
abs_tol`` over the accepted steps, since the tolerances act on (u, v).

With a noise-free RHS the controller would cross a short horizon in a few
giant steps, and the dense interpolant is far less accurate mid-step than
at step ends; so no accepted step is longer than the smallest spacing of
the requested samples.

A trial Runge-Kutta stage with a gap at or below the floor, or a NaN gap,
is not physical: the kernel writes NaN into every acceleration of it, as
the coefficient engine carries overflow as inf/nan to the one place that
reports it.  DOP853's error norm is then NaN, not below one, and the
controller rejects the step and retries with a shorter one; no exception
is raised per stage.  The one floor check that raises CollisionError is
the start state's, in ``integrate``.

DOP853 also evaluates the right-hand side at each accepted state (its last
stage, ``f_new`` in scipy's ``rk_step``), and a NaN there makes the error
norm NaN through ``np.dot(K.T, E5)`` although ``E5[-1] == 0`` (checked
with OpenBLAS 0.3.31).  So no accepted state has a gap at the floor, and the
ordering check after each accepted step cannot fire here, from the lattice
start or any other.  It stays as the guard, and the CLI's exit code 4, for
a solver or BLAS build whose product skips the zero weight.

The right-hand side and the ordering check work on padded rows of length
N+1, allocated once per integration, whose index 0 holds the left
neighbour of entry 0: each cyclic neighbour difference, sum and product is
one ufunc on two slices, and the collision-floor test is one min
reduction.  Rejected attempts are counted from the RHS calls of each step
(DOP853 spends ``n_stages`` per attempt).  scipy is imported inside
``integrate``, so importing this module (and the CLI) does not pay for
loading ``scipy.integrate``.

``check_settings`` is the one check of the run settings t_end, rel_tol and
abs_tol; ``integrate`` applies it, and the CLI applies it to the config
before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigError, StiffnessError, check_real
from .force import eval_force, eval_potential
from .ring import RingConfig, initial_positions

__all__ = [
    "TrajectoryState",
    "ODESolution",
    "integrate",
    "energy",
]

#: Gap floor as a fraction of the uniform spacing; reaching it means the
#: integration has gone numerically wrong, not that particles collided.
GAP_FLOOR_FACTOR = 1e-9

#: Steps shorter than this fraction of the horizon abort the integration.
MIN_STEP_FRACTION = 1e-15


@dataclass(frozen=True, eq=False)
class TrajectoryState:
    """Positions (unwrapped) and velocities of all particles at one time."""

    t: float
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class ODESolution:
    """Sampled trajectory plus error and step-size statistics.

    ``n_steps`` counts accepted steps and ``n_rejected_steps`` the attempts
    the controller threw away; ``n_rhs_evals`` counts every RHS call.
    """

    states: list[TrajectoryState]
    local_error_bound: float
    n_steps: int
    n_rejected_steps: int
    n_rhs_evals: int
    min_step: float
    max_step: float


def _gaps(x: np.ndarray, L: float) -> np.ndarray:
    """Cyclic gaps to the right neighbor; they sum to L by construction."""
    return np.diff(x, append=x[0] + L)


def _kernel_rows(g0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded gaps ``g0``, their left differences and the work rows of ``_acceleration``.

    A padded row has length N+1: index i+1 holds entry i and index 0 the
    left neighbour of entry 0 (entry N-1), so ``row[1:] op row[:-1]`` is
    op(a[i], a[i-1]) for every i in one ufunc call.
    """
    g0 = np.concatenate((g0[-1:], g0))
    return g0, np.subtract(g0[1:], g0[:-1]), np.empty((3, g0.size))


def _padded_gaps(g0: np.ndarray, u: np.ndarray, du: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Write the padded differences u[i+1] - u[i] into ``du`` and the gaps g0 + du into ``g``."""
    np.subtract(u[1:], u[:-1], out=du[1:-1])
    du[:: du.size - 1] = u[0] - u[-1]
    return np.add(g0, du, out=g)


def _acceleration(
    config: RingConfig,
    x0: np.ndarray,
    g0: np.ndarray,
    dg0: np.ndarray,
    u: np.ndarray,
    out: np.ndarray,
    work: np.ndarray,
) -> None:
    """Write the net acceleration at positions ``x0 + u`` into ``out``.

    ``g0`` are the padded cyclic gaps of ``x0``, ``dg0`` their left
    differences g0_i - g0_{i-1} and ``work`` three padded rows, as
    ``_kernel_rows`` gives them.  With g_i = g0_i + (u_{i+1} - u_i) the
    interaction is formed as

        g_{i-1}**-2 - g_i**-2 = (g_i - g_{i-1}) (g_i + g_{i-1}) / (g_i g_{i-1})**2,
        g_i - g_{i-1} = dg0_i + (u_{i+1} - 2 u_i + u_{i-1}),

    so no difference of O(L) positions, and no difference of two O(N**2)
    terms, enters it.  When any gap is at or below the collision floor, or
    NaN, every entry of ``out`` is NaN: the stage is not physical.
    """
    du, g, row = work
    _padded_gaps(g0, u, du, g)
    if not g.min() > GAP_FLOOR_FACTOR * config.delta:  # also when some gap is NaN
        out.fill(np.nan)
        return
    dg = np.subtract(du[1:], du[:-1], out=row[1:])
    dg += dg0
    np.add(g[1:], g[:-1], out=out)
    out *= dg
    g_prod = np.multiply(g[1:], g[:-1], out=du[1:])
    out /= g_prod
    out /= g_prod
    out += eval_force(config.force, np.add(x0, u, out=dg), out=g_prod)


def check_settings(t_end, rel_tol, abs_tol) -> tuple[float, float, float]:
    """The run settings as floats: ``t_end`` > 0 and both tolerances in (0, 1e-2]."""
    t_end = check_real(t_end, "t_end", positive=True)
    rel_tol = check_real(rel_tol, "rel_tol", positive=True)
    abs_tol = check_real(abs_tol, "abs_tol", positive=True)
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if tol > 1e-2:
            raise ConfigError(f"must be <= 1e-2, got {tol}", name)
    return t_end, rel_tol, abs_tol


def integrate(
    config: RingConfig,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    initial: TrajectoryState | None = None,
) -> ODESolution:
    """Integrate from rest (or ``initial``) to ``t_end`` with sampled output.

    ``t_eval`` defaults to 11 uniform samples on [0, t_end]; its samples
    must be finite and lie in [0, t_end].  An accepted step is never longer
    (to within 1e-9 relative) than the smallest spacing of 0 and the
    samples, so a denser ``t_eval`` gives shorter steps.  States come at
    the sorted sample times: those at t = 0 are the start, and each later
    one is read from the dense output of the step that first reaches it.
    ``n_steps``, ``min_step`` and ``max_step`` are read from the one list
    of accepted step sizes.  Raises ConfigError (field ``initial``) if the
    positions or velocities of ``initial`` are not of shape (N,) or not
    finite, StiffnessError if the controller's step underflows, also where
    its step-size norms overflow, and CollisionError if a gap of the
    initial state is at or below the floor or an accepted step breaks the
    particle ordering.
    """
    t_end, rel_tol, abs_tol = check_settings(t_end, rel_tol, abs_tol)
    N = config.N
    if initial is None:
        x0, v0 = initial_positions(config), np.zeros(N)
        # exact: differencing the rounded i*L/N would leave eps*L in every gap
        g0 = np.full(N, config.delta)
    else:
        x0, v0 = np.asarray(initial.x, float), np.asarray(initial.v, float)
        if x0.shape != (N,) or v0.shape != (N,):
            raise ConfigError(f"x and v must have shape ({N},), got {x0.shape} and {v0.shape}",
                              "initial")
        if not (np.isfinite(x0).all() and np.isfinite(v0).all()):
            raise ConfigError("x and v must be finite", "initial")
        g0 = _gaps(x0, config.L)
        worst, floor = int(np.argmin(g0)), GAP_FLOOR_FACTOR * config.delta
        if g0[worst] <= floor:  # only trial stages may cross the floor
            raise CollisionError(f"initial gap {worst} is {g0[worst]:.3e}, "
                                 f"at or below the floor {floor:.3e}")
    g0, dg0, work = _kernel_rows(g0)
    y0 = np.concatenate([np.zeros(N), v0])

    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 11)
    t_eval = np.sort(np.asarray(t_eval, dtype=float))
    # NaN sorts last and fails the comparison, like +-inf
    if t_eval.size and not (t_eval[0] >= 0.0 and t_eval[-1] <= t_end):
        raise ConfigError("samples must be finite and lie within [0, t_end]", "t_eval")
    spacing = np.diff(t_eval, prepend=0.0)
    # a hair over the smallest spacing, so rounding in the sum of steps leaves
    # no sliver step before a sample or the horizon; inf without a spacing
    max_step = float(spacing[spacing > 0.0].min(initial=np.inf)) * (1.0 + 1e-9)

    def rhs(_t, y):
        dy = np.empty(2 * N)
        dy[:N] = y[N:]
        _acceleration(config, x0, g0, dg0, y[:N], dy[N:], work)
        return dy

    def state(t, y):
        return TrajectoryState(t=t, x=x0 + y[:N], v=y[N:].copy())

    from scipy.integrate import DOP853  # deferred: only integration needs scipy

    # A huge right-hand side overflows scipy's step-size norms; they run on
    # as inf and nan, without warnings, and the step underflows.  Each call
    # takes its own errstate, which numpy 2 does not re-enter.
    with np.errstate(over="ignore", invalid="ignore"):
        solver = DOP853(rhs, 0.0, y0, t_end, rtol=rel_tol, atol=abs_tol, max_step=max_step)

    # Samples at t <= 0 are the start; each step adds the samples it newly
    # reaches, so len(states) is the index of the next sample.
    states = [state(t, y0) for t in t_eval[: np.searchsorted(t_eval, 0.0, side="right")].tolist()]
    steps: list[float] = []  # accepted step sizes
    n_rejected = 0
    err_bound = 0.0
    while solver.status == "running":
        nfev = solver.nfev
        with np.errstate(over="ignore", invalid="ignore"):
            msg = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"step-size control failed: {msg}")
        # every attempt costs n_stages RHS calls; all but the last were rejected
        n_rejected += (solver.nfev - nfev) // solver.n_stages - 1
        h = solver.t - solver.t_old
        if h < MIN_STEP_FRACTION * t_end:
            raise StiffnessError(
                f"accepted step {h:.3e} underflowed below "
                f"{MIN_STEP_FRACTION * t_end:.3e}"
            )
        steps.append(float(h))
        err_bound += rel_tol * float(np.max(np.abs(solver.y))) + abs_tol
        # Ordering must survive every accepted step, not just the samples.
        if (_padded_gaps(g0, solver.y[:N], *work[:2]) <= 0.0).any():
            raise CollisionError(f"particle ordering violated at t={solver.t:.6e}")
        reached = t_eval[len(states) : np.searchsorted(t_eval, solver.t, side="right")].tolist()
        if reached:
            dense = solver.dense_output()
            states += [state(t, dense(t)) for t in reached]

    return ODESolution(
        states=states,
        local_error_bound=err_bound,
        n_steps=len(steps),
        n_rejected_steps=n_rejected,
        n_rhs_evals=int(solver.nfev),
        min_step=min(steps, default=0.0),
        max_step=max(steps, default=0.0),
    )


def energy(config: RingConfig, state: TrajectoryState) -> float:
    """Total energy: kinetic + sum 1/gap + external potential.

    Requires a zero-mean force so a periodic potential exists
    (``eval_potential`` raises ConfigError otherwise); conserved along exact
    trajectories, so its drift measures integration error.
    """
    g = _gaps(state.x, config.L)
    kinetic = 0.5 * float(np.dot(state.v, state.v))
    interaction = float(np.sum(1.0 / g))
    external = float(np.sum(eval_potential(config.force, state.x)))
    return kinetic + interaction + external
