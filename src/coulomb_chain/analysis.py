"""Quantitative diagnostics of coefficient magnitude profiles.

Three kinds of checks:

  * the convergence-radius estimate from the coefficient tail: a root test,
    i.e. a least-squares fit of log max_i |c_{ij}| against j over the top
    orders of the table;
  * log-log growth exponents of max_i |c_{ij}| against N for fixed order j,
    compared with the caps (j-1)/2 and (5/6)j - 3/2;
  * the hard magnitude bound at order 3, plus the normalized growth ratio
    chi_min(N, j) = (max_i |c_{ij}| / N**((5/6)j - 3/2))**(1/j) at each odd
    order j >= 3 (even orders vanish from rest), whose boundedness in N is
    the empirical content of the growth theorem (the N**(j/2)
    normalization is reported alongside).

The radius estimate, the radius trend over N and the growth exponents
are one least-squares line fit each, all through ``_line_fit``, which
returns the slope, the intercept and the residuals.  They read coefficient
magnitudes and bounds as logarithms only, so deep tails and strong forces
never overflow.  Each takes
``series.CoefficientProfile`` objects, max_i |c_{ij}| per order, and a
``CoefficientTable`` is one.  ``check_tail_fraction`` is the one
check of the radius fit's run setting; the CLI applies it to the config
before any work.

The one-particle majorant g_j, the Taylor coefficients of
(1 - a t)**(-1/2), and the self-domination inequality it satisfies are
steps of the paper's radius proof.  They depend on no ring, so no command
reports them; the tests check them.  ``majorant_lemma_check`` stays public
because the benchmark's traced baseline times it, as
``series.compute_coefficients`` stays public for the benchmark's deep-J
reference check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, check_real

# Unused here, but the benchmark's tracer rebinds analysis.ordered_compositions.
from .series import TINY, CoefficientProfile, ordered_compositions  # noqa: F401

__all__ = [
    "RadiusEstimate",
    "ExponentFit",
    "BoundReport",
    "LemmaReport",
    "RadiusTrend",
    "estimate_radius",
    "radius_trend",
    "exponent_fit",
    "bound_check",
    "majorant",
    "majorant_lemma_check",
]

# Tail orders whose unscaled maximum, log_max_abs(j), lies below TINY count as
# exact zeros.  The floor is on the unscaled log, so a column stored below TINY
# is fitted: on the sine force at J = 161, N = 2**20 the stored columns 139..143
# are subnormal and fitted, and only the columns stored as 0.0, 145..161, drop.
_LOG_FLOOR = math.log(TINY)
#: Radius estimates need at least this many orders (the fit uses the top half).
MIN_RADIUS_ORDER = 8
TREND_NOISE = 0.05  # relative rise of R_hat to the next grid N that still counts as monotone
BOUND_NOISE = 0.10  # relative rise of chi_min(N, j) to the next grid N that counts as bounded


def _json_value(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


class _Report:
    """The one JSON rule of the report dataclasses."""

    def to_json(self) -> dict:
        """Each field under its own name, or under the key in its ``metadata["json"]``.

        Non-finite floats become None (JSON null), tuples become lists and
        dict keys become strings, at any depth.  String keys keep the
        artifacts' text order, "11" before "3", under ``sort_keys``.
        """
        return {f.metadata.get("json", f.name): _json_value(getattr(self, f.name))
                for f in fields(self)}


@dataclass(frozen=True)
class RadiusEstimate(_Report):
    """Convergence-radius estimate from one coefficient table."""

    N: int
    j_max: int = field(metadata={"json": "J_max"})
    r_hat: float = field(metadata={"json": "R_hat"})
    window: tuple[int, int]
    fit_residual: float
    degenerate: bool
    method: str = field(default="root-test", init=False)


@dataclass(frozen=True)
class ExponentFit(_Report):
    """Log-log slope of max_i |c_{ij}| against N at fixed order j."""

    j: int
    Ns: tuple[int, ...] = field(metadata={"json": "N_grid"})
    slope: float
    half_width: float
    cap_half: float  # (j-1)/2
    cap_five_sixths: float  # (5/6)j - 3/2


@dataclass(frozen=True)
class RadiusTrend(_Report):
    """Decay of the radius estimate across an N grid."""

    Ns: tuple[int, ...] = field(metadata={"json": "N_grid"})
    r_hats: tuple[float, ...] = field(metadata={"json": "R_hat"})
    alpha: float  # fitted decay exponent in R_hat ~ N**(-alpha)
    monotone_ok: bool


def _tail_window(j_max: int, tail_fraction: float) -> tuple[int, int]:
    """The top ``tail_fraction`` of the orders, widened to hold the top three odd orders."""
    j_lo = min(j_max - int(math.floor(tail_fraction * j_max)), j_max - 5 + j_max % 2)
    return max(2, j_lo), j_max


def _line_fit(x, y) -> tuple[float, float, np.ndarray]:
    """The least-squares line y ~ slope x + intercept: its slope, intercept and residuals."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), y - (slope * x + intercept)


def check_tail_fraction(tail_fraction) -> float:
    """``tail_fraction`` as a float; it must lie in (0, 1]."""
    tail_fraction = check_real(tail_fraction, "tail_fraction")
    if not (0.0 < tail_fraction <= 1.0):
        raise ConfigError(f"must lie in (0, 1], got {tail_fraction}", "tail_fraction")
    return tail_fraction


def estimate_radius(table: CoefficientProfile, tail_fraction: float = 0.5) -> RadiusEstimate:
    """Estimate the convergence radius of the velocity series from its tail.

    Root test: a least-squares fit log a_j ~ -j log R + const, with
    a_j = max_i |c_{ij}|, over the top ``tail_fraction`` of available orders
    (low orders are transient: order 2 vanishes identically), widened to
    hold at least the top three odd orders: from rest the even orders
    vanish, and the top half of j_max = 8 holds only orders 5 and 7.
    Orders whose coefficients all vanish are skipped, so series with an
    even/odd structure or terminating series are handled; with fewer than
    3 usable tail orders the estimate is flagged degenerate and the radius
    reported infinite (a terminating series converges everywhere).
    """
    if table.j_max < MIN_RADIUS_ORDER:
        raise ConfigError(
            f"radius estimation needs j_max >= {MIN_RADIUS_ORDER}, got {table.j_max}"
        )
    window = _tail_window(table.j_max, check_tail_fraction(tail_fraction))
    # a vanishing column's log is -inf; a profile's max_abs is finite, so no other log fails
    js = [j for j in range(window[0], window[1] + 1) if table.log_max_abs(j) > _LOG_FLOOR]
    degenerate = len(js) < 3
    if degenerate:  # a terminating series converges everywhere
        r_hat, rms = math.inf, math.nan
    else:
        slope, _, resid = _line_fit(js, [table.log_max_abs(j) for j in js])
        r_hat, rms = math.exp(-slope), float(np.sqrt(np.mean(resid**2)))
    return RadiusEstimate(N=table.N, j_max=table.j_max, r_hat=r_hat, window=window,
                          fit_residual=rms, degenerate=degenerate)


def _nonincreasing(values, noise: float) -> bool:
    """Each value is at most (1 + noise) times the one before it."""
    return all(b <= a * (1.0 + noise) for a, b in zip(values, values[1:]))


def radius_trend(estimates: list[RadiusEstimate]) -> RadiusTrend:
    """Monotonicity (within ``TREND_NOISE``) and decay exponent of R_hat over N."""
    est = sorted(estimates, key=lambda e: e.N)
    Ns = tuple(e.N for e in est)
    rs = tuple(e.r_hat for e in est)
    finite = [(n, r) for n, r in zip(Ns, rs) if math.isfinite(r) and r > 0]
    monotone_ok = _nonincreasing([r for _, r in finite], TREND_NOISE)
    alpha = -_line_fit(*np.log(finite).T)[0] if len(finite) >= 2 else math.nan
    return RadiusTrend(Ns=Ns, r_hats=rs, alpha=alpha, monotone_ok=monotone_ok)


def exponent_fit(tables: list[CoefficientProfile], j: int) -> ExponentFit:
    """Least-squares slope of log max_i |c_{ij}| against log N.

    Needs at least 4 tables over increasing N with a common circumference
    and a common truncation covering order j.  The half width is a 95%
    confidence interval on the slope from the fit residuals.
    """
    if len(tables) < 4:
        raise ConfigError(f"exponent fit needs >= 4 tables, got {len(tables)}")
    tabs = sorted(tables, key=lambda t: t.N)
    Ns = [t.N for t in tabs]
    if any(n2 <= n1 for n1, n2 in zip(Ns, Ns[1:])):
        raise ConfigError(f"N grid must be strictly increasing, got {Ns}")
    if len({t.L for t in tabs}) != 1:
        raise ConfigError("all tables must share the same circumference L")
    if any(j > t.j_max for t in tabs):
        raise ConfigError(f"order {j} exceeds some table's truncation")
    logs = [t.log_max_abs(j) for t in tabs]
    if not all(math.isfinite(v) for v in logs):
        raise ConfigError(f"order-{j} column vanishes in some table; no exponent to fit")
    x = np.log(np.asarray(Ns, dtype=float))
    slope, _, resid = _line_fit(x, logs)
    dof = len(Ns) - 2
    se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    from scipy.special import stdtrit  # deferred: only this fit needs scipy.special

    half_width = float(stdtrit(dof, 0.975)) * se
    return ExponentFit(
        j=j,
        Ns=tuple(Ns),
        slope=slope,
        half_width=half_width,
        cap_half=(j - 1) / 2.0,
        cap_five_sixths=(5.0 / 6.0) * j - 1.5,
    )


@dataclass(frozen=True)
class BoundReport(_Report):
    """Hard order-3 bound and normalized growth ratios at odd orders over an N grid.

    ``hard_c3_ok`` is None when no table reaches order 3: there is nothing to check.
    """

    c_f: float = field(metadata={"json": "C_F"})
    Ns: tuple[int, ...] = field(metadata={"json": "N_grid"})
    js: tuple[int, ...] = field(metadata={"json": "orders"})
    chi_min: dict[int, tuple[float, ...]]  # per order, one value per N
    chi_sqrt: dict[int, tuple[float, ...]]  # same with the N**(j/2) normalization
    chi_min_max: float
    monotone_ok: dict[int, bool]
    hard_c3_ok: bool | None
    passed: bool


def log_c3_bound(c_f: float, N: int, L: float) -> float:
    """Natural log of the hard magnitude bound (1/3) C**3 (N/L + 1/2) at order 3."""
    return 3.0 * math.log(c_f) + math.log((N / L + 0.5) / 3.0)


def _growth_ratios(tables: list[CoefficientProfile], j: int, power: float) -> tuple[float, ...]:
    """(max_i |c_{ij}| / N**power)**(1/j) per table; exp(-inf) makes a vanishing column 0.0."""
    return tuple(math.exp((t.log_max_abs(j) - power * math.log(t.N)) / j) for t in tables)


def bound_check(tables: list[CoefficientProfile], c_f: float) -> BoundReport:
    """Check the hard order-3 bound and the growth-ratio boundedness at odd orders.

    The hard bound compares logs of magnitudes, so neither the raw
    coefficients nor the bound (a power of the growth constant C >= 1) are
    ever formed.  chi_min(N, j) must not increase with N (within
    ``BOUND_NOISE``) for the growth bound |c_{ij}| < chi**j N**((5/6)j - 3/2)
    to hold with an N-independent chi; the max over the grid is the
    empirical chi.  Raises ConfigError without a table.
    """
    if not tables:
        raise ConfigError("bound check needs at least one table")
    tabs = sorted(tables, key=lambda t: t.N)
    Ns = tuple(t.N for t in tabs)
    j_top = min(t.j_max for t in tabs)
    js = tuple(range(3, j_top + 1, 2))

    reach = [t for t in tabs if t.j_max >= 3]
    hard_c3_ok = None if not reach else all(
        t.log_max_abs(3) <= log_c3_bound(c_f, t.N, t.L) for t in reach
    )

    chi_min = {j: _growth_ratios(tabs, j, (5.0 / 6.0) * j - 1.5) for j in js}
    chi_sqrt = {j: _growth_ratios(tabs, j, 0.5 * j) for j in js}
    monotone_ok = {j: _nonincreasing(v, BOUND_NOISE) for j, v in chi_min.items()}
    passed = hard_c3_ok is not False and all(monotone_ok.values())
    return BoundReport(
        c_f=c_f,
        Ns=Ns,
        js=js,
        chi_min=chi_min,
        chi_sqrt=chi_sqrt,
        chi_min_max=max((max(v) for v in chi_min.values()), default=0.0),
        monotone_ok=monotone_ok,
        hard_c3_ok=hard_c3_ok,
        passed=passed,
    )


def majorant(a: float, J: int) -> np.ndarray:
    """Taylor coefficients g_j of (1 - a t)**(-1/2) up to order J.

    g_j = (a/2)**j (2j)! / (2**j j! j!), computed by the stable recurrence
    g_{j+1} = g_j * a * (2j+1) / (2j+2) with g_0 = 1.
    """
    if not (a > 0.0):
        raise ConfigError(f"majorant parameter a must be positive, got {a}")
    if J < 1:
        raise ConfigError(f"majorant order J must be >= 1, got {J}")
    g = np.empty(J + 1)
    g[0] = 1.0
    with np.errstate(over="ignore"):
        for j in range(J):
            g[j + 1] = g[j] * a * (2 * j + 1) / (2 * j + 2)
    if not np.isfinite(g).all():
        raise OverflowError(f"majorant coefficients overflow for a={a}, J={J}")
    return g


@dataclass(frozen=True)
class LemmaReport:
    """Self-domination test of the majorant sequence."""

    a: float
    js: tuple[int, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]  # g_j - rhs_j; all must be >= 0
    all_hold: bool


def majorant_lemma_check(a: float, J: int) -> LemmaReport:
    """Verify g_j dominates its own composition sum for j = 5..J.

    For each j the right-hand side

        (1/j) sum_{k=1}^{(j-1)//2} (a/2)**(k+1) (k+1)(k+2)/2
              sum_{(j_1..j_k)} prod_p g_{j_p} / (j_p + 1)

    runs the inner sum over ordered tuples with (j_1+1)+...+(j_k+1) = j-1.
    That sum is [t**(j-1-k)] H(t)**k with H(t) = sum_{p>=1} g_p/(p+1) t**p,
    so the powers of H are built by truncated convolution, O(J**3) in all,
    and g_j >= rhs_j is checked.
    """
    if J < 5:
        raise ConfigError(f"the inequality starts at order 5; need J >= 5, got {J}")
    g = majorant(a, J)
    half = 0.5 * a
    js = np.arange(5, J + 1)
    h = g[: J - 1] / np.arange(1, J)  # H up to t**(J-2), the deepest coefficient read
    h[0] = 0.0
    power = h  # H**k
    rhs = np.zeros(len(js))
    for k in range(1, (J - 1) // 2 + 1):
        if k > 1:
            power = np.convolve(power, h)[: J - 1]
        pref = half ** (k + 1) * (k + 1) * (k + 2) / 2.0
        reach = js >= 2 * k + 1  # orders whose sum includes this k
        rhs[reach] += pref * power[js[reach] - 1 - k]
    rhs /= js
    margins = g[5:] - rhs
    return LemmaReport(
        a=a,
        js=tuple(js.tolist()),
        rhs=tuple(rhs.tolist()),
        margins=tuple(margins.tolist()),
        all_hold=bool(np.all(margins >= 0.0)),
    )
