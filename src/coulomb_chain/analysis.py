"""Quantitative diagnostics of coefficient tables.

Four kinds of checks:

  * convergence-radius estimates from the coefficient tail (root test as a
    log-linear fit, or a gap-aware ratio test), all in the log domain so
    deep tails never overflow;
  * log-log growth exponents of max_i |c_{ij}| against N for fixed order j,
    compared with the caps (j-1)/2 and (5/6)j - 3/2;
  * hard magnitude bounds at orders 3 and 4, plus the normalized growth
    ratio chi_min(N, j) = (max_i |c_{ij}| / N**((5/6)j - 3/2))**(1/j) whose
    boundedness in N is the empirical content of the growth theorem (the
    N**(j/2) normalization is reported alongside);
  * the one-particle majorant sequence g_j, the Taylor coefficients of
    (1 - a t)**(-1/2), and the self-domination inequality it satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Unused here, but the benchmark's tracer rebinds analysis.ordered_compositions.
from .series import CoefficientTable, ordered_compositions  # noqa: F401

__all__ = [
    "RadiusEstimate",
    "ExponentFit",
    "MajorantSeries",
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

#: Tail entries below this magnitude count as exact zeros in radius fits.
TAIL_FLOOR = 1e-300
_LOG_FLOOR = math.log(TAIL_FLOOR)
TREND_NOISE = 0.05  # relative rise of R_hat to the next grid N that still counts as monotone
BOUND_NOISE = 0.10  # relative rise of chi_min(N, j) to the next grid N that counts as bounded


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence-radius estimate from one coefficient table."""

    N: int
    j_max: int
    method: str
    r_hat: float
    window: tuple[int, int]
    fit_residual: float
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "J_max": self.j_max,
            "method": self.method,
            "R_hat": None if not math.isfinite(self.r_hat) else self.r_hat,
            "window": list(self.window),
            "fit_residual": None if not math.isfinite(self.fit_residual) else self.fit_residual,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slope of max_i |c_{ij}| against N at fixed order j."""

    j: int
    Ns: tuple[int, ...]
    slope: float
    half_width: float
    cap_half: float  # (j-1)/2
    cap_five_sixths: float  # (5/6)j - 3/2

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "N_grid": list(self.Ns),
            "slope": self.slope,
            "half_width": self.half_width,
            "cap_half": self.cap_half,
            "cap_five_sixths": self.cap_five_sixths,
        }


@dataclass(frozen=True)
class MajorantSeries:
    """Coefficients g_j of (1 - a t)**(-1/2) for j = 0..J."""

    a: float
    g: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {"a": self.a, "g": [float(v) for v in self.g]}


@dataclass(frozen=True)
class RadiusTrend:
    """Decay of the radius estimate across an N grid."""

    Ns: tuple[int, ...]
    r_hats: tuple[float, ...]
    alpha: float  # fitted decay exponent in R_hat ~ N**(-alpha)
    monotone_ok: bool

    def to_json(self) -> dict:
        return {
            "N_grid": list(self.Ns),
            "R_hat": [None if not math.isfinite(r) else r for r in self.r_hats],
            "alpha": None if not math.isfinite(self.alpha) else self.alpha,
            "monotone_ok": self.monotone_ok,
        }


def _tail_window(j_max: int, tail_fraction: float) -> tuple[int, int]:
    j_lo = max(2, j_max - int(math.floor(tail_fraction * j_max)))
    return j_lo, j_max


def _usable_tail(table: CoefficientTable, window: tuple[int, int]) -> tuple[list[int], list[float]]:
    js, logs = [], []
    for j in range(window[0], window[1] + 1):
        la = table.log_max_abs(j)
        if math.isfinite(la) and la > _LOG_FLOOR:
            js.append(j)
            logs.append(la)
    return js, logs


def estimate_radius(
    table: CoefficientTable, method: str = "root-test", tail_fraction: float = 0.5
) -> RadiusEstimate:
    """Estimate the convergence radius of the velocity series from its tail.

    The tail window is the top ``tail_fraction`` of available orders (low
    orders are transient: order 2 vanishes identically and distorts
    ratios).  Orders whose coefficients all vanish are skipped, so series
    with an even/odd structure or terminating series are handled; with
    fewer than 3 usable tail orders the estimate is flagged degenerate and
    the radius reported infinite (a terminating series converges
    everywhere).

    root-test: least-squares fit log a_j ~ -j log R + const, a_j = max_i |c_{ij}|.
    ratio-test: R = exp(-median slope) over successive usable orders, which
    reduces to the classic a_{j+1}/a_j when no orders are skipped.
    """
    if method not in ("root-test", "ratio-test"):
        raise ConfigError(f"unknown radius method {method!r}")
    if table.j_max < 8:
        raise ConfigError(f"radius estimation needs j_max >= 8, got {table.j_max}")
    if not (0.0 < tail_fraction <= 1.0):
        raise ConfigError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    window = _tail_window(table.j_max, tail_fraction)
    js, logs = _usable_tail(table, window)
    if len(js) < 3:
        return RadiusEstimate(
            N=table.N,
            j_max=table.j_max,
            method=method,
            r_hat=math.inf,
            window=window,
            fit_residual=math.nan,
            degenerate=True,
        )
    ja = np.asarray(js, dtype=float)
    la = np.asarray(logs, dtype=float)
    if method == "root-test":
        slope, intercept = np.polyfit(ja, la, 1)
        resid = float(np.sqrt(np.mean((slope * ja + intercept - la) ** 2)))
        r_hat = math.exp(-slope)
    else:
        slopes = np.diff(la) / np.diff(ja)
        med = float(np.median(slopes))
        resid = float(np.median(np.abs(slopes - med)))
        r_hat = math.exp(-med)
    return RadiusEstimate(
        N=table.N,
        j_max=table.j_max,
        method=method,
        r_hat=r_hat,
        window=window,
        fit_residual=resid,
        degenerate=False,
    )


def radius_trend(estimates: list[RadiusEstimate]) -> RadiusTrend:
    """Monotonicity (within ``TREND_NOISE``) and decay exponent of R_hat over N."""
    est = sorted(estimates, key=lambda e: e.N)
    Ns = tuple(e.N for e in est)
    rs = tuple(e.r_hat for e in est)
    finite = [(n, r) for n, r in zip(Ns, rs) if math.isfinite(r) and r > 0]
    monotone_ok = all(
        r2 <= r1 * (1.0 + TREND_NOISE) for (_, r1), (_, r2) in zip(finite, finite[1:])
    )
    if len(finite) >= 2:
        ln_n = np.log([n for n, _ in finite])
        ln_r = np.log([r for _, r in finite])
        slope = float(np.polyfit(ln_n, ln_r, 1)[0])
        alpha = -slope
    else:
        alpha = math.nan
    return RadiusTrend(Ns=Ns, r_hats=rs, alpha=alpha, monotone_ok=monotone_ok)


def exponent_fit(tables: list[CoefficientTable], j: int) -> ExponentFit:
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
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(Ns) - 2
    se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    from scipy.special import stdtrit  # deferred: only this fit needs scipy.special

    half_width = float(stdtrit(dof, 0.975)) * se
    return ExponentFit(
        j=j,
        Ns=tuple(Ns),
        slope=float(slope),
        half_width=half_width,
        cap_half=(j - 1) / 2.0,
        cap_five_sixths=(5.0 / 6.0) * j - 1.5,
    )


@dataclass(frozen=True)
class BoundReport:
    """Hard low-order bounds and normalized growth ratios over an N grid."""

    c_f: float
    Ns: tuple[int, ...]
    js: tuple[int, ...]
    chi_min: dict[int, tuple[float, ...]]  # per order, one value per N
    chi_sqrt: dict[int, tuple[float, ...]]  # same with the N**(j/2) normalization
    chi_min_max: float
    monotone_ok: dict[int, bool]
    hard_c3_ok: bool
    hard_c4_ok: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "C_F": self.c_f,
            "N_grid": list(self.Ns),
            "orders": list(self.js),
            "chi_min": {str(j): list(v) for j, v in self.chi_min.items()},
            "chi_sqrt": {str(j): list(v) for j, v in self.chi_sqrt.items()},
            "chi_min_max": self.chi_min_max,
            "monotone_ok": {str(j): v for j, v in self.monotone_ok.items()},
            "hard_c3_ok": self.hard_c3_ok,
            "hard_c4_ok": self.hard_c4_ok,
            "passed": self.passed,
        }


def c3_bound(c_f: float, N: int, L: float) -> float:
    """Hard magnitude bound (1/3) C**3 (N/L + 1/2) at order 3."""
    return (c_f**3) * (N / L + 0.5) / 3.0


def c4_bound(c_f: float) -> float:
    """Hard magnitude bound (1/4) C**5 + (1/16) C**4 at order 4."""
    return 0.25 * c_f**5 + c_f**4 / 16.0


def bound_check(tables: list[CoefficientTable], c_f: float) -> BoundReport:
    """Check the hard order-3/4 bounds and the growth-ratio boundedness.

    chi_min(N, j) must not increase with N (within ``BOUND_NOISE``) for the
    growth bound |c_{ij}| < chi**j N**((5/6)j - 3/2) to hold with an
    N-independent chi; the max over the grid is the empirical chi.
    """
    tabs = sorted(tables, key=lambda t: t.N)
    Ns = tuple(t.N for t in tabs)
    j_top = min(t.j_max for t in tabs)
    js = tuple(range(3, j_top + 1))

    hard_c3_ok = all(
        float(np.max(np.abs(t.unscaled(3)))) <= c3_bound(c_f, t.N, t.L) for t in tabs
    )
    hard_c4_ok = all(
        t.j_max < 4 or float(np.max(np.abs(t.unscaled(4)))) <= c4_bound(c_f)
        for t in tabs
    )

    chi_min: dict[int, tuple[float, ...]] = {}
    chi_sqrt: dict[int, tuple[float, ...]] = {}
    monotone_ok: dict[int, bool] = {}
    chi_all = 0.0
    for j in js:
        vals, vals_sqrt = [], []
        for t in tabs:
            la = t.log_max_abs(j)
            if not math.isfinite(la):
                vals.append(0.0)
                vals_sqrt.append(0.0)
                continue
            ln_n = math.log(t.N)
            vals.append(math.exp((la - ((5.0 / 6.0) * j - 1.5) * ln_n) / j))
            vals_sqrt.append(math.exp((la - 0.5 * j * ln_n) / j))
        chi_min[j] = tuple(vals)
        chi_sqrt[j] = tuple(vals_sqrt)
        chi_all = max(chi_all, max(vals))
        monotone_ok[j] = all(
            b <= a * (1.0 + BOUND_NOISE) for a, b in zip(vals, vals[1:]) if a > 0.0 or b > 0.0
        )

    passed = hard_c3_ok and hard_c4_ok and all(monotone_ok.values())
    return BoundReport(
        c_f=c_f,
        Ns=Ns,
        js=js,
        chi_min=chi_min,
        chi_sqrt=chi_sqrt,
        chi_min_max=chi_all,
        monotone_ok=monotone_ok,
        hard_c3_ok=hard_c3_ok,
        hard_c4_ok=hard_c4_ok,
        passed=passed,
    )


def majorant(a: float, J: int) -> MajorantSeries:
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
    return MajorantSeries(a=a, g=g)


@dataclass(frozen=True)
class LemmaReport:
    """Self-domination test of the majorant sequence."""

    a: float
    js: tuple[int, ...]
    rhs: tuple[float, ...]
    margins: tuple[float, ...]  # g_j - rhs_j; all must be >= 0
    all_hold: bool

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "orders": list(self.js),
            "rhs": list(self.rhs),
            "margins": list(self.margins),
            "all_hold": self.all_hold,
        }


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
    g = majorant(a, J).g
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
