"""Correctness gate: checks the artifacts of one CLI invocation.

Each check returns a list of failure messages (empty when the output is
right) and a dict of diagnostics.  The force and the order-3 closed form are
evaluated here from the config, independently of the package.

The gate does not judge orders that are rounding noise at large N; those are
covered by the mpmath ``clean_order_max`` probe.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps

#: Order-3 column tolerance, in units of the rounding floor
#: eps * (max|F| / delta**3 + max|F F'|) * scale**3 of the second difference.
C3_NOISE_UNITS = 64.0
#: Exponent fits: order 1 is flat in N and order 3 grows like N.
SLOPE_TOL = 1e-3
#: Series against DOP853, max relative velocity error (about 5e-6 is typical).
COMPARE_TOL = 2e-5
#: Relative energy drift allowed in ``simulate``.
ENERGY_DRIFT_TOL = 1e-12


def _force(cfg: dict, x: np.ndarray, order: int = 0) -> np.ndarray:
    """F^(order)(x) for the trigonometric force in ``cfg``."""
    f = cfg["force"]
    L = f["L"]
    out = np.full_like(x, f.get("a0", 0.0) if order == 0 else 0.0)
    for h in f["harmonics"]:
        w = 2.0 * math.pi * h["k"] / L
        th = w * x + order * 0.5 * math.pi
        out += w**order * (h["a"] * np.cos(th) + h["b"] * np.sin(th))
    return out


def _scale(cfg: dict, N: int) -> float:
    s = cfg["ring"]["scale"]
    return float(N) ** (-5.0 / 6.0) if s == "auto" else float(s)


def _read_csv(path: Path, ncols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != ncols:
        raise ValueError(f"{path.name}: expected {ncols} columns, got {data.shape[1]}")
    return data


def check_coeffs(cfg: dict, out: Path) -> tuple[list[str], dict]:
    errs: list[str] = []
    L, J = cfg["ring"]["L"], cfg["ring"]["J_max"]
    for N in cfg["ring"]["N"]:
        tag = f"coeffs N={N}"
        rows = _read_csv(out / f"coeffs_N{N}.csv", 7)
        doc = json.loads((out / f"coeffs_N{N}.json").read_text())
        if rows.shape[0] != N * J:
            errs.append(f"{tag}: {rows.shape[0]} CSV rows, expected {N * J}")
            continue
        i_idx, j_idx = np.divmod(np.arange(N * J), J)
        if not (np.array_equal(rows[:, 0], i_idx) and np.array_equal(rows[:, 1], j_idx + 1)):
            errs.append(f"{tag}: CSV rows are not i-major over j = 1..{J}")
        s = _scale(cfg, N)
        if not (np.all(rows[:, 3] == s) and np.all(rows[:, 4] == N)
                and np.all(rows[:, 5] == L) and np.all(rows[:, 6] == J)):
            errs.append(f"{tag}: CSV scale/N/L/J_max columns disagree with the config")
        c = rows[:, 2].reshape(N, J)  # c[:, j-1] = c_ij * scale**j
        if (doc["config"] != {"N": N, "L": L, "J_max": J, "force": cfg["force"]}
                or doc["scale"] != s):
            errs.append(f"{tag}: JSON header disagrees with the config")
        if not np.array_equal(np.asarray(doc["coefficients"], dtype=float), rows[:, 2]):
            errs.append(f"{tag}: CSV and JSON coefficients differ")

        x = np.arange(N, dtype=float) * (L / N)
        f0, f1 = _force(cfg, x), _force(cfg, x, 1)
        err1 = float(np.max(np.abs(c[:, 0] - s * f0)))
        if err1 > 1e-12 * s * max(float(np.max(np.abs(f0))), 1e-300):
            errs.append(f"{tag}: column 1 differs from scale*F(x_i) by {err1:.3e}")
        if J >= 2 and np.any(c[:, 1::2] != 0.0):
            errs.append(f"{tag}: an even-order column is not exactly zero")
        if J >= 3:
            delta = L / N
            lap = np.roll(f0, -1) - 2.0 * f0 + np.roll(f0, 1)
            c3 = (lap / (3.0 * delta**3) + f0 * f1 / 6.0) * s**3
            floor = EPS * (float(np.max(np.abs(f0))) / delta**3
                           + float(np.max(np.abs(f0 * f1)))) * s**3
            err3 = float(np.max(np.abs(c[:, 2] - c3)))
            if err3 > C3_NOISE_UNITS * floor:
                errs.append(f"{tag}: column 3 off the closed form by {err3 / floor:.1f} noise units")
    return errs, {}


def check_radius(cfg: dict, out: Path) -> tuple[list[str], dict]:
    doc = json.loads((out / "radius.json").read_text())
    errs = _radius_entries(cfg, doc["radius"])
    rows = (out / "radius.csv").read_text().splitlines()[1:]
    if [float(r.split(",")[3]) for r in rows] != [e["R_hat"] for e in doc["radius"]]:
        errs.append("radius: CSV and JSON R_hat differ")
    return errs, {}


def _radius_entries(cfg: dict, entries: list[dict]) -> list[str]:
    errs = []
    if [e["N"] for e in entries] != cfg["ring"]["N"]:
        errs.append("radius: estimates do not cover the N grid in order")
    for e in entries:
        r = e["R_hat"]
        if e["degenerate"] or r is None or not (math.isfinite(r) and r > 0.0):
            errs.append(f"radius N={e['N']}: no finite positive estimate ({r})")
    return errs


def check_sweep(cfg: dict, out: Path) -> tuple[list[str], dict]:
    doc = json.loads((out / "sweep.json").read_text())
    errs = _radius_entries(cfg, doc["radius"])
    slopes = {e["j"]: e["slope"] for e in doc["exponents"]}
    for j, want in ((1, 0.0), (3, 1.0)):
        if j not in slopes or not abs(slopes[j] - want) <= SLOPE_TOL:
            errs.append(f"sweep: order-{j} slope {slopes.get(j)} is not {want} +- {SLOPE_TOL}")
    # bounds.passed is recorded, not gated: orders >= 5 are rounding noise at large N.
    return errs, {"bounds_passed": doc["bounds"]["passed"],
                  "slopes": {str(j): v for j, v in sorted(slopes.items())}}


def check_verify(cfg: dict, out: Path) -> tuple[list[str], dict]:
    doc = json.loads((out / "verify.json").read_text())
    errs = [] if doc["passed"] is True else ["verify: verify.json reports passed != true"]
    return errs, {}


def check_compare(cfg: dict, out: Path) -> tuple[list[str], dict]:
    doc = json.loads((out / "compare.json").read_text())
    errs = []
    if [r["N"] for r in doc["per_N"]] != cfg["ring"]["N"]:
        errs.append("compare: report does not cover the N grid in order")
    err = doc["max_rel_velocity_error"]
    if not (err <= COMPARE_TOL):
        errs.append(f"compare: max relative velocity error {err:.3e} > {COMPARE_TOL:.0e}")
    return errs, {"max_rel_velocity_error": err}


def check_simulate(cfg: dict, out: Path) -> tuple[list[str], dict]:
    doc = json.loads((out / "simulate.json").read_text())
    errs = []
    L, samples = cfg["ring"]["L"], cfg["ode"]["sample_count"] + 1
    runs = doc["runs"]
    if [r["N"] for r in runs] != cfg["ring"]["N"]:
        errs.append("simulate: summary does not cover the N grid in order")
    for r in runs:
        N = r["N"]
        drift = r["max_energy_drift"]
        if drift is None or not (drift <= ENERGY_DRIFT_TOL):
            errs.append(f"simulate N={N}: energy drift {drift} > {ENERGY_DRIFT_TOL:.0e}")
        traj = _read_csv(out / f"trajectory_N{N}.csv", 4)
        if traj.shape[0] != N * samples:
            errs.append(f"simulate N={N}: {traj.shape[0]} trajectory rows, expected {N * samples}")
            continue
        x = traj[:, 2].reshape(samples, N)
        gaps = np.diff(np.concatenate([x, x[:, :1] + L], axis=1), axis=1)
        if not np.all(gaps > 0.0):
            errs.append(f"simulate N={N}: particle ordering violated in the trajectory")
    return errs, {"steps": [r["n_steps"] for r in runs]}


CHECKS = {
    "coeffs": check_coeffs,
    "radius": check_radius,
    "sweep": check_sweep,
    "verify": check_verify,
    "compare": check_compare,
    "simulate": check_simulate,
}


def check(command: str, cfg: dict, out: Path) -> tuple[list[str], dict]:
    """Run the gate for ``command``; unreadable or missing artifacts are failures."""
    try:
        return CHECKS[command](cfg, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable artifacts ({type(exc).__name__}: {exc})"], {}
