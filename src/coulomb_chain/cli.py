"""Batch front end: config parsing, orchestration and CSV/JSON artifacts.

One self-describing JSON config defines an experiment (ring geometry with an
N grid, force, integration and analysis settings); subcommands wrap the
library operations:

    coeffs    write one coefficient table per N
    simulate  integrate the equations of motion, write trajectory + summary
    compare   series-vs-integration velocity error report
    radius    radius estimates across the N grid
    verify    aggregate hard checks into a single PASS/FAIL exit code
    sweep     growth exponents, radius trend, bounds and majorant report

Outputs are deterministic (fixed ordering, fixed float formatting) and files
are written atomically (temp + rename).  Exit codes: 0 ok, 1 integrator
step underflow, 2 config error, 3 overflow, 4 collision (a starting gap at
the floor or an accepted step that breaks the ordering), 5 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import ode, series
from .errors import CollisionError, ConfigError, StiffnessError, check_int, check_real
from .force import ForceSpec, c_f_bound
from .ring import RingConfig

__all__ = [
    "ExperimentConfig",
    "load_config",
    "cmd_coeffs",
    "cmd_simulate",
    "cmd_compare",
    "cmd_radius",
    "cmd_verify",
    "cmd_sweep",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_STIFFNESS = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_COLLISION = 4
EXIT_VERIFY = 5

_EXIT_CODES = {ConfigError: EXIT_CONFIG, OverflowError: EXIT_OVERFLOW,
               CollisionError: EXIT_COLLISION, StiffnessError: EXIT_STIFFNESS}

_FORMATS = ("csv", "json", "both")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: one ring per grid N, built at load."""

    rings: tuple[RingConfig, ...]
    scale: float | None  # as configured; None = automatic rescale per N
    t_end: float
    rel_tol: float
    abs_tol: float
    sample_count: int
    tail_fraction: float
    out_dir: Path
    formats: tuple[str, ...]

    @property
    def force(self) -> ForceSpec:
        return self.rings[0].force

    @property
    def j_max(self) -> int:
        return self.rings[0].j_max


_RING_PATHS = {"L": "ring.L", "j_max": "ring.J_max", "scale": "ring.scale", "force.L": "force.L"}


def _need(obj: dict, field: str, path: str):
    if field not in obj:
        raise ConfigError(f"{path}.{field}: missing required field")
    return obj[field]


def parse_config(obj: dict) -> ExperimentConfig:
    """Build the force and every ring; ``ForceSpec`` and ``RingConfig`` check their values."""
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be a JSON object")

    ring = _need(obj, "ring", "config")
    if not isinstance(ring, dict):
        raise ConfigError("ring: expected an object")
    n_raw = _need(ring, "N", "ring")
    grid = isinstance(n_raw, list)
    if grid and not n_raw:
        raise ConfigError("ring.N: grid must not be empty")
    L = _need(ring, "L", "ring")
    j_max = _need(ring, "J_max", "ring")
    scale = ring.get("scale", "auto")
    if scale is None:  # RingConfig reads None as the automatic rescale, spelled "auto" here
        raise ConfigError('ring.scale: expected a number or "auto", got None')
    if scale == "auto":
        scale = None

    force_obj = _need(obj, "force", "config")
    inherit_L = isinstance(force_obj, dict) and "L" not in force_obj
    try:
        force = ForceSpec.from_json({**force_obj, "L": L} if inherit_L else force_obj)
    except ConfigError as exc:
        # force.L defaults to ring.L, so a bad inherited period is ring.L's fault
        raise exc.within("ring" if inherit_L and exc.field == "L" else "force") from None

    rings = []
    for i, N in enumerate(n_raw if grid else [n_raw]):
        try:
            rings.append(RingConfig(N=N, L=L, force=force, j_max=j_max, scale=scale))
        except ConfigError as exc:
            paths = {**_RING_PATHS, "N": f"ring.N[{i}]" if grid else "ring.N"}
            raise ConfigError(exc.reason, paths[exc.field]) from None
    if any(b.N <= a.N for a, b in zip(rings, rings[1:])):
        raise ConfigError(f"ring.N: grid must be strictly increasing, got {n_raw}")

    ode_obj = obj.get("ode", {})
    if not isinstance(ode_obj, dict):
        raise ConfigError("ode: expected an object")
    t_end = check_real(ode_obj.get("t_end", 0.05), "ode.t_end", positive=True)
    rel_tol = check_real(ode_obj.get("rel_tol", 1e-10), "ode.rel_tol", positive=True)
    abs_tol = check_real(ode_obj.get("abs_tol", 1e-12), "ode.abs_tol", positive=True)
    for name, tol in (("ode.rel_tol", rel_tol), ("ode.abs_tol", abs_tol)):
        if tol > 1e-2:
            raise ConfigError(f"{name}: must be <= 1e-2, got {tol}")
    sample_count = check_int(ode_obj.get("sample_count", 10), "ode.sample_count", minimum=1)

    ana_obj = obj.get("analysis", {})
    if not isinstance(ana_obj, dict):
        raise ConfigError("analysis: expected an object")
    tail_fraction = check_real(ana_obj.get("tail_fraction", 0.5), "analysis.tail_fraction")
    if not (0.0 < tail_fraction <= 1.0):
        raise ConfigError(f"analysis.tail_fraction: must lie in (0, 1], got {tail_fraction}")
    if "n_grid" in ana_obj:
        raise ConfigError("analysis.n_grid: no longer supported; give the N grid as ring.N")

    out_obj = obj.get("output", {})
    if not isinstance(out_obj, dict):
        raise ConfigError("output: expected an object")
    out_dir = out_obj.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.directory: expected a string, got {out_dir!r}")
    formats_raw = out_obj.get("formats", ["csv", "json"])
    if isinstance(formats_raw, str):
        formats_raw = [formats_raw]
    if not isinstance(formats_raw, list) or not formats_raw:
        raise ConfigError("output.formats: expected a non-empty list")
    for f in formats_raw:
        if f not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {f!r}")
    formats = tuple(dict.fromkeys(formats_raw))

    return ExperimentConfig(
        rings=tuple(rings),
        scale=scale,
        t_end=t_end,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        sample_count=sample_count,
        tail_fraction=tail_fraction,
        out_dir=Path(out_dir),
        formats=formats,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# deterministic output helpers

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(payload) -> str:
    # repr-based floats round-trip losslessly and are deterministic
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, payload) -> None:
    _atomic_write(path, _json_text(payload))


# ---------------------------------------------------------------------------
# commands

def _tables(cfg: ExperimentConfig) -> list[series.CoefficientTable]:
    return [series.compute_coefficients(rc) for rc in cfg.rings]


def cmd_coeffs(cfg: ExperimentConfig) -> list[Path]:
    """Write one coefficient table per grid N; returns the written paths."""
    written = []
    for table in _tables(cfg):
        base = cfg.out_dir / f"coeffs_N{table.N}"
        if "csv" in cfg.formats:
            path = base.with_suffix(".csv")
            _atomic_write(path, series.table_csv(table))
            written.append(path)
        if "json" in cfg.formats:
            path = base.with_suffix(".json")
            _write_json(path, series.table_json(table, cfg.force))
            written.append(path)
    return written


def cmd_simulate(cfg: ExperimentConfig) -> Path:
    """Integrate each grid member; write trajectory CSVs and a summary JSON."""
    summary = []
    for rc in cfg.rings:
        t_eval = np.linspace(0.0, cfg.t_end, cfg.sample_count + 1)
        sol = ode.integrate(rc, cfg.t_end, cfg.rel_tol, cfg.abs_tol, t_eval=t_eval)
        if "csv" in cfg.formats:
            lines = ["t,i,x,v"]
            for st in sol.states:
                t = f"{st.t:.17g}"
                lines.extend(
                    f"{t},{i},{x:.17g},{v:.17g}"
                    for i, (x, v) in enumerate(zip(st.x.tolist(), st.v.tolist()))
                )
            _atomic_write(cfg.out_dir / f"trajectory_N{rc.N}.csv", "\n".join(lines) + "\n")
        drift = None
        if cfg.force.a0 == 0.0:
            e0 = ode.energy(rc, sol.states[0])
            drift = max(abs(ode.energy(rc, st) - e0) for st in sol.states) / abs(e0)
        summary.append(
            {
                "N": rc.N,
                "t_end": cfg.t_end,
                "n_steps": sol.n_steps,
                "n_rhs_evals": sol.n_rhs_evals,
                "min_step": sol.min_step,
                "max_step": sol.max_step,
                "local_error_bound": sol.local_error_bound,
                "max_energy_drift": drift,
            }
        )
    path = cfg.out_dir / "simulate.json"
    _write_json(path, {"runs": summary})
    return path


def _compare_one(cfg: ExperimentConfig, rc: RingConfig) -> dict:
    table = series.compute_coefficients(rc)
    r_hat = math.inf
    if rc.j_max >= 8:
        est = ana.estimate_radius(table, tail_fraction=cfg.tail_fraction)
        r_hat = est.r_hat
    horizon = cfg.t_end if not math.isfinite(r_hat) else min(cfg.t_end, 0.5 * r_hat)
    times = np.linspace(horizon / cfg.sample_count, horizon, cfg.sample_count)
    sol = ode.integrate(rc, horizon, cfg.rel_tol, cfg.abs_tol, t_eval=times)
    max_rel = 0.0
    for st in sol.states:
        v_series = series.evaluate_velocity(table, st.t)
        denom = max(float(np.max(np.abs(st.v))), series.TINY)
        max_rel = max(max_rel, float(np.max(np.abs(v_series - st.v))) / denom)
    tau = horizon / table.scale
    tail = float(
        np.max(
            np.abs(table.data[:, table.j_max - 1]) * abs(tau) ** (table.j_max - 1)
            + np.abs(table.data[:, table.j_max]) * abs(tau) ** table.j_max
        )
    )
    return {
        "N": rc.N,
        "horizon": horizon,
        "R_hat": None if not math.isfinite(r_hat) else r_hat,
        "max_rel_velocity_error": max_rel,
        "truncation_tail_estimate": tail,
    }


def cmd_compare(cfg: ExperimentConfig) -> Path:
    """Series-vs-integration report: max relative velocity error per N."""
    per_n = [_compare_one(cfg, rc) for rc in cfg.rings]
    payload = {
        "per_N": per_n,
        "max_rel_velocity_error": max(r["max_rel_velocity_error"] for r in per_n),
    }
    path = cfg.out_dir / "compare.json"
    _write_json(path, payload)
    return path


def _radius_csv(estimates) -> str:
    lines = ["N,J_max,method,R_hat,window_lo,window_hi,fit_residual,degenerate"]
    for e in estimates:
        lines.append(
            f"{e.N},{e.j_max},{e.method},{e.r_hat:.17g},{e.window[0]},{e.window[1]},"
            f"{e.fit_residual:.17g},{int(e.degenerate)}"
        )
    return "\n".join(lines) + "\n"


def cmd_radius(cfg: ExperimentConfig) -> Path:
    """Radius estimates for every grid N plus the cross-N trend."""
    tables = _tables(cfg)
    estimates = [ana.estimate_radius(t, tail_fraction=cfg.tail_fraction) for t in tables]
    trend = ana.radius_trend(estimates)
    payload = {
        "radius": [e.to_json() for e in estimates],
        "trend": trend.to_json(),
    }
    path = cfg.out_dir / "radius.json"
    _write_json(path, payload)
    if "csv" in cfg.formats:
        _atomic_write(cfg.out_dir / "radius.csv", _radius_csv(estimates))
    return path


def cmd_sweep(cfg: ExperimentConfig) -> Path:
    """Exponent fits, radius trend, bound checks and majorant report."""
    tables = _tables(cfg)
    exponents = []
    if len(tables) >= 4:
        for j in (1, 3, 5, 7, 9):
            if j > cfg.j_max:
                continue
            try:
                exponents.append(ana.exponent_fit(tables, j).to_json())
            except ConfigError:
                continue  # identically-zero column (e.g. constant force)
    estimates = []
    if cfg.j_max >= 8:
        estimates = [ana.estimate_radius(t, tail_fraction=cfg.tail_fraction) for t in tables]
    bounds = ana.bound_check(tables, c_f_bound(cfg.force))
    maj = ana.majorant(2.0, 40)
    payload = {
        "radius": [e.to_json() for e in estimates],
        "trend": ana.radius_trend(estimates).to_json() if estimates else None,
        "exponents": exponents,
        "bounds": bounds.to_json(),
        "majorant": maj.to_json(),
    }
    path = cfg.out_dir / "sweep.json"
    _write_json(path, payload)
    if "csv" in cfg.formats:
        lines = ["j,slope,half_width,cap_half,cap_five_sixths"]
        for e in exponents:
            lines.append(
                f"{e['j']},{e['slope']:.17g},{e['half_width']:.17g},"
                f"{e['cap_half']:.17g},{e['cap_five_sixths']:.17g}"
            )
        _atomic_write(cfg.out_dir / "exponents.csv", "\n".join(lines) + "\n")
        if estimates:
            _atomic_write(cfg.out_dir / "radius.csv", _radius_csv(estimates))
    return path


def cmd_verify(cfg: ExperimentConfig, out=None) -> bool:
    """Aggregate the hard checks; print one PASS/FAIL line per check to ``out`` (or stdout)."""
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if passed else 'FAIL'}  {name}{suffix}", file=out)

    tables = _tables(cfg)
    report = ana.bound_check(tables, c_f_bound(cfg.force))
    check("order-3 magnitude bound", report.hard_c3_ok)
    check("order-4 magnitude bound", report.hard_c4_ok)

    # Enumeration cross-check on small rings with the configured force and scale ("auto": per N).
    max_err = 0.0
    j_cap = min(9, cfg.j_max)
    for N in (3, 4, 8):
        rc = replace(cfg.rings[0], N=N, j_max=j_cap, scale=cfg.scale)
        fast = series.compute_coefficients(rc)
        slow = series.oracle_coefficients(rc, j_cap)
        for j in range(1, j_cap + 1):
            col_scale = max(float(np.max(np.abs(slow.data[:, j]))), series.TINY)
            err = float(np.max(np.abs(fast.data[:, j] - slow.data[:, j]))) / col_scale
            max_err = max(max_err, err)
    check("composition-sum cross-check", max_err <= 1e-10, f"max rel err {max_err:.2e}")

    lemma = ana.majorant_lemma_check(2.0, 30)
    check("majorant self-domination", lemma.all_hold)

    _write_json(
        cfg.out_dir / "verify.json",
        {
            "bounds": report.to_json(),
            "oracle_max_rel_err": max_err,
            "majorant_lemma": lemma.to_json(),
            "passed": ok,
        },
    )
    return ok


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--out", default=None, help="override output directory")
    common.add_argument("--format", default=None, choices=_FORMATS, help="override output formats")

    parser = argparse.ArgumentParser(
        prog="coulomb-chain",
        description="Velocity Taylor expansion and diagnostics for the repulsive ring chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=fn.__doc__)
    return parser


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "radius": cmd_radius,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.out is not None:
        updates["out_dir"] = Path(args.out)
    if args.format is not None:
        updates["formats"] = ("csv", "json") if args.format == "both" else (args.format,)
    return replace(cfg, **updates)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "verify":
            return EXIT_OK if cmd_verify(cfg) else EXIT_VERIFY
        _COMMANDS[args.command](cfg)
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
