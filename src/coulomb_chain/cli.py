"""Batch front end: config parsing, orchestration and CSV/JSON artifacts.

One self-describing JSON config defines an experiment (ring geometry with an
N grid, force, integration and analysis settings).  One argument parser
reads ``--config``, ``--out`` and the command, in any order; the commands
wrap the library operations:

    coeffs    write one coefficient table per N
    simulate  integrate the equations of motion, write trajectory + summary
    compare   series-vs-integration velocity error report
    radius    radius estimates across the N grid
    verify    aggregate hard checks into a single PASS/FAIL exit code; a
              check the configured rings cannot make prints SKIP
    sweep     growth exponents, radius trend and bound report

Every command but ``coeffs`` returns its JSON report, and ``main`` writes it
as ``<command>.json`` in the output directory whatever ``output.formats``
says.  The formats choose the rest: the coefficient tables
``coeffs_N*.{csv,json}`` in either or both, and the CSV side files
(``trajectory_N*.csv``, ``radius.csv``, ``exponents.csv``) only with csv.
Outputs are deterministic (fixed ordering, fixed float formatting) and files
are written atomically (temp + rename; a table's two files are written
together, block by block, and no temp file outlives a failure).  Exit
codes: 0 ok, 1 integrator step underflow, 2 config error (also an output
directory that cannot be created or written), 3 overflow, 4 collision (an accepted step that breaks
the ordering: the commands start from the uniform lattice, whose gap L/N is
above the floor, so a starting gap at the floor arises only through the
library's ``ode.integrate(initial=...)``; and DOP853 rejects every step
whose stages, the accepted state's included, reach the floor, so 4 stays a
guard for a solver or BLAS build in which that stage's NaN does not reach
the error norm, see ``ode``), 5 verification failure, exactly when the
report's ``passed`` is false (only ``verify.json`` has that key).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import analysis as ana
from . import ode, series
from ._floattext import CHUNK, float_text_pair
from .errors import CollisionError, ConfigError, StiffnessError, check_int, check_keys, check_real
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


_RING_PATHS = {"j_max": "ring.J_max", "scale": "ring.scale", "force.L": "force.L"}


def _need(obj: dict, field: str, path: str):
    if field not in obj:
        raise ConfigError(f"{path}.{field}: missing required field")
    return obj[field]


def _section(obj: dict, name: str, keys: tuple[str, ...], required: bool = False) -> dict:
    """The object ``obj[name]``, holding no key outside ``keys``; ``{}`` if optional and absent."""
    section = _need(obj, name, "config") if required else obj.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    check_keys(section, keys, name)
    return section


@contextlib.contextmanager
def _within(prefix: str):
    """Re-raise a ``ConfigError`` about a nested value under ``prefix``."""
    try:
        yield
    except ConfigError as exc:
        raise exc.within(prefix) from None


def parse_config(obj: dict) -> ExperimentConfig:
    """Build the force and every ring; ``ForceSpec`` and ``RingConfig`` check their values.

    A key that nothing reads, at any level, is an error named by its JSON path.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be a JSON object")
    check_keys(obj, ("ring", "force", "ode", "analysis", "output"))

    ring = _section(obj, "ring", ("N", "L", "J_max", "scale"), required=True)
    n_raw = _need(ring, "N", "ring")
    grid = isinstance(n_raw, list)
    if grid and not n_raw:
        raise ConfigError("ring.N: grid must not be empty")
    L = check_real(_need(ring, "L", "ring"), "ring.L", positive=True)
    j_max = _need(ring, "J_max", "ring")
    scale = ring.get("scale", "auto")
    if scale is None:  # RingConfig reads None as the automatic rescale, spelled "auto" here
        raise ConfigError('ring.scale: expected a number or "auto", got None')
    if scale == "auto":
        scale = None

    force_obj = _need(obj, "force", "config")
    with _within("force"):  # force.L defaults to ring.L
        force = ForceSpec.from_json({"L": L, **force_obj} if isinstance(force_obj, dict) else force_obj)

    rings = []
    for i, N in enumerate(n_raw if grid else [n_raw]):
        try:
            rings.append(RingConfig(N=N, L=L, force=force, j_max=j_max, scale=scale))
        except ConfigError as exc:
            paths = {**_RING_PATHS, "N": f"ring.N[{i}]" if grid else "ring.N"}
            raise ConfigError(exc.reason, paths[exc.field]) from None
    if any(b.N <= a.N for a, b in zip(rings, rings[1:])):
        raise ConfigError(f"ring.N: grid must be strictly increasing, got {n_raw}")

    ode_obj = _section(obj, "ode", ("t_end", "rel_tol", "abs_tol", "sample_count"))
    with _within("ode"):
        t_end, rel_tol, abs_tol = ode.check_settings(
            ode_obj.get("t_end", 0.05),
            ode_obj.get("rel_tol", 1e-10),
            ode_obj.get("abs_tol", 1e-12),
        )
        sample_count = check_int(ode_obj.get("sample_count", 10), "sample_count", minimum=1)

    ana_obj = _section(obj, "analysis", ("tail_fraction",))
    with _within("analysis"):
        tail_fraction = ana.check_tail_fraction(ana_obj.get("tail_fraction", 0.5))

    out_obj = _section(obj, "output", ("directory", "formats"))
    out_dir = out_obj.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.directory: expected a string, got {out_dir!r}")
    formats_raw = out_obj.get("formats", ["csv", "json"])
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# deterministic output helpers

def _atomic_write(paths: Sequence[Path], blocks: Iterable[Sequence[str]]) -> None:
    """Write the files ``paths``, whole or not at all, from blocks of one text per path.

    Each block's texts are encoded and appended to the paths' ``.tmp``
    files, which are renamed over the paths once the last block is written.
    Whatever fails on the way, every temp file not yet renamed is removed; a
    failed write or rename is a ConfigError naming the file at work.
    """
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    path = paths[0]  # the file at work, named if an OSError is raised
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            files = []
            for path, tmp in zip(paths, tmps):
                files.append(stack.enter_context(open(tmp, "wb")))
            for block in blocks:
                for path, file, text in zip(paths, files, block):
                    file.write(text.encode())
                del block, text  # so the next block is formed without this one
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}", "output.directory") from exc
    finally:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink()


def _write_json(path: Path, payload) -> None:
    # repr-based floats round-trip losslessly and are deterministic
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write([path], [(text,)])


# ---------------------------------------------------------------------------
# commands

def cmd_coeffs(cfg: ExperimentConfig) -> None:
    """Write one coefficient table per grid N, in each configured format."""
    for table in series.coefficient_tables(cfg.rings):  # one table at a time, in blocks
        base = cfg.out_dir / f"coeffs_N{table.N}"
        _atomic_write([base.with_suffix(f".{fmt}") for fmt in cfg.formats],
                      series.table_texts(table, cfg.force, cfg.formats))


def _trajectory_csv(states: list[ode.TrajectoryState]) -> Iterator[str]:
    """``t,i,x,v`` rows, time-major, 17 significant digits, in blocks of whole states.

    A block holds ``max(1, CHUNK // (2 N))`` states, so one one-sided
    ``float_text_pair`` call formats its x and v in one kernel chunk, or
    one state where a state holds more; a row is six pieces, laid into one
    list by slice assignment and joined once per block.
    """
    N = states[0].x.size
    step = max(1, CHUNK // (2 * N))
    index = [f"{i}," for i in range(N)]
    for start in range(0, len(states), step):
        block = states[start : start + step]
        # (time, x or v, i), raveled
        texts = float_text_pair(np.array([(st.x, st.v) for st in block]), shortest=False)[0]
        pieces = ["t,i,x,v\n"] if start == 0 else []
        for s, st in enumerate(block):
            rows = [""] * (6 * N)
            rows[0::6] = [f"{st.t:.17g},"] * N
            rows[1::6] = index
            rows[2::6] = texts[2 * N * s : 2 * N * s + N]
            rows[3::6] = [","] * N
            rows[4::6] = texts[2 * N * s + N : 2 * N * (s + 1)]
            rows[5::6] = ["\n"] * N
            pieces += rows
        yield "".join(pieces)


def cmd_simulate(cfg: ExperimentConfig) -> dict:
    """Integrate each grid member; write trajectory CSVs and a summary JSON."""
    summary = []
    for rc in cfg.rings:
        t_eval = np.linspace(0.0, cfg.t_end, cfg.sample_count + 1)
        sol = ode.integrate(rc, cfg.t_end, cfg.rel_tol, cfg.abs_tol, t_eval=t_eval)
        if "csv" in cfg.formats:
            _atomic_write([cfg.out_dir / f"trajectory_N{rc.N}.csv"],
                          ((block,) for block in _trajectory_csv(sol.states)))
        drift = None
        if cfg.force.a0 == 0.0:
            e0 = ode.energy(rc, sol.states[0])
            drift = max(abs(ode.energy(rc, st) - e0) for st in sol.states) / abs(e0)
        stats = {f.name: getattr(sol, f.name) for f in fields(sol) if f.name != "states"}
        summary.append({"N": rc.N, "t_end": cfg.t_end, **stats, "max_energy_drift": drift})
    return {"runs": summary}


def _estimates(cfg: ExperimentConfig, profiles) -> list:
    """One root-test estimate per profile; none when J_max is too short to fit a tail."""
    if cfg.j_max < ana.MIN_RADIUS_ORDER:
        return []
    return [ana.estimate_radius(p, tail_fraction=cfg.tail_fraction) for p in profiles]


def _radius_report(cfg: ExperimentConfig, profiles) -> dict:
    """The ``radius`` and ``trend`` JSON fields; writes ``radius.csv`` too when CSV is on."""
    estimates = _estimates(cfg, profiles)
    if estimates and "csv" in cfg.formats:
        rows = "".join(
            f"{e.N},{e.j_max},{e.method},{e.r_hat:.17g},{e.window[0]},{e.window[1]},"
            f"{e.fit_residual:.17g},{int(e.degenerate)}\n" for e in estimates
        )
        header = "N,J_max,method,R_hat,window_lo,window_hi,fit_residual,degenerate\n"
        _atomic_write([cfg.out_dir / "radius.csv"], [(header + rows,)])
    return {
        "radius": [e.to_json() for e in estimates],
        "trend": ana.radius_trend(estimates).to_json() if estimates else None,
    }


def _compare_one(cfg: ExperimentConfig, rc: RingConfig, table: series.CoefficientTable) -> dict:
    r_hat = min((e.r_hat for e in _estimates(cfg, [table])), default=math.inf)
    horizon = min(cfg.t_end, 0.5 * r_hat)
    times = np.linspace(horizon / cfg.sample_count, horizon, cfg.sample_count)
    sol = ode.integrate(rc, horizon, cfg.rel_tol, cfg.abs_tol, t_eval=times)
    max_rel = 0.0
    for st in sol.states:
        v_series = series.evaluate_velocity(table, st.t)
        denom = max(float(np.max(np.abs(st.v))), series.TINY)
        max_rel = max(max_rel, float(np.max(np.abs(v_series - st.v))) / denom)
    # The last nonzero term of the series at the horizon, in the error's units
    # (the last sample is the horizon, so denom is its max |v|): even orders
    # vanish, so it is the highest odd order j <= J_max.  In logs, so the
    # rescale cancels inside the profile and no power overflows.
    j = table.j_max - 1 + table.j_max % 2
    tail = math.exp(table.log_max_abs(j) + j * math.log(horizon) - math.log(denom))
    return {
        "N": rc.N,
        "horizon": horizon,
        "R_hat": None if not math.isfinite(r_hat) else r_hat,
        "max_rel_velocity_error": max_rel,
        "truncation_tail_estimate": tail,
        "ode_steps": sol.n_steps,
        "ode_rhs_evals": sol.n_rhs_evals,
    }


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Series-vs-integration report: max relative velocity error per N."""
    per_n = [_compare_one(cfg, rc, table)
             for rc, table in zip(cfg.rings, series.coefficient_tables(cfg.rings))]
    return {
        "per_N": per_n,
        "max_rel_velocity_error": max(r["max_rel_velocity_error"] for r in per_n),
    }


def cmd_radius(cfg: ExperimentConfig) -> dict:
    """Radius estimates for every grid N plus the cross-N trend."""
    if cfg.j_max < ana.MIN_RADIUS_ORDER:  # fail before computing any coefficient
        raise ConfigError(
            f"radius estimation needs J_max >= {ana.MIN_RADIUS_ORDER}, got {cfg.j_max}", "ring.J_max"
        )
    return _radius_report(cfg, series.coefficient_profiles(cfg.rings))


def cmd_sweep(cfg: ExperimentConfig) -> dict:
    """Exponent fits, radius trend and bound checks."""
    profiles = series.coefficient_profiles(cfg.rings)
    fits = []
    for j in range(1, min(9, cfg.j_max) + 1, 2):
        try:
            fits.append(ana.exponent_fit(profiles, j))
        except ConfigError:
            continue  # fewer than 4 rings, or an identically-zero column (constant force)
    payload = {
        **_radius_report(cfg, profiles),
        "exponents": [e.to_json() for e in fits],
        "bounds": ana.bound_check(profiles, c_f_bound(cfg.force)).to_json(),
    }
    if "csv" in cfg.formats:
        rows = "".join(f"{e.j},{e.slope:.17g},{e.half_width:.17g},{e.cap_half:.17g},"
                       f"{e.cap_five_sixths:.17g}\n" for e in fits)
        _atomic_write([cfg.out_dir / "exponents.csv"],
                      [("j,slope,half_width,cap_half,cap_five_sixths\n" + rows,)])
    return payload


def _cross_check_sizes(force: ForceSpec) -> tuple[int, ...]:
    """Ring sizes for the cross-check: 3, 4 and 8, each moved past the sizes that alias.

    Each of 3, 4, 8 in turn advances to the smallest size not already
    chosen that divides no harmonic index.
    """
    sizes: list[int] = []
    for n in (3, 4, 8):
        while n in sizes or any(h.k % n == 0 for h in force.harmonics):
            n += 1
        sizes.append(n)
    return tuple(sizes)


def _oracle_max_rel_err(cfg: ExperimentConfig) -> float | None:
    """Engine-vs-enumeration column-relative error on three small rings up to order 9.

    The rings are N = 3, 4, 8 unless a harmonic index is a multiple of one
    of them (``_cross_check_sizes``).  On such a ring that harmonic is the
    same force on every particle, and a force that is uniform on the ring
    moves it rigidly: orders such as 3 and 7 are then exactly zero, both
    sides return rounding noise, and the column-relative error of noise
    against noise would fail a correct table.  So the sine, wide-N and
    validate forces keep (3, 4, 8), and the harmonics (1, 2, 3) take
    (4, 5, 8).  The rings take the configured force and scale ("auto": per
    N).  None below J_max = 3: only order 1 would be compared, and the
    oracle and the engine compute it by the same formula.
    """
    j_cap = min(9, cfg.j_max)
    if j_cap < 3:
        return None
    max_err = 0.0
    rings = [replace(cfg.rings[0], N=N, j_max=j_cap, scale=cfg.scale)
             for N in _cross_check_sizes(cfg.force)]
    for rc, fast in zip(rings, series.coefficient_tables(rings)):
        slow = series.oracle_coefficients(rc)
        err = np.max(np.abs(fast.data - slow.data), axis=0) / np.maximum(slow.max_abs, series.TINY)
        max_err = max(max_err, float(err.max()))
    return max_err


def cmd_verify(cfg: ExperimentConfig) -> dict:
    """Aggregate the hard checks; print one PASS/FAIL/SKIP line per check to stdout.

    A check the configured rings give no data for prints SKIP and does not
    fail the run; its JSON value is null.
    """
    report = ana.bound_check(series.coefficient_profiles(cfg.rings), c_f_bound(cfg.force))
    max_err = _oracle_max_rel_err(cfg)
    # both checks need order 3, so both skip exactly when J_max < 3
    checks = [("order-3 magnitude bound", report.hard_c3_ok, ""),
              ("composition-sum cross-check", None if max_err is None else max_err <= 1e-10,
               "" if max_err is None else f"max rel err {max_err:.2e}")]
    for name, passed, detail in checks:
        word = "SKIP" if passed is None else "PASS" if passed else "FAIL"
        detail = "J_max < 3" if passed is None else detail
        print(f"{word}  {name}" + (f"  ({detail})" if detail else ""))
    return {"bounds": report.to_json(), "oracle_max_rel_err": max_err,
            "passed": all(p is not False for _, p, _ in checks)}


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulomb-chain",
        description="Velocity Taylor expansion and diagnostics for the repulsive ring chain",
        epilog="commands:\n" + "".join(f"  {name:<10}{fn.__doc__.splitlines()[0]}\n"
                                        for name, fn in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="override output directory")
    return parser


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "radius": cmd_radius,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=Path(args.out))
        payload = _COMMANDS[args.command](cfg)
        if payload is None:  # coeffs writes only its tables
            return EXIT_OK
        _write_json(cfg.out_dir / f"{args.command}.json", payload)
        return EXIT_OK if payload.get("passed", True) else EXIT_VERIFY
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
