"""Seeded workloads: experiment configs written as JSON, and the commands run on them.

The seed draws only the harmonic phases and how a fixed total amplitude of 0.5
is split among the harmonics.  Grid sizes, truncation orders and harmonic
indices are fixed per workload, so the force growth constant C_F and the work
per operation do not depend on the seed; the program sees only the generated
config files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOTAL_AMPLITUDE = 0.5


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``coulomb-chain <command> --config <config>``.

    ``metric`` names the end-to-end timing it feeds.  Operations with
    ``gated=False`` are diagnostics: they are timed and checked, but a known
    failure of theirs does not count against the run.
    """

    metric: str
    command: str
    config: Path
    cfg: dict  # the config as written
    gated: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    configs: dict  # config name -> JSON object, as written


def seeded_harmonics(seed: int, ks: tuple[int, ...]) -> list[dict]:
    """Harmonics k in ``ks`` with seeded phases and amplitude shares summing to 0.5."""
    rng = np.random.default_rng(seed)
    shares = 1.0 + rng.random(len(ks))  # each share stays within a factor 2 of the others
    amps = TOTAL_AMPLITUDE * shares / shares.sum()
    phases = 2.0 * math.pi * rng.random(len(ks))
    return [
        {"k": k, "a": float(amp * math.sin(ph)), "b": float(amp * math.cos(ph))}
        for k, amp, ph in zip(ks, amps, phases)
    ]


def _config(Ns, j_max: int, harmonics: list[dict], t_end: float = 0.05) -> dict:
    return {
        "ring": {"N": list(Ns), "L": 1.0, "J_max": j_max, "scale": "auto"},
        "force": {"L": 1.0, "a0": 0.0, "harmonics": harmonics},
        "ode": {"t_end": t_end, "rel_tol": 1e-10, "abs_tol": 1e-12, "sample_count": 10},
        "analysis": {"tail_fraction": 0.5},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's configs for ``seed`` under ``workdir``."""
    if name == "wide-N":
        h = seeded_harmonics(seed, (1, 2))
        configs = {
            "grid": _config([2**p for p in range(8, 19)], 9, h),
            "tables": _config([2**p for p in range(8, 15)], 9, h),
        }
        plan = [("cmd1_s", "sweep", "grid"), ("cmd2_s", "radius", "grid"),
                ("coeffs_s", "coeffs", "tables")]
    elif name == "deep-J":
        h = seeded_harmonics(seed, (1, 2, 3))
        configs = {"grid": _config([16, 32, 64, 128], 96, h)}
        plan = [("cmd1_s", "verify", "grid"), ("cmd2_s", "radius", "grid"),
                ("coeffs_s", "coeffs", "grid")]
    elif name == "validate":
        h = seeded_harmonics(seed, (1, 2))
        configs = {
            "grid": _config([128, 256, 512, 1024], 24, h, t_end=0.001),
            "probe": _config([384], 24, h, t_end=0.01),
        }
        plan = [("cmd1_s", "simulate", "grid"), ("cmd2_s", "compare", "grid"),
                ("coeffs_s", "coeffs", "grid"), ("collision_probe_s", "simulate", "probe")]
    else:
        raise ValueError(f"unknown workload {name!r}")

    paths = {}
    for key, obj in configs.items():
        paths[key] = workdir / f"{name}_{key}.json"
        paths[key].write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    ops = tuple(
        Op(metric, command, paths[key], configs[key], gated=metric != "collision_probe_s")
        for metric, command, key in plan
    )
    return Workload(name=name, ops=ops, configs=configs)
