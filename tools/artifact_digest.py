#!/usr/bin/env python3
"""Digest of everything the six CLI commands write on the benchmark's seed-7 configs.

Run from the repository root:

    python3 tools/artifact_digest.py > digest.txt

It writes the configs of every benchmark workload for seed 7 with
``bench/workloads.build``, runs each of the six commands on each config
through ``coulomb_chain.cli.main`` in process, and prints one line per run
(exit code, sha256 of stdout and stderr) followed by one line per written
file (its path under the output directory and its sha256).  Extra
configs reach the two kinds of ring of the coefficient engine, which runs
a ring of N <= 2 B_J particles on its own points and a larger one on a
proxy grid (B_J = ceil(J_max/2) times the top harmonic index).  With the
wide-N grid's force and J_max (B_J = 10) they are: N = 20 and 21, on
either side of 2 B_J, running ``coeffs`` and ``radius``; N = 22, an even
proxy ring below its P = 32 points, whose Nyquist mode N/2 = 11 lies one
above its top band B_J, running ``coeffs`` and ``radius``; N = 20011, a
proxy ring whose size is not a power of two, running ``coeffs`` and
``radius``; and the grid N = 3, 20, 21, 100, 20011, which mixes both
kinds in one loop, running ``coeffs``, ``radius``, ``sweep`` and
``verify``.  With the deep-J grid's force and J_max (B_J = 144), N = 288
and 289 run ``coeffs`` and ``radius`` on either side of 2 B_J.  The sine
force 0.5 sin(2 pi x) at J_max = 5 (B_J = 3) runs ``verify`` on N = 16
and 32, so that its cross-check ring N = 8 runs on the P = 8 proxy grid.
That ring, ``wide-N_huge`` (below) at N = 16 and ``wide-N_shallow``
(below) at N = 16, both on P = 16, are proxy rings with N == P, whose
lattice is their grid; they are read like any other proxy ring, by the
sum over each column's band.
The validate grid with ``output.formats`` set to ``["json"]`` runs all six
commands, so the digest also pins which files a JSON-only run writes.
Three more reach the float-to-text kernel's exact zeros and hand it
values of each kind it does not certify to Python's own formatting
(magnitudes outside [1e-280, 1e280], a power-of-two mantissa in the JSON,
values next to a rounding boundary; no command writes a non-finite
value): the amplitude
1e120 at scale 1e-100, whose deep orders are subnormal or below 1e-280,
running ``coeffs`` and ``radius``; the force -0.5 sin(2 pi x) on N = 4
and 8, which vanishes at particle 0, so live columns and trajectories
hold exact zeros; and the constant field a0 = 0.3, whose every order but
the first is zero; the last two run ``coeffs``, ``simulate`` and
``compare``.  The sine force on N = 16 and 32 at J_max = 8, the smallest
truncation ``radius`` accepts, with ``t_end`` = 0.1 runs ``radius`` and
``compare``: the radius fit's window must hold three odd orders there, and
``compare`` stops at half the estimated radius, below ``t_end``.
The sine force at J_max = 97 on N = 2**8, 2**10, .., 2**20, all proxy
rings deep enough for the spectral filter to decide the tail, runs
``radius``.
The first line lists the package's public names, ``coulomb_chain.__all__``
sorted, so the digest also pins the API.  Two checkouts give byte-identical
artifacts and the same public names exactly when a plain ``diff`` of their
digests is empty.  The script takes no arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py)
import coulomb_chain  # noqa: E402
from coulomb_chain import cli  # noqa: E402

SEED = 7
WORKLOADS = ("wide-N", "deep-J", "validate")
COMMANDS = ("coeffs", "simulate", "compare", "radius", "verify", "sweep")
# Integrating rings of up to 2**18 particles runs for many minutes, so the
# wide-N configs are neither simulated nor compared (compare integrates up
# to half the estimated radius).
SKIP = {("wide-N", "simulate"), ("wide-N", "compare")}
SINE = {"harmonics": [{"k": 1, "a": 0.0, "b": 0.5}]}
# (workload, stem, {section: keys set on the workload's grid config}, commands)
EXTRA = (
    ("wide-N", "edge", {"ring": {"N": [20, 21]}}, ("coeffs", "radius")),
    ("wide-N", "nyquist", {"ring": {"N": [22]}}, ("coeffs", "radius")),
    ("wide-N", "uneven", {"ring": {"N": [20011]}}, ("coeffs", "radius")),
    ("wide-N", "mixed", {"ring": {"N": [3, 20, 21, 100, 20011]}},
     ("coeffs", "radius", "sweep", "verify")),
    ("deep-J", "edge", {"ring": {"N": [288, 289]}}, ("coeffs", "radius")),
    ("wide-N", "sine", {"ring": {"N": [16, 32], "J_max": 5}, "force": SINE}, ("verify",)),
    ("validate", "json", {"output": {"formats": ["json"]}}, COMMANDS),
    ("wide-N", "huge", {"ring": {"N": [16, 32], "scale": 1e-100},
                        "force": {"harmonics": [{"k": 1, "a": 0.0, "b": 1e120}]}},
     ("coeffs", "radius")),
    ("wide-N", "zeros", {"ring": {"N": [4, 8]},
                         "force": {"harmonics": [{"k": 1, "a": 0.0, "b": -0.5}]}},
     ("coeffs", "simulate", "compare")),
    ("wide-N", "constant", {"ring": {"N": [4, 8]}, "force": {"a0": 0.3, "harmonics": []}},
     ("coeffs", "simulate", "compare")),
    ("wide-N", "shallow", {"ring": {"N": [16, 32], "J_max": 8}, "force": SINE,
                           "ode": {"t_end": 0.1}}, ("radius", "compare")),
    ("wide-N", "deep_sine", {"ring": {"N": [4**k for k in range(4, 11)], "J_max": 97},
                             "force": SINE}, ("radius",)),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, config: Path, out: Path) -> tuple[str, bytes, bytes]:
    """Exit code (or the escaping exception's type) and the captured output of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main([command, "--config", str(config), "--out", str(out)]))
        except Exception as exc:  # a crash is part of the digest, not the end of it
            code = type(exc).__name__
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def digest(config: Path, commands, work: Path) -> None:
    """Run each command on ``config`` and print its digest lines."""
    for command in commands:
        out = work / "out" / config.stem / command
        code, stdout, stderr = run(command, config, out)
        print(f"{config.stem} {command} exit={code} "
              f"stdout={sha256(stdout)} stderr={sha256(stderr)}", flush=True)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        for path in files:
            print(f"  {path.relative_to(out)} {sha256(path.read_bytes())}", flush=True)


def main() -> None:
    print("api", *sorted(coulomb_chain.__all__), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in WORKLOADS:
            wl = workloads.build(name, SEED, work)
            for config in dict.fromkeys(op.config for op in wl.ops):
                digest(config, [c for c in COMMANDS if (name, c) not in SKIP], work)
        for name, stem, sections, commands in EXTRA:
            obj = workloads.build(name, SEED, work).configs["grid"]
            for section, keys in sections.items():
                obj[section].update(keys)
            config = work / f"{name}_{stem}.json"
            config.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
            digest(config, commands, work)


if __name__ == "__main__":
    main()
