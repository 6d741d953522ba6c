#!/usr/bin/env python3
"""Benchmark of the coulomb-chain CLI on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload wide-N --seed 1 --seconds 20 --trace 0

It writes the workload's experiment configs for ``--seed``, then drives the
public CLI entry ``coulomb_chain.cli.main`` in process, closed loop: one
invocation at a time, in passes over the workload's commands, until
``--seconds`` have gone.  Every invocation's artifacts go through the
correctness gate.  The process runs with BLAS threads at 1 and pins itself
to one CPU.  Timings are reported at a reference machine speed measured by a
fixed probe run around each operation (see PROBE_REF_S).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures the
same passes untraced and then traced (half the time each), reports per-layer
metrics per pass, the tracing overhead, and the timings of a fixed baseline.

Standard output is a JSON report followed, on the last line, by the result
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics are
those BENCHMARK.json lists for the mode.  The exit code is 0 when a result
was printed; it is 2 when the package sources are missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

import gate
import mpref
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter launches timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 4
#: Machine-speed probe.  A virtual CPU shared with other tenants can run in
#: speed regimes about 1.7x apart that last from seconds to minutes (seen on a
#: 2-vCPU Xeon VM), so every timed operation is bracketed by PROBES_AROUND
#: probes on each side and its time is rescaled to the speed at which the
#: probe takes PROBE_REF_S.  Raw times stay in the report.
PROBE_REF_S = 0.003
PROBES_AROUND = 2
#: Statistic of a timing's samples reported as its metric value.
STAT = "at_ref_speed"
#: Passes run even when they overrun ``--seconds``, so each median has samples.
MIN_PASSES = 3
#: README: coefficient columns j <= 9 are accurate throughout the desk-scale range.
CLEAN_ORDER_FLOOR = 9
#: Counts that must repeat exactly from pass to pass of one seed.
EXACT_COUNTS = ("ode.steps", "ode.rhs_evals", "analysis.compositions", "series.entries",
                "series.ops_computed", "cli.bytes_written")
#: Per-layer values the traced report always lists (0 where no op calls the layer).
LAYER_METRICS = (
    "series.compute_coefficients_s", "series.compute_coefficients_calls", "series.entries",
    "series.entries_per_s", "series.ops_computed", "series.bytes_computed",
    "series.oracle_coefficients_s", "series.table_csv_s", "series.table_csv_bytes",
    "series.table_json_s", "series.evaluate_velocity_s", "series.self_s",
    "grid.force_grid_s", "grid.force_grid_calls", "grid.self_s",
    "force.eval_force_s", "force.eval_force_calls", "force.self_s",
    "ode.integrate_s", "ode.integrate_calls", "ode.steps", "ode.rhs_evals", "ode.rhs_per_step",
    "ode.rhs_us", "ode.collisions", "ode.self_s",
    "analysis.estimate_radius_s", "analysis.exponent_fit_s", "analysis.bound_check_s",
    "analysis.majorant_lemma_check_s", "analysis.compositions", "analysis.self_s",
    "cli.load_config_s", "cli.self_s", "cli.bytes_written", "cli.files_written",
)
#: Ad-hoc baseline recorded in ROADMAP.md, cross-checked in the traced run.
ROADMAP_BASELINE = {"compute_coefficients_N65536_J9_s": 0.094,
                    "majorant_lemma_check_2_30_s": 3.6, "dop853_N1024_steps": 416}
#: Exit code of a simulate that hit the collision guard, a known defect (ROADMAP.md).
EXIT_COLLISION = 4


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import coulomb_chain from this checkout's ``src`` and nowhere else."""
    if not (SRC / "coulomb_chain" / "__init__.py").is_file():
        fail(f"no package sources at {SRC / 'coulomb_chain'}")
    sys.path.insert(0, str(SRC))
    import coulomb_chain
    import coulomb_chain.cli

    if Path(coulomb_chain.__file__).resolve().parent != (SRC / "coulomb_chain").resolve():
        fail(f"imported coulomb_chain from {coulomb_chain.__file__}, not from {SRC}")
    return coulomb_chain


def machine_info() -> dict:
    import mpmath
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


_PROBE_SMALL = np.linspace(0.0, 1.0, 1024)
_PROBE_BIG = np.linspace(1.0, 2.0, 24 * 16384).reshape(24, 16384)


def probe() -> float:
    """Seconds for a fixed mix of interpreter work, float formatting and array arithmetic.

    The mix mirrors what the commands spend time on (CSV formatting, tuple
    enumeration, small ODE-sized arrays, wide engine-sized arrays) and uses
    no package code.
    """
    t0 = time.perf_counter()
    acc, parts = 0.0, []
    for i in range(2000):
        acc += i * 0.5
        parts.append(f"{acc:.17g}")
    ",".join(parts)
    for tup in itertools.combinations(range(18), 3):
        prod = 1.0
        for v in tup:
            prod *= v + 1.0
        acc += prod
    x = _PROBE_SMALL
    for _ in range(100):
        x = np.roll(x, 1) - x * 0.5
    (_PROBE_BIG[1:] * _PROBE_BIG[-2::-1]).sum(axis=0)
    return time.perf_counter() - t0


class Speed:
    """Probe timings taken around operations over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int) -> list[float]:
        new = [probe() for _ in range(n)]
        self.samples += new
        return new

    def around(self, pre: list[float]) -> float:
        """Probe after an operation; return the factor taking its time to the reference speed."""
        return PROBE_REF_S / statistics.fmean(pre + self.sample(PROBES_AROUND))

    def factor(self) -> float:
        """Factor taking times to the reference speed, from every probe of the run."""
        return PROBE_REF_S / statistics.fmean(self.samples)


@dataclass
class Record:
    """One timed CLI invocation and what the gate found."""

    metric: str
    command: str
    gated: bool
    passno: int
    traced: bool
    seconds: float
    factor: float  # local speed factor from the probes bracketing this invocation
    exit_code: object  # int, or the text of an exception main() let through
    errors: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    files_written: int = 0
    bytes_written: int = 0
    op_id: int = -1

    @property
    def known_collision(self) -> bool:
        return not self.gated and self.exit_code == EXIT_COLLISION


class Bench:
    def __init__(self, pkg, workload, workdir: Path, speed: Speed):
        self.pkg = pkg
        self.wl = workload
        self.workdir = workdir
        self.speed = speed
        self.records: list[Record] = []
        self.tracer = None

    def invoke(self, op, passno: int) -> Record:
        """Run one CLI invocation with its output sent to a log, then gate it.

        ``cmd_verify`` binds ``sys.stdout`` as a default argument at import, so
        only a descriptor-level redirect keeps its PASS lines out of the report.
        """
        out = self.workdir / "out"
        if out.exists():
            shutil.rmtree(out)
        argv = [op.command, "--config", str(op.config), "--out", str(out)]
        op_id = len(self.records)
        log = self.workdir / "op.log"
        pre = self.speed.sample(PROBES_AROUND)
        sys.stdout.flush()
        sys.stderr.flush()
        saved = os.dup(1), os.dup(2)
        try:
            with open(log, "w") as sink:
                os.dup2(sink.fileno(), 1)
                os.dup2(sink.fileno(), 2)
            if self.tracer is not None:
                self.tracer.begin(op_id)
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    with self.tracer.span("cli.main"):
                        code = self.pkg.cli.main(argv)
                else:
                    code = self.pkg.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end()
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            for fd, dup in zip((1, 2), saved):
                os.dup2(dup, fd)
                os.close(dup)

        factor = self.speed.around(pre)
        rec = Record(op.metric, op.command, op.gated, passno, self.tracer is not None,
                     elapsed, factor, code, op_id=op_id)
        files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
        rec.files_written = len(files)
        rec.bytes_written = sum(p.stat().st_size for p in files)
        if code == 0:
            rec.errors, rec.diagnostics = gate.check(op.command, op.cfg, out)
        elif not rec.known_collision:
            tail = log.read_text().strip().splitlines()[-1:]
            rec.errors = [f"{op.metric} ({op.command}): exit {code} {' '.join(tail)}"]
        self.records.append(rec)
        return rec

    def passes(self, seconds: float, passno0: int) -> int:
        """Closed loop over the workload's ops, whole passes, until ``seconds`` are used."""
        deadline = time.perf_counter() + seconds
        n = 0
        while n < MIN_PASSES or time.perf_counter() < deadline:
            for op in self.wl.ops:
                self.invoke(op, passno0 + n)
            n += 1
        return passno0 + n


def measure_setup(config: Path, workdir: Path, speed: Speed) -> tuple[list[float], list[str]]:
    """Wall time of fresh interpreters that import the package and load ``config``."""
    code = "import sys, coulomb_chain, coulomb_chain.cli as cli; cli.load_config(sys.argv[1])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, errors = [], []
    for i in range(SETUP_REPEATS + 1):  # the first launch warms bytecode and page caches
        pre = speed.sample(PROBES_AROUND)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(config)], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - t0
        factor = speed.around(pre)
        if proc.returncode != 0:
            errors.append(f"setup: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if i > 0:
            times.append((elapsed, factor))
    return times, errors


def summary(samples: list[tuple[float, float]]) -> dict:
    """Raw median, p90 and count of (seconds, local speed factor) samples, and
    their mean at the reference speed."""
    raw = sorted(t for t, _ in samples)
    p90 = statistics.quantiles(raw, n=10, method="inclusive")[-1] if len(raw) > 1 else raw[0]
    return {"median": statistics.median(raw), "p90": p90, "n": len(raw),
            "at_ref_speed": statistics.fmean(t * f for t, f in samples)}


def reference_check(pkg, workload) -> tuple[dict, list[str]]:
    """mpmath reference: validate it at N=16, then find clean_order_max at N=64, J=24."""
    force_json = workload.configs["grid"]["force"]
    force = pkg.ForceSpec.from_json(force_json)
    errors = []
    small = pkg.compute_coefficients(pkg.RingConfig(N=16, L=force.L, force=force, j_max=5))
    self_err = max(mpref.column_errors(small, force_json))
    if not self_err <= mpref.SELF_CHECK_TOL:
        errors.append(f"mpmath reference disagrees at N=16, orders <= 5: {self_err:.3e}")
    table = pkg.compute_coefficients(pkg.RingConfig(N=64, L=force.L, force=force, j_max=24))
    col_errs = mpref.column_errors(table, force_json)
    clean = mpref.clean_order_max(col_errs)
    if clean < CLEAN_ORDER_FLOOR:
        errors.append(f"clean_order_max {clean} < {CLEAN_ORDER_FLOOR}")
    return {"clean_order_max": clean, "self_check_max_err_N16": self_err,
            "column_rel_err_N64": col_errs, "clean_tol": mpref.CLEAN_TOL}, errors


def roadmap_baseline(pkg) -> dict:
    """Re-measure ROADMAP.md's ad-hoc baseline (one sine harmonic, default tolerances)."""
    force = pkg.ForceSpec(L=1.0, harmonics=(pkg.Harmonic(1, 0.0, 0.5),))
    ring = pkg.RingConfig(N=65536, L=1.0, force=force, j_max=9)
    cc = []
    for _ in range(3):
        t0 = time.perf_counter()
        pkg.compute_coefficients(ring)
        cc.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    pkg.majorant_lemma_check(2.0, 30)
    lemma = time.perf_counter() - t0
    sol = pkg.integrate(pkg.RingConfig(N=1024, L=1.0, force=force, j_max=24), 0.001)
    return {
        "measured": {"compute_coefficients_N65536_J9_s": statistics.median(cc),
                     "majorant_lemma_check_2_30_s": lemma, "dop853_N1024_steps": sol.n_steps},
        "roadmap": ROADMAP_BASELINE,
        "dop853_steps_match": sol.n_steps == ROADMAP_BASELINE["dop853_N1024_steps"],
    }


def per_pass_layers(bench: Bench) -> tuple[dict, dict]:
    """Per-layer values of each traced pass, and per-op values keyed by op id."""
    tracer = bench.tracer
    per_op = spans.layer_times(tracer)
    for (op_id, name), n in tracer.counts.items():
        per_op[op_id][name] += n
    passes: dict[int, dict] = {}
    for rec in bench.records:
        if not rec.traced:
            continue
        vals = per_op[rec.op_id]
        vals["cli.bytes_written"] = rec.bytes_written
        vals["cli.files_written"] = rec.files_written
        acc = passes.setdefault(rec.passno, {})
        for k, v in vals.items():
            acc[k] = acc.get(k, 0) + v
    return passes, per_op


def layer_metrics(passes: dict, factor: float) -> dict:
    """Median over traced passes of each per-pass value; times at the reference speed."""
    for p in passes.values():
        for k in [k for k in p if k.endswith("_s")]:
            p[k] *= factor
        cc = p.get("series.compute_coefficients_s", 0.0)
        p["series.entries_per_s"] = p.get("series.entries", 0) / cc if cc else 0.0
        steps, rhs = p.get("ode.steps", 0), p.get("ode.rhs_evals", 0)
        p["ode.rhs_per_step"] = rhs / steps if steps else 0.0
        p["ode.rhs_us"] = 1e6 * p.get("ode.integrate_s", 0.0) / rhs if rhs else 0.0
    names = sorted({k for p in passes.values() for k in p} | set(LAYER_METRICS))
    # counts and count ratios repeat exactly; median_low keeps counts whole numbers
    return {k: (statistics.median if k.endswith("_s") or k == "ode.rhs_us"
                else statistics.median_low)([p.get(k, 0) for p in passes.values()])
            for k in names}


def exact_count_check(bench: Bench, per_op: dict) -> tuple[dict, list[str]]:
    """Each count in EXACT_COUNTS must be identical for every pass of the same op."""
    seen: dict[str, dict[str, set]] = {}
    for rec in bench.records:
        vals = {"cli.bytes_written": rec.bytes_written}
        if rec.traced:
            vals.update({k: per_op[rec.op_id].get(k, 0) for k in EXACT_COUNTS})
        for k, v in vals.items():
            seen.setdefault(rec.metric, {}).setdefault(k, set()).add(v)
    errors = [f"count {k} of {metric} varies across passes: {sorted(v)}"
              for metric, counts in seen.items() for k, v in counts.items() if len(v) > 1]
    table = {m: {k: sorted(v) for k, v in c.items()} for m, c in seen.items()}
    return table, errors


def design_checks(bench: Bench, per_op: dict) -> dict:
    """Confirm from measured spans that each workload stresses the layers it claims to."""
    def share(command: str, parts: tuple[str, ...]) -> float | None:
        recs = [r for r in bench.records if r.traced and r.command == command and r.gated]
        if not recs:
            return None
        num = sum(per_op[r.op_id].get(p, 0.0) for r in recs for p in parts)
        return num / sum(per_op[r.op_id]["cli.main_s"] for r in recs)

    claims = {
        "wide-N": [("sweep", ("series.compute_coefficients_s",)),
                   ("coeffs", ("series.table_csv_s", "cli.self_s"))],
        "deep-J": [("verify", ("analysis.majorant_lemma_check_s",))],
        "validate": [("simulate", ("ode.integrate_s",))],
    }[bench.wl.name]
    out = {}
    for command, parts in claims:
        s = share(command, parts)
        out[f"{'+'.join(parts)} share of {command}"] = {"share": s, "holds": s is not None and s > 0.5}
    if bench.wl.name in ("wide-N", "deep-J"):
        calls = sum(per_op[r.op_id].get("ode.integrate_calls", 0)
                    for r in bench.records if r.traced)
        out["ode.integrate_calls is 0"] = {"calls": calls, "holds": calls == 0}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {spec_path}: {exc}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")

    pkg = import_package()
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    info = machine_info()

    workdir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        report, result = run(pkg, spec, args, workdir)
        report.update({"why": whys[args.workload], "machine": info})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


def run(pkg, spec: dict, args, workdir: Path) -> tuple[dict, dict]:
    wl = workloads.build(args.workload, args.seed, workdir)
    speed = Speed()
    bench = Bench(pkg, wl, workdir, speed)
    report: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "configs": wl.configs}

    setup_times, failures = measure_setup(wl.ops[0].config, workdir, speed)
    setup_failed = len(failures)
    for op in wl.ops:  # warm-up pass: lazy imports, caches, allocator; gated, not timed
        bench.invoke(op, -1)
    if wl.name == "deep-J":
        report["reference"], errs = reference_check(pkg, wl)
        failures += errs
    if args.trace == 0:
        bench.passes(args.seconds, 0)
    else:
        n = bench.passes(args.seconds / 2, 0)
        bench.speed = Speed()  # the traced half gets its own speed factor
        bench.tracer = spans.Tracer()
        bench.tracer.install(pkg)
        try:
            bench.passes(args.seconds / 2, n)
        finally:
            bench.tracer.uninstall()
        report["baseline"] = roadmap_baseline(pkg)

    timed = [r for r in bench.records if r.passno >= 0]
    e2e = {"setup_s": summary(setup_times), "speed_factor": speed.factor()}
    for op in wl.ops:
        e2e[op.metric] = {"command": op.command, **summary(
            [(r.seconds, r.factor) for r in timed if not r.traced and r.metric == op.metric])}
    gated = [r for r in bench.records if r.gated]
    probe_ops = [r for r in bench.records if not r.gated]
    failed = sum(1 for r in gated if r.errors) + setup_failed
    attempted = len(gated) + SETUP_REPEATS + 1
    probe_failed = sum(1 for r in probe_ops if r.exit_code != 0)
    e2e["fail_ratio"] = {"value": (failed + probe_failed) / (attempted + len(probe_ops)),
                         "gated_failed": failed, "gated_attempted": attempted,
                         "probe_failed": probe_failed, "probe_attempted": len(probe_ops)}
    if "reference" in report:
        e2e["clean_order_max"] = report["reference"]["clean_order_max"]
    report["end_to_end"] = e2e
    diags: dict = {}
    for r in timed:
        for k, v in r.diagnostics.items():
            diags.setdefault(f"{r.command}.{k}", []).append(v)
    if probe_ops:
        diags["collision_probe.exit_codes"] = [r.exit_code for r in probe_ops]
    report["diagnostics"] = diags

    metrics = {m: e2e[m][STAT] for m in ["setup_s"] + [op.metric for op in wl.ops]}
    wanted = spec["end_to_end"]
    if args.trace == 1:
        passes, per_op = per_pass_layers(bench)
        layers = layer_metrics(passes, bench.speed.factor())
        counts, errs = exact_count_check(bench, per_op)
        failures += errs
        traced = {op.metric: summary([(r.seconds, r.factor) for r in timed
                                      if r.traced and r.metric == op.metric])[STAT]
                  for op in wl.ops}
        untraced = {m: e2e[m][STAT] for m in traced}
        overhead = {m: traced[m] - untraced[m] for m in traced}
        layers["trace.overhead_frac"] = sum(overhead.values()) / sum(untraced.values())
        report["trace"] = {"per_pass": layers, "overhead_s_at_ref_speed": overhead,
                           "exact_counts": counts, "design": design_checks(bench, per_op)}
        metrics = layers
        wanted = spec["per_layer"]
    for r in bench.records:
        failures += r.errors
    report["failures"] = failures

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        # a layer no op of this workload calls has no spans: zero calls, zero time
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


if __name__ == "__main__":
    sys.exit(main())
