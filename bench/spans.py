"""In-memory span tracer that rebinds the package functions its callers look up.

Spans are ``(name, start, end, parent, op)`` records kept in a list and read
after the run.  Each layer is timed from outside: the tracer replaces module
attributes such as ``series.compute_coefficients`` with a wrapper, so a call
made through the module (as the CLI and the engine make them) opens a span.
The benchmark itself runs in one thread, so a plain stack tracks the parent.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections import defaultdict
from contextlib import contextmanager


def engine_cost(N: int, J: int) -> tuple[int, int]:
    """Flops and bytes of ``compute_coefficients``' per-order loop (computed).

    Derived from the loop bounds of the real-space engine: per order m the
    reciprocal and square of the gap series and each power u**k for
    k = 2..(J-1)//2 are length-(m+1) convolutions over all N particles.
    Bytes count each array expression reading its inputs once and writing
    its output once, 8 bytes per float, ignoring temporaries and caches.
    """
    k_cap = (J - 1) // 2
    flops = reads = writes = 0
    for j in range(1, J + 1):
        m = j - 1
        flops += 3  # interaction difference, sum with the force term, scale by s/j
        reads += 3
        writes += 1
        if m == 0:
            continue
        conv = 2 * m + 1  # m+1 products and m sums
        flops += 2 + 1 + 2 * m + conv  # u, gap, reciprocal (m products, m-1 sums, 1 divide), w
        reads += 1 + 1 + 2 * m + 2 * (m + 1)
        writes += 4
        if k_cap >= 1:
            flops += (k_cap - 1) * conv + (2 * k_cap - 1)  # powers of u, then the force einsum
            reads += (k_cap - 1) * 2 * (m + 1) + 2 * k_cap
            writes += (k_cap - 1) + 1
    return flops * N, 8 * (reads + writes) * N


class Tracer:
    """Records spans and per-operation counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._compositions = itertools.count()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op, name)] += n

    def _wrap(self, name: str, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted_compositions(self, fn):
        # zip pulls one tick from the shared counter per tuple the generator
        # yields, in C, so counting adds no Python call per tuple.
        def wrapper(*args, **kwargs):
            return map(operator.itemgetter(0), zip(fn(*args, **kwargs), self._compositions))

        return wrapper

    def _rebind(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, pkg) -> None:
        """Rebind the traced functions of the ``coulomb_chain`` package ``pkg``."""
        series, ode, analysis, cli = pkg.series, pkg.ode, pkg.analysis, pkg.cli
        errors = pkg.errors

        def on_table(table):
            flops, nbytes = engine_cost(table.N, table.j_max)
            self.count("series.entries", table.N * table.j_max)
            self.count("series.ops_computed", flops)
            self.count("series.bytes_computed", nbytes)

        def on_solution(sol):
            self.count("ode.steps", sol.n_steps)
            self.count("ode.rhs_evals", sol.n_rhs_evals)

        def on_integrate_error(exc):
            if isinstance(exc, errors.CollisionError):
                self.count("ode.collisions")

        wrapped = [
            (series, "compute_coefficients", "series.compute_coefficients", on_table, None),
            (series, "oracle_coefficients", "series.oracle_coefficients", None, None),
            (series, "table_csv", "series.table_csv",
             lambda text: self.count("series.table_csv_bytes", len(text)), None),
            (series, "table_json", "series.table_json", None, None),
            (series, "evaluate_velocity", "series.evaluate_velocity", None, None),
            (series, "force_grid", "grid.force_grid", None, None),
            (ode, "integrate", "ode.integrate", on_solution, on_integrate_error),
            (ode, "eval_force", "force.eval_force", None, None),
            (cli, "load_config", "cli.load_config", None, None),
        ]
        for name in analysis.__all__:
            fn = getattr(analysis, name)
            if callable(fn) and not isinstance(fn, type):
                wrapped.append((analysis, name, f"analysis.{name}", None, None))
        for module, attr, name, on_result, on_error in wrapped:
            self._rebind(module, attr, self._wrap(name, getattr(module, attr), on_result, on_error))
        self._rebind(analysis, "ordered_compositions",
                     self._counted_compositions(analysis.ordered_compositions))

    def begin(self, op: int) -> None:
        """Attribute the spans and counts that follow to operation ``op``."""
        self.op = op
        self._compositions = itertools.count()

    def end(self) -> None:
        self.count("analysis.compositions", next(self._compositions))
        self.op = None

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_times(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per op: inclusive time and call count per span name, and self time per layer."""
    child_time: dict[int, float] = defaultdict(float)
    for rec in tracer.spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(int))
    for idx, (name, start, end, _parent, op) in enumerate(tracer.spans):
        per_op = out[op]
        per_op[f"{name}_s"] += end - start
        per_op[f"{name}_calls"] += 1
        if name != "cli.load_config":  # cli.self_s is the command span minus all its children
            per_op[f"{name.split('.')[0]}.self_s"] += end - start - child_time[idx]
    return out
