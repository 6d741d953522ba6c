import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import coulomb_chain
import coulomb_chain.cli

PACKAGE_DIR = Path(coulomb_chain.__file__).parent
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
#: Modules whose public names the package re-exports; ``cli`` is the front end.
LIBRARY = ("analysis", "force", "ode", "ring", "series")
ERRORS = {"CollisionError", "ConfigError", "StiffnessError"}


def test_every_public_name_resolves_and_the_package_exports_their_union():
    modules = {
        info.name: importlib.import_module(f"coulomb_chain.{info.name}")
        for info in pkgutil.iter_modules([str(PACKAGE_DIR)])
    }
    for name, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
    for attr in coulomb_chain.__all__:
        assert hasattr(coulomb_chain, attr), attr
    union = set().union(*(modules[name].__all__ for name in LIBRARY))
    assert len(coulomb_chain.__all__) == len(set(coulomb_chain.__all__))
    assert set(coulomb_chain.__all__) == union | ERRORS


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


class _Loads(ast.NodeVisitor):
    """Names and attributes a module loads, each outside the body of its own def or class."""

    def __init__(self):
        self.names: set[str] = set()
        self.inside: list[str] = []

    def visit_def(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_def

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def _loads(*dirs: Path) -> set[str]:
    """The names that the modules of ``dirs`` load, as ``_Loads`` collects them."""
    loads = _Loads()
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        loads.visit(ast.parse(path.read_text(), str(path)))
    return loads.names


@pytest.mark.parametrize("module", [coulomb_chain, coulomb_chain.cli], ids=lambda m: m.__name__)
def test_every_public_name_has_a_caller_outside_the_tests(module):
    # A load in code, not a word in a docstring or an __all__ string, and
    # not a longer name such as _acceleration for acceleration.  The package
    # re-exports the library; the CLI's commands are public on their own.
    assert sorted(set(module.__all__) - _loads(PACKAGE_DIR, BENCH_DIR)) == []


def test_the_public_names_only_the_benchmark_calls():
    # The package calls neither name; bench/run.py does, in its mpmath
    # reference check and its traced baseline.  A change that stops the
    # benchmark calling one shrinks this set, and then that name goes.
    public = set(coulomb_chain.__all__) | set(coulomb_chain.cli.__all__)
    unloaded = public - _loads(PACKAGE_DIR)
    assert unloaded == {"compute_coefficients", "majorant_lemma_check"}
    assert unloaded <= _loads(BENCH_DIR)


def test_each_kind_of_ring_carries_benchmark_traffic(monkeypatch, tmp_path):
    # The engine runs a ring of N <= 2 B_J particles on its own points
    # (packed) and a larger one on a proxy grid; each path stays while a
    # workload runs it.  Deep-J runs only packed rings, wide-N and validate
    # only proxy rings, and every workload's verify cross-check rings are
    # packed at J_max = 9.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    band = coulomb_chain.series._band
    for name, packed in (("deep-J", True), ("wide-N", False), ("validate", False)):
        workload = workloads.build(name, 1, tmp_path)
        for op in workload.ops:
            if op.command == "simulate":  # the integrator runs no engine
                continue
            cfg = coulomb_chain.cli.parse_config(op.cfg)
            B = band(cfg.force, cfg.j_max)
            assert [ring.N <= 2 * B for ring in cfg.rings] == [packed] * len(cfg.rings), op
        force = coulomb_chain.ForceSpec.from_json(workload.configs["grid"]["force"])
        sizes = coulomb_chain.cli._cross_check_sizes(force)
        assert all(n <= 2 * band(force, 9) for n in sizes), (name, sizes)


def test_benchmark_tracer_binds_every_layer(monkeypatch):
    # bench/run.py --trace 1 installs this tracer, which rebinds module
    # attributes by name, and then calls the package names below; a removed
    # or renamed one would break the traced benchmark, not any other test.
    import coulomb_chain.cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install(coulomb_chain)
    try:
        for name in ("ForceSpec", "Harmonic", "RingConfig", "compute_coefficients",
                     "integrate", "majorant_lemma_check"):
            assert callable(getattr(coulomb_chain, name)), name
        assert callable(coulomb_chain.cli.main)
    finally:
        tracer.uninstall()
