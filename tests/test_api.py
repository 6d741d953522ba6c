import ast
import importlib
import pkgutil
from pathlib import Path

import coulomb_chain

PACKAGE_DIR = Path(coulomb_chain.__file__).parent
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
