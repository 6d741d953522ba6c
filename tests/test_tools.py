"""The code-line counter of ``tools/code_lines.py``, which sizes the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """Function docstring."""
    text = """a string
over two lines"""
    return os.sep + text + x
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of the string and return
    assert load_code_lines().code_lines(SOURCE) == 5


def test_script_prints_each_module_and_their_total():
    proc = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")],
                          capture_output=True, text=True, check=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "coulomb_chain").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    counts = [int(count) for count, _ in rows]
    assert counts[-1] == sum(counts[:-1])
