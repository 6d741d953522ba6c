#!/usr/bin/env python3
"""Count the code lines of each module of ``src/coulomb_chain`` and their total.

Run from anywhere:

    python3 tools/code_lines.py

A code line is a physical line that holds at least one token other than a
comment, found with ``tokenize``; docstrings, the string statements that
open a module, class or function (found with ``ast``), do not count, and
neither do blank lines.  A multi-line token, such as a string, counts every
line it spans.  The script prints one ``<lines>  <module>`` line per module
and then ``<total>  total``; it takes no arguments.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coulomb_chain"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main()
