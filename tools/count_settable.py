"""Count the settable values of a Python package: every parameter that has a
default plus every dataclass field, over all ``*.py`` files below a directory.

Usage: python tools/count_settable.py src/dfgp

The count is read from the syntax tree, so nothing is imported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count_settable(source: str) -> int:
    """Defaulted parameters plus dataclass fields in one module's source."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                     for s in node.body)
    return n


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    print(sum(count_settable(p.read_text()) for p in sorted(Path(sys.argv[1]).rglob("*.py"))))
