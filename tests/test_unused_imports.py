"""No module under ``src/``, ``demos/`` or ``tests/`` imports a top-level name it never uses.

The repository installs no linter, so this is pyflakes' F401 rule by ``ast``: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in the module or listed in its ``__all__``.  An import
kept for another reason carries ``# noqa: F401`` on its line and says why.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "demos", "tests") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str):
    """``(line, name)`` of each top-level import binding in ``source`` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).with_suffix("").as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", [(1, "math")]),
    ("import numpy as np\nnp.zeros(1)\n", []),
    ("import os.path\nos.sep\n", []),
    ("from a import (\n    b,\n    c,\n)\nb()\n", [(3, "c")]),
    ("from a import b  # noqa: F401  kept for a reason\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("def f():\n    import math\n", []),
    ("from __future__ import annotations\n", []),
], ids=["unused", "aliased-and-read", "dotted", "one-of-a-parenthesised-list", "noqa", "re-exported",
        "function-local", "future"])
def test_scan_rule(source, unused):
    assert unused_imports(source) == unused
