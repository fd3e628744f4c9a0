"""Every module-level import in the package is read somewhere in its module.

__init__.py is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oddwalk"


def dead_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_dead_imports_are_found():
    assert dead_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["os", "b"]
    assert dead_imports("from __future__ import annotations\nimport os.path\nos\n") == []


def test_package_has_no_dead_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = [f"{p.stem}.{name}" for p in modules
            for name in dead_imports(p.read_text(encoding="utf-8"))]
    assert dead == []
