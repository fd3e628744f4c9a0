"""Every module-level import in the package and in the tests is read
somewhere in its module, the check suites are imported only by what runs
them, no command imports dataclasses and a well-formed command other than
check does not import argparse.

The package's __init__.py is skipped by the dead-import scan: its imports
are the public re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "oddwalk"


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
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    dead = [f"{p.parent.name}/{p.stem}.{name}" for p in modules + tests
            for name in dead_imports(p.read_text(encoding="utf-8"))]
    assert dead == []


# what only the check suites read; no other command may pay for importing it
CHECK_ONLY = ("oddwalk.check", "oddwalk.bruteforce", "oddwalk.generators")
# dataclasses and the source tools it imports, which the records (named
# tuples) do without; no command, check included, may pay for them
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def imported_modules(*args, code=0):
    """Modules a fresh `python -X importtime ARGS` imports, by name; it must
    exit with code."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


# one op of every subcommand but check; GRAPH stands for a triangle's file.
# bruteforce holds the package's only gadget vertex list, so none of these
# may build one; each is well-formed, so none builds an argparse parser
@pytest.mark.parametrize("args", [
    ["-c", "import oddwalk.cli"],
    ["-c", "import oddwalk"],
    ["-m", "oddwalk.cli", "lc", "--c", "1,3", "--neighbors", "1:0::0"],
    ["-m", "oddwalk.cli", "gadget", "--c", "1,3", "--format", "json"],
    ["-m", "oddwalk.cli", "gadget", "--c", "1,3", "--format", "dot"],
    ["-m", "oddwalk.cli", "lc", "--c", "1,3", "--quotient"],
    ["-m", "oddwalk.cli", "homset", "--graph", "GRAPH", "--c", "1,3",
     "--enumerate", "3"],
    ["-m", "oddwalk.cli", "dichotomy", "--graph", "GRAPH", "--depth", "3"],
    ["-m", "oddwalk.cli", "equiv", "--c", "1,3", "--d", "1,3,5", "--depth", "2"],
    ["-m", "oddwalk.cli", "phi", "--graph", "GRAPH", "--set", "k0",
     "--certificate"],
    ["-m", "oddwalk.cli", "render", "--graph", "GRAPH"],
])
def test_check_suites_load_only_on_demand(args, tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text("k0 k1\nk1 k2\nk2 k0\n", encoding="utf-8")
    modules = imported_modules(*(str(graph) if a == "GRAPH" else a for a in args))
    assert "oddwalk.limitgraph" in modules
    assert not modules & set(CHECK_ONLY)
    assert not modules & set(NOT_IMPORTED)
    assert "argparse" not in modules


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["--c", "1", "--bogus"], 2)])
def test_help_and_usage_errors_import_argparse(args, code):
    # the control for the test above: argparse reads help and usage errors
    assert "argparse" in imported_modules("-m", "oddwalk.cli", "lc", *args, code=code)


def test_check_imports_its_suites():
    # the control for the test above: the scan does see these imports
    modules = imported_modules("-m", "oddwalk.cli", "check", "--help")
    assert set(CHECK_ONLY) <= modules
    assert not modules & set(NOT_IMPORTED)


def test_import_scan_sees_dataclasses():
    # the control for NOT_IMPORTED: the scan lists a module that is loaded
    assert "dataclasses" in imported_modules("-c", "import dataclasses")


def test_dict_builders_and_test_only_members_are_gone():
    # the row writers are the package's only JSON form of these objects, and
    # their references live in tests/oracles.py
    import oddwalk.bruteforce
    from oddwalk.dichotomy import Tower
    from oddwalk.equiv import EquivalenceTower
    from oddwalk.gadget import PathGadget
    from oddwalk.graphs import WitnessedGraph
    from oddwalk.homset import Hom, HomProfile
    gone = [(Tower, "to_json_dict"), (Hom, "to_json_dict"),
            (HomProfile, "to_json_dict"), (EquivalenceTower, "to_json_dict"),
            (Hom, "labelled_json_dict"), (HomProfile, "project_edge"),
            (PathGadget, "birth_level"), (WitnessedGraph, "component_of"),
            (oddwalk.bruteforce, "same_component_wide_scan")]
    assert [(owner.__name__, name) for owner, name in gone
            if hasattr(owner, name)] == []


def test_run_checks_stays_public():
    import oddwalk
    import oddwalk.bruteforce
    import oddwalk.check
    assert oddwalk.run_checks is oddwalk.check.run_checks
    assert oddwalk.check_odd_distance_lemma is oddwalk.bruteforce.check_odd_distance_lemma
    namespace = {}
    exec("from oddwalk import *", namespace)
    assert [name for name in oddwalk.__all__ if name not in namespace] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        oddwalk.no_such_name
