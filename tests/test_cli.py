import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from oddwalk import cli, kernels, parity
from oddwalk.dichotomy import decide, parse_schedule
from oddwalk.equiv import plan_equivalence
from oddwalk.gadget import build_gadget, parse_prefix
from oddwalk.generators import (complete_graph, cycle_graph, path_graph,
                                petersen_graph, random_graph)
from oddwalk.graphs import WitnessedGraph
from oddwalk.homset import all_homs, is_large
from oddwalk.limitgraph import level_quotient
from oddwalk.parity import phi_bound
from oddwalk.render import PALETTE, JsonRows


def run_cli(*args, stdin_text=None, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "oddwalk.cli", *args],
                          input=stdin_text, capture_output=True, text=True,
                          env=env)


def run_main(*args, main=cli.main):
    """main (cli.main unless given) in this process: (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(g.to_json_dict()))
    return str(path)


def test_gadget_dot(tmp_path):
    proc = run_cli("gadget", "--c", "1,3,5", "--format", "dot")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "// path gadget for c=1,3,5: 30 vertices, 29 edges"
    assert sum(1 for ln in lines if "[label=" in ln) == 30
    assert sum(1 for ln in lines if " -- " in ln) == 29


def test_gadget_json_empty_prefix():
    proc = run_cli("gadget", "--c", "")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["formatVersion"] == 1
    assert data["vertexCount"] == 1 and data["edgeCount"] == 0


def test_gadget_tikz():
    proc = run_cli("gadget", "--c", "1", "--format", "tikz")
    assert proc.returncode == 0
    assert sum(1 for ln in proc.stdout.splitlines() if "\\node" in ln) == 4


def test_phi_bounded_and_certificate(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("p0 p1\np1 p2\n")
    proc = run_cli("phi", "--graph", str(path), "--set", "p0", "p2",
                   "--certificate")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["set"] == ["p0", "p2"]
    assert data["verdict"] == phi_bound(path_graph(3), ("p0", "p2")).to_json_dict()
    assert "closure" in data and "coloring" in data

    k3 = write_graph(tmp_path, complete_graph(3))
    proc = run_cli("phi", "--graph", k3, "--set", "k0", "--k", "100",
                   "--certificate")
    data = json.loads(proc.stdout)
    assert data["holds"] is False and data["k"] == 100
    assert data["verdict"] == phi_bound(complete_graph(3), ("k0",)).to_json_dict()
    assert data["walk"]["vertices"][0] == "k0"


def test_homset_triangle(tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    proc = run_cli("homset", "--c", "1", "--graph", k3,
                   "--enumerate", "2", "--project", "p0")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["count"] == 24 and data["total"] == 24
    assert data["tiny"]["holds"] is False
    assert data["large"]["holds"] is True
    assert data["large"]["witness"] is not None
    assert data["projections"]["p0"] == ["k0", "k1", "k2"]
    assert len(data["enumerated"]) == 2


def test_dichotomy_bipartite(tmp_path):
    c4 = write_graph(tmp_path, cycle_graph(4))
    proc = run_cli("dichotomy", "--graph", c4)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert "coloring" in data and "tower" not in data


def test_dichotomy_triangle_schedules(tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    proc = run_cli("dichotomy", "--graph", k3, "--depth", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tower"]["c"] == [1, 1]
    assert data["verified"] is True

    proc = run_cli("dichotomy", "--graph", k3, "--depth", "2",
                   "--schedule", "1,3")
    data = json.loads(proc.stdout)
    assert data["tower"]["c"] == [1, 3]
    assert data["verified"] is True


def test_lc_same_component_long_periods():
    a = "0:0::1" + "0" * 400
    b = "0:0::1" + "0" * 396
    proc = run_cli("lc", "--c", "1,3", "--same-component", a, b)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sameComponent"] is False


def test_malformed_graph_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    proc = run_cli("dichotomy", "--graph", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_graph_from_stdin():
    payload = json.dumps(cycle_graph(4).to_json_dict())
    proc = run_cli("render", "--graph", "-", stdin_text=payload)
    assert proc.returncode == 0
    assert "graph g {" in proc.stdout


def test_graph_that_is_not_utf8_is_one_error_line(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    # strict stdin decoding, as under a UTF-8 locale
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    for graph, stdin in ((str(path), None), ("-", b"\xff\xfe")):
        proc = subprocess.run(
            [sys.executable, "-m", "oddwalk.cli", "dichotomy", "--graph", graph],
            input=stdin, capture_output=True, env=env)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.startswith(f"error: cannot read {graph}: "), err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert proc.stdout == b""


def test_stdin_that_is_not_utf8_is_refused_under_the_c_locale():
    # the C locale turns on UTF-8 mode, whose stdin lets bad bytes through
    # as surrogates
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
    env.update(LC_ALL="C", LANG="C")
    proc = subprocess.run(
        [sys.executable, "-m", "oddwalk.cli", "dichotomy", "--graph", "-"],
        input=b"\xff\xfe", capture_output=True, env=env)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot read -: "), err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert proc.stdout == b""


def test_lc_quotient():
    proc = run_cli("lc", "--c", "1,3", "--quotient")
    data = json.loads(proc.stdout)
    assert len(data["classes"]) == 12 and len(data["edges"]) == 11


def test_lc_neighbors():
    proc = run_cli("lc", "--c", "1", "--neighbors", "0:0::0")
    data = json.loads(proc.stdout)
    assert data["neighbors"] == [
        {"m": 1, "k": 0, "x": {"prefix": "", "period": "0"}}]


def test_lc_adjacent_and_component():
    proc = run_cli("lc", "--c", "1", "--adjacent", "0:0::0", "1:0::0")
    assert json.loads(proc.stdout)["adjacent"] is True
    proc = run_cli("lc", "--c", "1", "--same-component", "0:0::0", "0:0:1:0")
    assert json.loads(proc.stdout)["sameComponent"] is True


def test_lc_project_and_sibling():
    proc = run_cli("lc", "--c", "1,3", "--project", "0:0::0", "--level", "2")
    assert json.loads(proc.stdout)["projection"] == "p0.00"
    proc = run_cli("lc", "--c", "1,3", "--sibling", "0:0")
    data = json.loads(proc.stdout)
    assert data["distance"] == 11 and data["odd"] is True


def test_lc_sibling_refuses_a_negative_k():
    # K was passed on to the obstruction, which named a label never written
    # (p-1.0, or p-1.00 for -1:0)
    for spec, args in (("-1", ["--sibling", "-1"]), ("-1", ["--sibling=-1"]),
                       ("-1:0", ["--sibling=-1:0"])):
        code, out, err = run_main("lc", "--c", "1,3", *args)
        assert (code, out) == (2, ""), args
        assert err == (f"error: bad sibling spec {spec!r}; "
                       f"expected K:BITS like 0:01\n"), args


def test_lc_requires_a_mode():
    proc = run_cli("lc", "--c", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_lc_answers_one_query_only():
    queries = [["--quotient"], ["--neighbors", "1:0::0"],
               ["--adjacent", "0:0::0", "1:0::0"],
               ["--same-component", "0:0::0", "0:0:1:0"],
               ["--project", "0:0::0", "--level", "2"], ["--sibling", "0:0"]]
    for first, second in itertools.permutations(queries, 2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli.main(["lc", "--c", "1,3", *first, *second])
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert "not allowed with argument" in err.getvalue()


def test_loose_labels_exit_2(tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    for label in ("p1_0", "p01", "p0."):
        proc = run_cli("homset", "--graph", k3, "--c", "1,11", "--project", label)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
    for vertex in ("1_0:0::0", "+1:0::0"):
        proc = run_cli("lc", "--c", "1,3", "--neighbors", vertex)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
    proc = run_cli("lc", "--c", "1,3", "--sibling", "0:0_1")
    assert proc.returncode == 2 and proc.stderr.startswith("error:")
    # int() would read 1_0 as 10, +2 as 2 and the Arabic-Indic digit as 3;
    # --depth 1_0 ran a depth-10 tower into a RecursionError
    for args in (["gadget", "--c", "1_0"], ["gadget", "--c", "1,+3"],
                 ["dichotomy", "--graph", k3, "--schedule", "1_0"]):
        code, out, err = run_main(*args)
        assert code == 2 and out == "" and err.startswith("error:"), args
    for args in (["dichotomy", "--graph", k3, "--depth", "\u0663"],
                 ["dichotomy", "--graph", k3, "--depth", "1_0"],
                 ["homset", "--graph", k3, "--c", "1", "--enumerate", "+2"],
                 ["phi", "--graph", k3, "--set", "c0", "--k", " 3"],
                 ["lc", "--c", "1", "--project", "0:0::0", "--level", "1_0"],
                 ["equiv", "--c", "1", "--d", "1", "--depth", "+1"],
                 ["check", "--seed", "\uff11"]):
        code, out, err = run_main(*args)
        assert code == 2 and out == "" and "expected an integer" in err, args


def test_input_errors_write_nothing_to_stdout(tmp_path):
    # output is written as it is made, so every input is checked first:
    # these fail only once the command has begun to compute
    k3 = write_graph(tmp_path, complete_graph(3))
    c5 = write_graph(tmp_path, cycle_graph(5), "c5.json")
    for args in (["homset", "--graph", k3, "--c", "1", "--project", "p0.2"],
                 ["homset", "--graph", k3, "--c", "1", "--project", "p5"],
                 # labels are read before the profile, whose largeness
                 # test on C5 at level 14 would overflow the stack
                 ["homset", "--graph", c5, "--c", ",".join("1" * 14),
                  "--project", "p0.2"],
                 ["homset", "--graph", k3, "--c", "1", "--enumerate", "-1"],
                 ["dichotomy", "--graph", k3, "--schedule", "1", "--depth", "3"],
                 ["equiv", "--c", "2", "--d", "1", "--depth", "1"],
                 ["equiv", "--c", "1", "--d", "1", "--depth", "5"],
                 ["lc", "--c", "1,3", "--sibling", "0:2"],
                 ["lc", "--c", "1,3", "--project", "0:0::0", "--level", "5"],
                 ["phi", "--graph", k3, "--set", "k0", "--k", "-1"],
                 ["phi", "--graph", k3, "--set", "k0", "q", "--certificate"],
                 ["check", "--only", "bogus"]):
        code, out, err = run_main(*args)
        assert (code, out) == (2, ""), args
        assert err.startswith("error:") and err.count("\n") == 1, (args, err)


def test_negative_cap_and_k_are_refused_before_any_work(tmp_path, monkeypatch):
    # the cap was refused only after the profile's largeness test, which on
    # C5 at level 12 overflowed the stack; k only after the set's parity BFS
    c5 = write_graph(tmp_path, cycle_graph(5))
    code, out, err = run_main("homset", "--graph", c5, "--c", ",".join("1" * 12),
                              "--enumerate", "-1")
    assert (code, out, err) == (2, "", "error: cap must be a natural number, got -1\n")
    calls = []
    monkeypatch.setattr(parity, "parity_distances",
                        lambda g, sources, f=parity.parity_distances:
                            calls.append(sources) or f(g, sources))
    code, out, err = run_main("phi", "--graph", c5, "--set", "c0", "--k", "-1")
    assert (code, out, err) == (2, "", "error: k must be a natural number, got -1\n")
    assert calls == []
    assert run_main("phi", "--graph", c5, "--set", "c0", "--k", "0")[0] == 0
    assert len(calls) == 1


def test_lc_level_needs_project():
    for args in (["--quotient", "--level", "99"],
                 ["--neighbors", "0:0::0", "--level", "-5"]):
        code, out, err = run_main("lc", "--c", "1", *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_equiv_planned_and_gap():
    proc = run_cli("equiv", "--c", "3,5", "--d", "1,3,5,7", "--depth", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["planned"] is True and data["verified"] is True

    proc = run_cli("equiv", "--c", "1", "--d", "9", "--depth", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["planned"] is False and "reason" in data


def test_render_graph(tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    proc = run_cli("render", "--graph", k3, "--format", "dot")
    assert proc.returncode == 0
    assert '"k0" -- "k1" [label="w0"];' in proc.stdout


def test_check_single_suite():
    proc = run_cli("check", "--only", "homset", "--seed", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert [s["name"] for s in data["suites"]] == ["homset"]


def test_check_unknown_suite():
    proc = run_cli("check", "--only", "nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_output_stable_across_hash_seeds(tmp_path):
    pet = write_graph(tmp_path, petersen_graph())
    outs = []
    for seed in ("0", "1"):
        proc = run_cli("dichotomy", "--graph", pet, "--depth", "3",
                       env_extra={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]

    # bipartite: the coloring comes from the parity classes, a dict
    bip = write_graph(tmp_path, WitnessedGraph.make(
        ["x3", "x1", "y2", "x0", "y0", "z1", "y1", "z0", "x2"],
        [("x3", "x0"), ("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("x1", "x2"),
         ("y2", "y0"), ("y0", "y1"), ("z0", "z1")]), "bip.json")
    outs = []
    for seed in ("0", "1"):
        proc = run_cli("dichotomy", "--graph", bip, "--depth", "3",
                       env_extra={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["coloring"] == {
        "x0": 0, "x1": 1, "x2": 0, "x3": 1,
        "y0": 0, "y1": 1, "y2": 1, "z0": 0, "z1": 1}

    outs = []
    for seed in ("0", "1"):
        proc = run_cli("check", "--only", "graph-core", "--seed", "7",
                       env_extra={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]

    # a triangle with a doubled witness, joined to a square, beside a
    # bipartite path: homset's memo and pair tables are dicts
    mixed = write_graph(tmp_path, WitnessedGraph.make(
        ["t0", "t1", "t2", "s0", "s1", "s2", "s3", "q0", "q1", "q2"],
        [("t0", "t1"), ("t1", "t2"), ("t2", "t0"), ("t1", "t0"),
         ("t2", "s0"), ("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0"),
         ("q0", "q1"), ("q1", "q2"), ("q2", "q1")]), "mixed.json")
    outs = []
    for seed in ("0", "1"):
        proc = run_cli("homset", "--c", "1,3", "--graph", mixed,
                       "--enumerate", "5", "--project", "p0",
                       "--project", "p0.0", "--project", "p0.11",
                       env_extra={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["enumerated"]) == 5


def test_readme_command_line_examples(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    edges = re.search(r"printf '(.*)' > tri\.txt", block).group(1)
    tri = tmp_path / "tri.txt"
    tri.write_text(edges.replace("\\n", "\n"))
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("oddwalk ")]
    assert len(commands) >= 9
    for argv in commands:
        argv = [str(tri) if arg == "tri.txt" else arg for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, argv
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            assert isinstance(json.loads(out.getvalue()), dict), argv


_CHARS = ("a", "Z", "0", " ", "\x00", "\n", '"', "\\", "]", "}", "[", "{", ",",
          ":", "\u00e9", "\u2603", "\U0001f600")


def _random_str(rng):
    return "".join(rng.choices(_CHARS, k=rng.randint(0, 5)))


def _random_scalar(rng):
    return rng.choice((
        lambda: _random_str(rng),
        lambda: rng.randint(-10 ** 20, 10 ** 20),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((rng.uniform(-1e6, 1e6), 0.1, -0.0, 1e300,
                            float("inf"), float("nan"))),
    ))()


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _random_scalar(rng)
    kind = rng.choice((dict, list, tuple, "rows"))
    if kind == "rows":
        # flat containers of one type, now and then an empty one
        kind = rng.choice((dict, list, tuple))
        return [_random_container(rng, kind, 1) for _ in range(rng.randint(1, 4))]
    return _random_container(rng, kind, depth)


def _random_container(rng, kind, depth):
    items = [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind is dict:
        return {_random_str(rng): item for item in items}
    return kind(items)


def test_emit_matches_json_dumps(tmp_path, monkeypatch):
    rng = random.Random(91)
    trees = [{}, [], (), [[]], [{}], {"a": {}}, [[], {}], [[1], {}],
             [{"a": 1}, [1]], [[1], [2, [3]]], [{"k": "]\x00["}, {"k": "}\x00{"}],
             [["]", "\x00"], [",", ":"]], ({"x": (1, 2)}, {"y": ()}),
             # json.dumps sorts other key types first and then writes them
             # as strings
             {2: [1], 10: {}}, {True: [1], False: []}, {None: [[]]},
             {1.5: [{}], -0.5: [1]},
             # more members than cli._BATCH, so rows and pieces span batches
             list(range(150)), [[i] for i in range(150)],
             {str(i): {"i": i} for i in range(150)}]
    trees += [_random_tree(rng, rng.randint(1, 4)) for _ in range(500)]
    for tree in trees:
        want = json.dumps(tree, indent=2, sort_keys=True)
        assert "".join(cli._json(tree)) == want, tree
        # a generator stands for the array of the values it yields, and a
        # JsonRows for the array or object of the member texts it makes at
        # the indent it is given, at any depth
        if isinstance(tree, dict) and not all(isinstance(k, str) for k in tree):
            continue
        if isinstance(tree, dict):
            rows = JsonRows("{", "}", lambda inner, tree=tree: (
                json.dumps(k) + ": " + json.dumps(
                    tree[k], indent=2, sort_keys=True).replace("\n", inner)
                for k in sorted(tree)))
        elif isinstance(tree, (list, tuple)):
            assert "".join(cli._json(v for v in tree)) == want, tree
            rows = JsonRows("[", "]", lambda inner, tree=tree: (
                json.dumps(v, indent=2, sort_keys=True).replace("\n", inner)
                for v in tree))
        else:
            continue
        assert "".join(cli._json(rows)) == want, tree
        assert "".join(cli._json([{"a": rows}, (x for x in [rows, rows])])) == json.dumps(
            [{"a": tree}, [tree, tree]], indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        json.dumps({"a": JsonRows("[", "]", lambda inner: ["1"])})

    tri = tmp_path / "tri.txt"
    tri.write_text("a b\nb c\nc a\nc d\n")
    square = tmp_path / "square.txt"
    square.write_text("a b\nb c\nc d\nd a\na b\n")
    commands = [
        ["gadget", "--c", ""], ["gadget", "--c", "1,3"],
        ["phi", "--graph", tri, "--set", "a", "b", "--k", "2", "--certificate"],
        ["phi", "--graph", square, "--set", "a", "c", "--certificate"],
        ["homset", "--graph", tri, "--c", "1", "--enumerate", "3",
         "--project", "p0", "--project", "p0.1"],
        ["homset", "--graph", square, "--c", "1,1", "--enumerate", "0"],
        ["dichotomy", "--graph", tri, "--depth", "3"],
        ["dichotomy", "--graph", square, "--depth", "3"],
        ["lc", "--c", "1,3", "--quotient"],
        ["lc", "--c", "1,3", "--neighbors", "1:0::0"],
        ["lc", "--c", "1", "--adjacent", "0:0::0", "1:0::0"],
        ["lc", "--c", "1", "--same-component", "0:0::0", "0:0:1:0"],
        ["lc", "--c", "1,3", "--project", "0:0::0", "--level", "2"],
        ["lc", "--c", "1,3", "--sibling", "0:0"],
        ["equiv", "--c", "3,5", "--d", "1,3,5,7", "--depth", "2"],
        ["equiv", "--c", "1", "--d", "9", "--depth", "1"],
        ["check", "--seed", "1", "--only", "gadget", "--only", "homset"],
    ]
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda data: emitted.append(data) or emit(data))
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([str(arg) for arg in argv]) == 0, argv
        assert out.getvalue() == _json_reference(argv, emitted[-1]), argv
    assert len(emitted) == len(commands)


def _json_reference(argv, emitted):
    """json.dumps of what a command emits, with its JsonRows replaced
    by the dicts tests/oracles.py builds from its own vertex list: for
    `gadget` and `lc --quotient` gadget_json_dict and quotient_json_dict,
    for the tower of `dichotomy` tower_json_via_gadgets, for that of a
    planned `equiv` equiv_json_via_gadgets, and for the homomorphisms of
    `homset` hom_json_dict."""
    def arg(name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    def graph():
        return WitnessedGraph.from_text(Path(arg("--graph")).read_text(encoding="utf-8"))

    if argv[0] == "gadget" or "--quotient" in argv:
        prefix = parse_prefix(arg("--c"))
        emitted = {"formatVersion": 1, **(
            oracles.gadget_json_dict(build_gadget(prefix)) if argv[0] == "gadget"
            else oracles.quotient_json_dict(level_quotient(prefix)))}
    elif argv[0] == "homset":
        prefix = parse_prefix(arg("--c"))
        p = all_homs(build_gadget(prefix), graph())
        witness = is_large(p).witness
        emitted = {**emitted, "large": {
            **emitted["large"],
            "witness": oracles.hom_json_dict(prefix, witness) if witness else None}}
        if "--enumerate" in argv:
            homs = p.enumerate_homs(int(arg("--enumerate")))[0].homs
            emitted["enumerated"] = [oracles.hom_json_dict(prefix, hom) for hom in homs]
    elif argv[0] == "dichotomy" and "tower" in emitted:
        g = graph()
        tower = decide(g, int(arg("--depth", "6")),
                       parse_schedule(arg("--schedule", "default")))
        emitted = {**emitted, "tower": oracles.tower_json_via_gadgets(tower)}
    elif argv[0] == "equiv" and emitted["planned"]:
        tower = plan_equivalence(parse_prefix(arg("--c")), parse_prefix(arg("--d")),
                                 int(arg("--depth")))
        emitted = {**emitted, "tower": oracles.equiv_json_via_gadgets(tower)}
    return json.dumps(emitted, indent=2, sort_keys=True) + "\n"


def test_gadget_and_quotient_json_rows_match_dict_builders():
    rng = random.Random(14)
    prefixes = [(), (1,), (10,), (12, 1), (3, 11, 2)]
    prefixes += [tuple(rng.randint(1, 13) for _ in range(rng.randint(0, 5)))
                 for _ in range(25)]
    for prefix in prefixes:
        c = ",".join(map(str, prefix))
        for argv in (["gadget", "--c", c, "--format", "json"],
                     ["lc", "--c", c, "--quotient"]):
            code, out, err = run_main(*argv)
            assert (code, err) == (0, ""), argv
            assert out == _json_reference(argv, None), argv


def escaped_cycle():
    """A 5-cycle, one edge doubled, whose vertex and witness ids JSON
    escapes."""
    return WitnessedGraph(
        ['a"b', "c\\d", "\u00e9", "x\ny", "z"],
        {'w"0': ('a"b', "c\\d"), "w\\1": ("c\\d", "x\ny"), "w\n2": ("x\ny", "z"),
         "w3": ("z", "\u00e9"), "\u00e9": ("\u00e9", 'a"b'), "w5": ('a"b', "c\\d")})


def test_tower_and_equivalence_json_rows_match_dict_builders(tmp_path, monkeypatch):
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda data: emitted.append(data) or emit(data))
    rng = random.Random(18)
    runs = []
    for i in range(21):   # random generator graphs, three at each depth 0-6
        g = random_graph(rng, rng.randint(4, 7), p=0.6, multi=0.4)
        runs.append(["dichotomy", "--graph", write_graph(tmp_path, g, f"g{i}.json"),
                     "--depth", str(i % 7)])
    escaped = write_graph(tmp_path, escaped_cycle(), "escaped.json")
    runs += [["dichotomy", "--graph", escaped, "--depth", depth] for depth in "0134"]
    # join indices of 10 and more, so that p1 and p10 both occur
    runs.append(["dichotomy", "--graph", escaped, "--depth", "3",
                 "--schedule", "1,1,11"])
    runs += [["equiv", "--c", c, "--d", d, "--depth", depth] for c, d, depth in (
        ("3,5", "1,3,5,7", "0"), ("3,5", "1,3,5,7", "2"), ("1,1", "1,1,1", "2"),
        ("3,11", "1,13,3,11,5", "2"), ("1", "9", "1"))]
    outputs = []
    for argv in runs:
        code, out, err = run_main(*argv)
        assert code == 0 and err == "", argv
        assert out == _json_reference(argv, emitted[-1]), argv
        outputs.append(json.loads(out))
    towers = [o["tower"] for o in outputs if "tower" in o]
    levels = [level for t in towers if "levels" in t for level in t["levels"]]
    assert len(levels) > 60
    assert [{"vertexAssignments": {"p0": 'a"b'}, "witnessAssignments": {}}] in [
        t["levels"] for t in towers if "levels" in t]   # depth 0
    assert {"p1", "p10"} <= set(levels[-1]["vertexAssignments"])
    assert {"p1", "p10"} <= set(towers[-1]["maps"][-1])
    assert "x\ny" in levels[-1]["vertexAssignments"].values()
    assert {'w"0', "w\\1", "w\n2", "\u00e9"} <= set(
        levels[-1]["witnessAssignments"].values())


def test_homset_json_rows_match_dict_builders(tmp_path, monkeypatch):
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda data: emitted.append(data) or emit(data))
    escaped = write_graph(tmp_path, escaped_cycle(), "escaped.json")
    even = write_graph(tmp_path, cycle_graph(6), "c6.json")
    k4 = write_graph(tmp_path, complete_graph(4), "k4.json")
    runs = [["homset", "--graph", escaped, "--c", c, "--enumerate", n]
            for c, n in (("", "5"), ("1", "0"), ("1", "4"), ("3,1", "5"))]
    runs += [["homset", "--graph", escaped, "--c", "", "--project", "p0"],
             ["homset", "--graph", even, "--c", "1,3"],       # bipartite
             ["homset", "--graph", even, "--c", "1", "--enumerate", "3"],
             ["homset", "--graph", k4, "--c", "1,3,1", "--enumerate", "2"],
             # join indices of 10 and more, so that p1 and p10 both occur
             ["homset", "--graph", k4, "--c", "1,11", "--enumerate", "2"]]
    outputs = []
    for argv in runs:
        code, out, err = run_main(*argv)
        assert code == 0 and err == "", argv
        assert out == _json_reference(argv, emitted[-1]), argv
        outputs.append(json.loads(out))
    assert [o["large"]["witness"] is None for o in outputs] == [
        False] * 5 + [True, True] + [False] * 2
    assert outputs[0]["enumerated"][0] == {
        "vertexAssignments": {"p0": 'a"b'}, "witnessAssignments": {}}   # level 0
    assert outputs[1]["enumerated"] == [] and outputs[1]["total"] > 0
    homs = [hom for o in outputs for hom in o.get("enumerated", ())]
    assert {"p1", "p10"} <= set(homs[-1]["vertexAssignments"])
    # level 0 lists every vertex of the escaped cycle
    assert [hom["vertexAssignments"]["p0"] for hom in outputs[0]["enumerated"]] == [
        'a"b', "c\\d", "x\ny", "z", "\u00e9"]
    assert 'w"0' in outputs[3]["large"]["witness"]["witnessAssignments"].values()


@pytest.mark.parametrize("witness", [
    '{"id": "w0", "ends": ["a", "b"]}, {"id": 1, "ends": ["b", "c"]}',
    '{"id": ["w"], "ends": ["a", "b"]}',
    '{"id": "w", "ends": ["a", ["b"]]}',
    '{"id": "w", "ends": 5}',
    '{"id": "w", "ends": "ab"}',
    '{"id": "w", "ends": {"a": 1, "b": 2}}',
], ids=["mixed-ids", "list-id", "list-endpoint", "ends-int", "ends-string",
        "ends-object"])
def test_malformed_graph_json_is_one_error_line(tmp_path, witness):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"vertices": ["a", "b", "c"], "witnesses": [{witness}]}}\n')
    code, out, err = run_main("dichotomy", "--graph", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_gadget_and_quotient_output_materialize_nothing():
    prefix = (1, 3, 10)
    vertices = oracles.gadget_vertices_from_root(prefix)
    c = ",".join(map(str, prefix))
    outputs = {}
    for argv in [["gadget", "--c", c, "--format", fmt]
                 for fmt in ("json", "dot", "tikz", "text")] + [
                     ["lc", "--c", c, "--quotient"]]:
        code, outputs[argv[-1]], err = run_main(*argv)
        assert (code, err) == (0, ""), argv
    # the birth levels read from the labels are those of the vertex list
    births = [len(prefix) - len(v.t) for v in vertices]
    dot_colors = re.findall(r'fillcolor="(#\w+)"', outputs["dot"])
    assert dot_colors == [PALETTE[m % len(PALETTE)] for m in births]
    assert re.findall(r"fill=lvl(\d+)", outputs["tikz"]) == list(map(str, births))
    assert re.findall(r"definecolor\{lvl(\d+)\}", outputs["tikz"]) == [
        str(m) for m in sorted(set(births))]


def test_closed_stdout_is_one_error_line():
    for argv in (["gadget", "--c", "1,3,3,3"], ["gadget", "--c", "1"]):
        read, write = os.pipe()
        os.close(read)   # no reader, before the child writes anything
        try:
            proc = subprocess.run([sys.executable, "-m", "oddwalk.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_stdout_closed_mid_stream_is_one_error_line(tmp_path):
    c5 = tmp_path / "c5.txt"
    c5.write_text("a b\nb c\nc d\nd e\ne a\n")
    ones = ",".join("1" * 12)
    for argv in (["gadget", "--c", ones, "--format", "json"],
                 ["gadget", "--c", ones, "--format", "dot"],
                 ["dichotomy", "--graph", str(c5), "--depth", "8"]):
        # more than the 64 KiB a pipe buffers, so the child is still
        # writing when the reader goes
        assert len(run_main(*argv)[1]) > 1 << 17, argv
        proc = subprocess.Popen([sys.executable, "-m", "oddwalk.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()   # the reader takes the first bytes and goes
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(), len(head)) == (2, 100), (argv, err)
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)


# runs one command in a fresh interpreter with stdout on devnull, then
# writes the process's own peak resident size (VmHWM, in kB) to stderr
_PEAK_CHILD = """
import sys
from oddwalk.cli import main
main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).split()[1],
          file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_large_outputs_stream_in_bounded_memory():
    # about 36 MB and 22 MB of output, written as they are made; building
    # the gadget JSON whole peaked at 164 MB
    ones = ",".join("1" * 16)
    for argv in (["gadget", "--c", ones, "--format", "json"],
                 ["lc", "--c", ones, "--quotient"]):
        proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True)
        assert int(proc.stderr) < 64 * 1024, (argv, proc.stderr)


def test_parsers_are_built_once_and_reused(tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    cli._build_parser.cache_clear()
    code, out, _ = run_main("homset", "--graph", k3, "--c", "1", "--project", "p0")
    assert code == 0 and list(json.loads(out)["projections"]) == ["p0"]
    code, out, _ = run_main("homset", "--graph", k3, "--c", "1")
    assert code == 0 and "projections" not in json.loads(out)
    code, out, err = run_main("lc", "--c", "1,3", "--sibling", "0:0")
    assert code == 0 and err == "" and json.loads(out)["odd"] is True
    # well-formed argv builds no parser
    assert cli._build_parser.cache_info().currsize == 0
    # argparse usage errors leave the cached parsers fit for the next call
    code, out, err = run_main("lc", "--c", "1,3", "--quotient", "--sibling", "0:0")
    assert code == 2 and out == "" and "not allowed with argument" in err
    code, out, err = run_main("lc", "--c", "1,3", "--sibling", "0:0", "--bogus")
    assert code == 2 and out == "" and "unrecognized arguments: --bogus" in err
    code, out, err = run_main("lc", "--c=1,3", "--quotient")
    assert code == 0 and err == "" and len(json.loads(out)["classes"]) == 12
    assert run_main("bogus")[0] == 2 and run_main("--help")[0] == 0
    # help, errors and --c=1,3 build the top-level parser once per command:
    # lc, then None for the unknown command and the help
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (2, 3)


def test_top_level_help_is_the_same_from_every_parser():
    code, top, err = run_main("--help")
    assert code == 0 and err == ""
    for name in cli._SUBCOMMANDS:
        cli._build_parser.cache_clear()
        assert run_main("-h", name) == (0, top, "")
        assert cli._build_parser(name).format_help() == top
        assert name in top
    # arguments a subcommand leaves over are reported under the top-level usage
    usage = top.split("\n\n", 1)[0]
    assert run_main("lc", "--c", "1,3", "--bogus") == (
        2, "", f"{usage}\noddwalk: error: unrecognized arguments: --bogus\n")


def _argv_matrix(graph: str) -> list:
    """The top level's own cases and, for every subcommand, help, a run,
    missing arguments, a trailing unknown option and an extra positional,
    then bad values, abbreviations, --opt=value, mutually exclusive and
    repeated options."""
    g = ["--graph", graph]
    runs = {
        "gadget": ["--c", "1,3", "--format", "text"],
        "phi": [*g, "--set", "k0", "k1"],
        "homset": [*g, "--c", "1"],
        "dichotomy": [*g, "--depth", "2"],
        "lc": ["--c", "1,3", "--neighbors", "1:0::0"],
        "equiv": ["--c", "1,3", "--d", "1,3,5,7", "--depth", "2"],
        "render": g,
        "check": ["--only", "lc"],
    }
    assert list(runs) == list(cli._SUBCOMMANDS)
    cases = [[], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["-h", "lc"],
             ["--bogus", "lc", "--c", "1,3", "--quotient"], ["lc", "lc"]]
    for name, args in runs.items():
        cases += [[name, "-h"], [name, *args], [name], [name, *args, "--bogus"],
                  [name, *args, "extra"]]
    return cases + [
        ["gadget", "--c=1,3", "--format=dot"],
        ["gadget", "--c", "1", "--fo", "tikz"],
        ["gadget", "--c", "1", "--format", "svg"],
        ["gadget", "--c", "1", "--c", "1,3"],
        ["phi", *g, "--set", "k0", "--k", "1_0"],
        ["phi", *g, "--set", "k0", "--cert"],
        ["phi", *g, "--set"],
        ["homset", *g, "--c", "1,1", "--project", "p0", "--project", "p1"],
        ["homset", *g, "--c", "1", "--enum", "2"],
        ["homset", *g, "--c", "1", "--enumerate", "two"],
        ["dichotomy", *g, "--depth=+2"],
        ["dichotomy", *g, "--depth", "-1"],
        ["dichotomy", *g, "--sched", "3"],
        ["lc", "--c", "1,3", "--quotient", "--sibling", "0:0"],
        ["lc", "--c", "1,3", "--s", "0:0"],
        ["lc", "--c", "1,3", "--sib", "0:0"],
        ["lc", "--c", "1,3", "--adjacent", "1:0::0"],
        ["lc", "--c=1,3", "--project=1:0::0", "--level=1"],
        ["lc", "--c", "1,3", "--quotient", "--h"],
        ["equiv", "--c", "1,3", "--d", "1,3,5,7", "--depth", "two"],
        ["render", *g, "--for", "tikz", "--format", "dot"],
        ["render", *g, "--format", "json"],
        ["check", "--seed", "x"],
        ["check", "--only", "bogus"],
    ]


def test_main_reads_argv_as_the_top_level_parser_did(tmp_path):
    graph = write_graph(tmp_path, complete_graph(3))
    codes = set()
    for argv in _argv_matrix(graph):
        got = run_main(*argv)
        assert got == run_main(*argv, main=oracles.main_through_top_level_parser), argv
        codes.add(got[0])
    assert codes == {0, 2}


_INTS = ["0", "1", "2", "3"]
_PREFIXES = ["", "1", "3", "1,3", "1,1,1", "3,1,5"]
_LC_VERTICES = ["1:0::0", "0:0::", "1:1:1:0", "2:0:01:10", "0:0::1"]
_LC_QUERIES = {"--quotient", "--neighbors", "--adjacent", "--same-component",
               "--project", "--sibling"}
# more digits than int() converts before main lifts CPython's limit
_HUGE = "1" * 4301
_BOUNDARY = ["0", "-1", "1_0", "\u0663", "", "-"]


def _fuzz_spec(graph: str) -> dict:
    """subcommand -> option -> (valid values, how many: 0 for a flag, "+"
    for one to three, or "append" for one at a time, required)."""
    g = ([graph, "-"], 1, True)
    return {
        "gadget": {"--c": (_PREFIXES, 1, True),
                   "--format": (["dot", "tikz", "json", "text"], 1, False)},
        "phi": {"--graph": g, "--set": (["k0", "k1", "k2", "zz"], "+", True),
                "--k": (_INTS, 1, False), "--certificate": ([], 0, False)},
        "homset": {"--c": (_PREFIXES, 1, True), "--graph": g,
                   "--project": (["p0", "p1", "p0.1", "p9"], "append", False),
                   "--enumerate": (_INTS, 1, False)},
        "dichotomy": {"--graph": g, "--depth": (_INTS, 1, False),
                      "--schedule": (["default", "3", "1,3,5,7", "0"], 1, False)},
        "lc": {"--c": (_PREFIXES, 1, True), "--quotient": ([], 0, False),
               "--neighbors": (_LC_VERTICES, 1, False),
               "--adjacent": (_LC_VERTICES, 2, False),
               "--same-component": (_LC_VERTICES, 2, False),
               "--project": (_LC_VERTICES, 1, False),
               "--sibling": (["0:0", "0:01", "1:1", "2:"], 1, False),
               "--level": (_INTS, 1, False)},
        "equiv": {"--c": (["1,3", "1", "3,1"], 1, True),
                  "--d": (["1,3,5,7", "1,3", "1,1,1"], 1, True),
                  "--depth": (_INTS, 1, True)},
        "render": {"--graph": g, "--format": (["dot", "tikz"], 1, False)},
        "check": {"--seed": (_INTS, 1, False), "--oracle": ([], 0, False),
                  "--only": (["lc", "gadget", "bogus"], "append", False)},
    }


def _fuzz_option(rng, spec, option) -> list:
    """option and valid values for it."""
    pool, count, _ = spec[option]
    n = rng.randint(1, 3) if count == "+" else 1 if count == "append" else count
    return [option, *(rng.choice(pool) for _ in range(n))]


def _fuzz_argv(rng, specs) -> list:
    """A well-formed command of a random subcommand, its options in random
    order and at most one lc query; then, eleven times in fifteen, one
    near miss or boundary value."""
    name = rng.choice(list(specs))
    spec = specs[name]
    options = [o for o, (_, _, required) in spec.items()
               if required or rng.random() < 0.4]
    queries = [o for o in options if o in _LC_QUERIES]
    options = [o for o in options if o not in queries[1:]]
    rng.shuffle(options)
    groups = [_fuzz_option(rng, spec, o) for o in options]
    kind = rng.randrange(15)
    if kind == 0 and groups:     # a boundary value
        group = rng.choice(groups)
        if len(group) > 1:
            # _HUGE only where argparse reads an integer: main lifts the
            # digit limit before a command converts a prefix or schedule,
            # and a gadget that long could not be built
            huge = spec[group[0]][0] is _INTS
            group[rng.randrange(1, len(group))] = rng.choice(
                _BOUNDARY + [_HUGE] * huge)
    elif kind == 1 and groups:   # an abbreviation
        group = rng.choice(groups)
        group[0] = group[0][:rng.randrange(2, len(group[0]))]
    elif kind == 2:              # --opt=value
        joinable = [gr for gr in groups if len(gr) == 2]
        if joinable:
            group = rng.choice(joinable)
            group[:] = [f"{group[0]}={group[1]}"]
    elif kind == 3:              # a repeated option
        groups.append(_fuzz_option(rng, spec, rng.choice(list(spec))))
    elif kind == 4 and name == "lc":   # two queries
        first, second = rng.sample(sorted(_LC_QUERIES), 2)
        groups += [_fuzz_option(rng, spec, first), _fuzz_option(rng, spec, second)]
    elif kind == 5 and groups:   # a dropped option, often a required one
        groups.pop(rng.randrange(len(groups)))
    argv = [name, *itertools.chain.from_iterable(groups)]
    if kind == 6:                # a leftover token
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["extra", "lc", "1"]))
    elif kind == 7:              # --
        argv.insert(rng.randrange(1, len(argv) + 1), "--")
    elif kind == 8:              # help
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["-h", "--help"]))
    elif kind == 9 and len(argv) > 1:   # an option before the command
        argv.insert(0, argv.pop(rng.randrange(1, len(argv))))
    elif kind == 10:             # an unknown command
        argv[0] = rng.choice(["bogus", "lcx", "", "-"])
    return argv


def _parse_only(parse):
    """A main that prints the namespace parse makes of argv, without
    command, and runs nothing."""
    def main(argv):
        args = vars(parse(argv))
        args.pop("command", None)
        print(sorted(args.items()))
        return 0
    return main


def test_argv_fuzz_reads_as_the_top_level_parser(tmp_path, monkeypatch):
    triangle = "k0 k1\nk1 k2\nk2 k0\n"
    graph = tmp_path / "k3.txt"
    graph.write_text(triangle, encoding="utf-8")
    specs = _fuzz_spec(str(graph))
    for name, (_, add_arguments) in cli._SUBCOMMANDS.items():
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        assert set(parser._option_string_actions) - {"-h", "--help"} == set(specs[name])

    def run(argv, main):
        # a fresh triangle on stdin for --graph -
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(triangle.encode()), encoding="utf-8"))
        return run_main(*argv, main=main)

    rng = random.Random(30)
    read = {True: 0, False: 0}
    for _ in range(1500):
        argv = _fuzz_argv(rng, specs)
        args = cli._read(argv[0], argv[1:]) if argv[0] in cli._SUBCOMMANDS else None
        want = run(argv, _parse_only(oracles.parse_through_top_level_parser))
        assert run(argv, _parse_only(cli._parse)) == want, argv
        if args is not None:
            args = vars(args)
            assert want == (0, f"{sorted(args.items())}\n", ""), argv
        read[args is not None] += 1
        # check is compared by its namespace alone, its suites are not run
        if next((a for a in argv if not a.startswith("-")), None) != "check":
            got = run(argv, cli.main)
            assert got == run(argv, oracles.main_through_top_level_parser), argv
            assert got[0] in (0, 1, 2), argv
    assert read[True] >= 300 and read[False] >= 300, read


@pytest.mark.parametrize("option, kwargs", [
    ("x", {}), ("-x", {}), ("--x", {"action": "count"}), ("--x", {"nargs": "*"}),
    ("--x", {"type": int}), ("--x", {"dest": "y"}), ("--x", {"const": 1}),
    ("--x", {"action": "append", "nargs": 2}), ("--x", {"action": "append", "default": []}),
    ("--x", {"type": cli._int_arg, "default": "1"}),
])
def test_the_reader_refuses_declarations_it_cannot_read(option, kwargs):
    with pytest.raises(TypeError):
        cli._Options(lambda p: p.add_argument(option, **kwargs))


def test_no_command_but_check_runs_the_kernel(tmp_path, monkeypatch):
    # a C7 beside a bipartite edge that holds the least vertex ids, so the
    # full profile's least member is no largeness witness and is_large
    # must cut the profile; and a bipartite target
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("a b\n" + "".join(f"x{i} x{(i + 1) % 7}\n" for i in range(7)))
    square = tmp_path / "square.txt"
    square.write_text("a b\nb c\nc d\nd a\n")
    argvs = [["homset", "--graph", str(g), "--c", "1,3", "--project", "p0.1",
              "--project", "p1", "--enumerate", "5"] for g in (mixed, square)]
    argvs += [["dichotomy", "--graph", str(mixed), "--depth", "4"],
              ["dichotomy", "--graph", str(square)],
              ["phi", "--graph", str(mixed), "--set", "x0", "--certificate"],
              ["phi", "--graph", str(square), "--set", "a", "c", "--certificate"],
              ["lc", "--c", "1,3", "--neighbors", "1:0::0"],
              ["equiv", "--c", "1,3", "--d", "1,3,5,7", "--depth", "2"],
              ["gadget", "--c", "1,3"],
              ["render", "--graph", str(mixed)]]
    want = [run_main(*argv) for argv in argvs]
    assert json.loads(want[0][1])["large"]["witness"]["vertexAssignments"]["p0"] == "x0"
    sweep = kernels.path_propagate

    def refuse(*args):
        raise AssertionError("kernels.path_propagate called")

    monkeypatch.setattr(kernels, "path_propagate", refuse)
    for argv, w in zip(argvs, want):
        assert w[0] == 0, (argv, w[2])
        assert run_main(*argv) == w, argv
    calls = []
    monkeypatch.setattr(kernels, "path_propagate",
                        lambda *a: calls.append(1) or sweep(*a))
    assert run_main("check", "--seed", "0")[0] == 0
    assert calls


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_input_too_large_for_memory_is_one_error_line(tmp_path):
    import resource
    cap = 400 << 20

    def limit():
        # in the child only: its address space, so that an input too large
        # for memory fails fast and takes nothing from the machine
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    c5 = tmp_path / "c5.txt"
    c5.write_text("a b\nb c\nc d\nd e\ne a\n")
    for argv in (["gadget", "--c", "1000000000", "--format", "text"],
                 ["lc", "--c", "1000000000", "--quotient"],
                 ["homset", "--graph", str(c5), "--c", "1000000000"]):
        # never without the limit: unbounded, each of these grows until
        # the machine runs out
        proc = subprocess.run([sys.executable, "-m", "oddwalk.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              preexec_fn=limit)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, \
            (argv, proc.stderr)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit")
def test_homset_count_of_any_size(tmp_path):
    # 6,142 positions on 20 parallel witnesses: 2 * 20 ** 6141 homomorphisms,
    # 7,990 digits, past CPython's default int-to-str limit of 4,300
    graph = tmp_path / "w20.txt"
    graph.write_text("a b\n" * 20)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_main("homset", "--graph", str(graph), "--c", ",".join("1" * 11))
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit   # the caller's limit is back
    digits = re.search(r'"count": (\d+)', out).group(1)
    assert len(digits) == 7990
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == 2 * 20 ** 6141
    finally:
        sys.set_int_max_str_digits(limit)


def test_check_help_lists_the_suites():
    from oddwalk.check import suite_names
    code, out, _ = run_main("check", "--help")
    assert code == 0
    listed = " ".join(out.split()).split("limit to a suite: ", 1)[1]
    assert listed.split(", ") == list(suite_names())


def test_main_reads_sys_argv(monkeypatch):
    argv = ["lc", "--c", "1,3", "--neighbors", "1:0::0"]
    monkeypatch.setattr(sys, "argv", ["oddwalk", *argv])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main() == 0
    assert out.getvalue() == run_main(*argv)[1] != ""
