import json

import oracles
from oddwalk.cli import _json
from oddwalk.gadget import build_gadget
from oddwalk.generators import complete_graph
from oddwalk.graphs import WitnessedGraph
from oddwalk.render import (gadget_to_dot, gadget_to_json_rows,
                            gadget_to_text, gadget_to_tikz, graph_to_dot,
                            graph_to_tikz)


def gadget_json(g) -> dict:
    """The gadget's JSON as the CLI writes it, parsed back."""
    return json.loads("".join(_json(gadget_to_json_rows(g))))


def test_edge_base_count():
    # an edge-based recursion starts at 2 and doubles-plus-joins the same way
    for prefix, want in (((), 2), ((1,), 6), ((1, 3, 5), 38)):
        note = gadget_json(build_gadget(prefix))["sizeNote"]
        assert note.endswith(f"yields {want} vertices")


def test_gadget_dot_output():
    dot = "".join(gadget_to_dot(build_gadget((1, 3, 5))))
    lines = dot.splitlines()
    assert lines[0] == "// path gadget for c=1,3,5: 30 vertices, 29 edges"
    assert "38 vertices" in lines[1]
    assert sum(1 for ln in lines if "[label=" in ln) == 30
    assert sum(1 for ln in lines if " -- " in ln) == 29
    assert lines[-1] == "}"


def test_gadget_dot_empty_prefix():
    dot = "".join(gadget_to_dot(build_gadget(())))
    assert "c=(empty)" in dot.splitlines()[0]
    assert sum(1 for ln in dot.splitlines() if "[label=" in ln) == 1
    assert " -- " not in dot


def test_gadget_tikz_output():
    tikz = "".join(gadget_to_tikz(build_gadget((1,))))
    lines = tikz.splitlines()
    assert lines[0].startswith("% path gadget for c=1:")
    assert sum(1 for ln in lines if "\\node" in ln) == 4
    assert sum(1 for ln in lines if "\\draw" in ln) == 3
    assert "\\definecolor{lvl0}" in tikz and "\\definecolor{lvl1}" in tikz
    assert lines[-1] == "\\end{tikzpicture}"


def test_gadget_json_output():
    g = build_gadget((1, 3))
    d = gadget_json(g)
    assert d == oracles.gadget_json_dict(g)
    assert d["c"] == [1, 3]
    assert d["oddPrefix"] is True
    assert d["vertexCount"] == 12 and d["edgeCount"] == 11
    assert "38" not in d["sizeNote"]  # 16 for this prefix
    assert d["vertices"][0] == {"label": "p0.00", "k": 0, "t": "00",
                                "birthLevel": 0}
    assert d["edges"][0] == ["p0.00", "p0.0"]
    assert len(d["edges"]) == 11


def test_gadget_text_output():
    text = "".join(gadget_to_text(build_gadget((1,))))
    lines = text.splitlines()
    assert lines[0].startswith("# path gadget")
    assert lines[-1] == "p0.0 -- p0 -- p1 -- p0.1"


def test_graph_dot_output():
    dot = "".join(graph_to_dot(complete_graph(3)))
    lines = dot.splitlines()
    assert lines[0] == "// witnessed graph: 3 vertices, 3 witnesses"
    assert '  "k0" -- "k1" [label="w0"];' in lines
    assert sum(1 for ln in lines if ln.endswith('";')) == 3


def test_graph_dot_escapes_quotes_and_backslashes():
    g = WitnessedGraph.from_text('a"x b\nc\\ d\n')
    lines = "".join(graph_to_dot(g)).splitlines()
    assert '  "a\\"x" -- "b" [label="w0"];' in lines
    assert '  "c\\\\" -- "d" [label="w1"];' in lines
    assert '  "a\\"x";' in lines
    g = WitnessedGraph.from_json_dict(
        {"vertices": ["u", "v"], "witnesses": [{"id": 'e"\\', "ends": ["u", "v"]}]})
    assert '  "u" -- "v" [label="e\\"\\\\"];' in "".join(graph_to_dot(g)).splitlines()


def test_graph_tikz_output():
    tikz = "".join(graph_to_tikz(complete_graph(3)))
    assert sum(1 for ln in tikz.splitlines() if "\\node" in ln) == 3
    assert sum(1 for ln in tikz.splitlines() if "\\draw" in ln) == 3


def test_graph_tikz_escapes_vertex_ids():
    # every LaTeX special character is written as text, so no id comments
    # out the rest of its line or unbalances the node's braces
    g = WitnessedGraph.from_json_dict({
        "vertices": ["v_1", "a#b", "x{y", "50%", "p\\q", "c^d", "$e", "f&g",
                     "h~i", "j}k"],
        "witnesses": [{"id": "w", "ends": ["v_1", "50%"]}]})
    nodes = [ln for ln in "".join(graph_to_tikz(g)).splitlines() if "\\node" in ln]
    labels = [ln.split(" {", 1)[1] for ln in nodes]
    assert labels == [
        "\\$e};", "50\\%};", "a\\#b};", "c\\^{}d};", "f\\&g};",
        "h\\~{}i};", "j\\}k};", "p\\textbackslash{}q};", "v\\_1};",
        "x\\{y};"]
    for ln in nodes:
        bare = ln.replace("\\{", "").replace("\\}", "")
        assert bare.count("{") == bare.count("}")

