import pytest

from oddwalk.errors import ParseError, UnknownVertex
from oddwalk.generators import complete_graph, single_edge
from oddwalk.graphs import Coloring, Walk, WitnessedGraph, vertex_pair
from oddwalk.parity import components


def test_vertex_pair_is_sorted():
    assert vertex_pair("b", "a") == ("a", "b")
    assert vertex_pair("a", "b") == ("a", "b")


def test_edge_text_parses_in_line_order():
    g = WitnessedGraph.from_text("a b\nb c\na c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.witnesses == ("w0", "w1", "w2")
    assert g.ends == {"w0": ("a", "b"), "w1": ("b", "c"), "w2": ("a", "c")}


def test_edge_text_comments_and_isolated_vertices():
    g = WitnessedGraph.from_text("# header\nx\nu v  # trailing\n")
    assert g.vertices == ("u", "v", "x")
    assert g.witnesses == ("w0",)


def test_edge_text_rejects_bad_lines():
    with pytest.raises(ParseError):
        WitnessedGraph.from_text("a b c\n")


def test_json_roundtrip():
    g = WitnessedGraph.make(["x", "y", "z"], [("x", "y"), ("y", "z")])
    back = WitnessedGraph.from_json_dict(g.to_json_dict())
    assert back == g


def test_json_parse_errors():
    with pytest.raises(ParseError):
        WitnessedGraph.from_json_text("{not json")
    with pytest.raises(ParseError):
        WitnessedGraph.from_json_text('{"vertices": ["a"]}')
    with pytest.raises(ParseError):
        WitnessedGraph.from_json_dict(
            {"vertices": ["a", "b"],
             "witnesses": [{"id": "w", "ends": ["a", "b"]},
                           {"id": "w", "ends": ["a", "b"]}]})


def test_loops_rejected_at_parse():
    with pytest.raises(ParseError):
        WitnessedGraph.from_text("a a\n")
    with pytest.raises(ParseError):
        WitnessedGraph.make(["a"], [("a", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(ParseError):
        WitnessedGraph(["a"], {"w0": ("a", "b")})


def test_constructors_take_only_arrays_as_pairs():
    # a string or a dict of two items is not a pair, as in graph JSON
    for pair in ("ab", {"a": 1, "b": 2}, 5):
        with pytest.raises(ParseError, match=r'witness \'w\': "ends" must be an array'):
            WitnessedGraph(["a", "b"], {"w": pair})
    with pytest.raises(ParseError, match=r'witness \'w0\': "ends" must be an array'):
        WitnessedGraph.make(["a", "b"], ["ab"])
    for pair in (("a", "b"), ["b", "a"]):
        assert WitnessedGraph(["a", "b"], {"w": pair}).ends == {"w": ("a", "b")}
        assert WitnessedGraph.make(["a", "b"], [pair]).ends == {"w0": ("a", "b")}


def test_multiple_witnesses_share_a_pair():
    g = WitnessedGraph.make(["u", "v"], [("u", "v"), ("v", "u")])
    assert g.witnesses == ("w0", "w1")
    assert g.witnesses_between("u", "v") == ("w0", "w1")
    # multigraph degree counts witnesses, not neighbors
    assert g.degree("u") == 2
    assert g.neighbors("u") == ("v",)


def test_adjacent_and_unknown_vertex():
    g = single_edge()
    assert g.adjacent("u", "v")
    assert g.adjacent("v", "u")
    with pytest.raises(UnknownVertex):
        g.adjacent("u", "nope")
    with pytest.raises(UnknownVertex):
        g.vertex_index("nope")


def test_components_sorted_by_least_member():
    g = WitnessedGraph.make(["d", "c", "b", "a"], [("d", "c")])
    assert components(g) == (("a",), ("b",), ("c", "d"))
    assert [comp for comp in components(g) if "d" in comp] == [("c", "d")]


def test_walk_validate():
    g = complete_graph(3)
    walk = Walk(("k0", "k1", "k2", "k0"), ("w0", "w2", "w1"))
    walk.validate(g)
    assert walk.length == 3 and walk.is_odd and walk.is_closed
    with pytest.raises(ParseError):
        Walk(("k0", "k1"), ("w1",)).validate(g)  # w1 joins k0 and k2
    with pytest.raises(ParseError):
        Walk(("k0",), ("w0",)).validate(g)


def test_coloring_properness_and_coverage():
    g = complete_graph(3)
    col = Coloring({"k0": 0, "k1": 1, "k2": 2})
    assert col.is_proper(g) and col.covers(g) and col.colors_used == 3
    assert not Coloring({"k0": 0, "k1": 0, "k2": 1}).is_proper(g)
    partial = Coloring({"k0": 0})
    assert partial.is_proper(g)  # edges with a missing endpoint are ignored
    assert not partial.covers(g)
    assert partial.domain == ("k0",)


def test_graph_equality_and_hash():
    a = WitnessedGraph.make(["u", "v"], [("u", "v")])
    b = WitnessedGraph.make(["v", "u"], [("v", "u")])
    assert a == b and hash(a) == hash(b)


def test_unknown_vertex_messages():
    g = WitnessedGraph.make(["u", "v", "x"], [("u", "v")])
    cases = [
        (lambda: g.neighbors("nope"), "unknown vertex ids: 'nope'"),
        (lambda: g.degree("nope"), "unknown vertex ids: 'nope'"),
        # both unknown ids, sorted, whichever argument they came in
        (lambda: g.adjacent("zz", "aa"), "unknown vertex ids: 'aa', 'zz'"),
        (lambda: g.adjacent("u", "nope"), "unknown vertex ids: 'nope'"),
        (lambda: g.adjacent("nope", "nope"), "unknown vertex ids: 'nope'"),
        (lambda: g.witnesses_between("zz", "aa"), "unknown vertex ids: 'aa', 'zz'"),
        (lambda: g.witnesses_between("nope", "v"), "unknown vertex ids: 'nope'"),
    ]
    for call, message in cases:
        with pytest.raises(UnknownVertex) as info:
            call()
        assert str(info.value) == message
    # known but not adjacent is an answer, not an error
    assert not g.adjacent("u", "x")
    assert g.witnesses_between("x", "u") == ()
    assert g.degree("x") == 0 and g.neighbors("x") == ()
