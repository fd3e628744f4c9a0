import contextlib
import io
import json
import random

import pytest

import oracles
from oddwalk import cli, parity
from oddwalk.errors import ParseError, UnknownVertex
from oddwalk.generators import (all_graphs_upto, complete_graph, cycle_graph,
                                disjoint_union, path_graph,
                                random_bipartite_graph, random_graph,
                                single_edge)
from oddwalk.graphs import Coloring, Walk, WitnessedGraph
from oddwalk.parity import (bipartite_certificate, exact_walk,
                            exact_walk_within, is_bipartite,
                            min_odd_closed_walk, no_odd_walk_in,
                            nonbipartite_vertices, parity_classes,
                            parity_distances, phi_bound, phi_holds,
                            vertex_odd_girth)


def test_phi_bound_triangle_singleton():
    g = complete_graph(3)
    v = phi_bound(g, ["k0"])
    assert not v.no_odd_walk
    assert v.min_odd_length == 3
    assert v.kind == "Unbounded"
    assert v.to_json_dict() == {"kind": "Unbounded", "minOddLength": 3}


def test_phi_bound_path_endpoints():
    g = path_graph(3)  # p0 - p1 - p2
    v = phi_bound(g, ["p0", "p2"])
    assert v.no_odd_walk
    assert v.to_json_dict() == {"kind": "NoOddWalk"}


def test_phi_bound_empty_set():
    assert phi_bound(complete_graph(4), []).no_odd_walk


def test_phi_bound_unknown_vertex():
    with pytest.raises(UnknownVertex):
        phi_bound(single_edge(), ["u", "zzz"])


def test_phi_bound_single_edge_is_length_one():
    # u-v itself is an odd walk with both endpoints in {u, v}
    assert phi_bound(single_edge(), ["u", "v"]).min_odd_length == 1


def test_phi_holds_collapses_over_k():
    g = complete_graph(3)
    assert not phi_holds(g, ["k0"], 100)  # padding gives a length-201 walk
    assert phi_holds(path_graph(3), ["p0", "p2"], 0)
    assert not phi_holds(single_edge(), ["u", "v"], 1)  # u,v,u,v has length 3
    with pytest.raises(ParseError):
        phi_holds(g, ["k0"], -1)


def test_phi_bound_matches_walk_enumeration():
    rng = random.Random(20)
    graphs = [complete_graph(3), cycle_graph(5), path_graph(4),
              disjoint_union(cycle_graph(4), complete_graph(3))]
    graphs += [random_graph(rng, n, 0.4, multi=0.2) for n in (5, 6, 7, 8)]
    for g in graphs:
        cap = 2 * len(g.vertices) + 1
        for a in [g.vertices[:1], g.vertices[:2], g.vertices]:
            got = phi_bound(g, a)
            lengths = oracles.odd_lengths(g, a, cap)
            if got.no_odd_walk:
                assert lengths == []
            else:
                assert lengths and lengths[0] == got.min_odd_length
                # padding: every greater odd length up to the cap also occurs
                assert lengths == list(range(lengths[0], cap + 1, 2))


def test_vertex_odd_girth():
    assert vertex_odd_girth(complete_graph(3), "k0") == 3
    assert all(vertex_odd_girth(cycle_graph(5), v) == 5
               for v in cycle_graph(5).vertices)
    assert vertex_odd_girth(cycle_graph(4), "c0") is None


def test_nonbipartite_vertices_by_component():
    g = disjoint_union(cycle_graph(4), complete_graph(3))
    nb = nonbipartite_vertices(g)
    assert nb == frozenset({"b:k0", "b:k1", "b:k2"})
    assert not is_bipartite(g)
    assert is_bipartite(cycle_graph(6))


def test_bipartite_certificate_even_cycle():
    g = cycle_graph(4)
    col = bipartite_certificate(g)
    assert isinstance(col, Coloring)
    assert col.covers(g) and col.is_proper(g) and col.colors_used == 2
    assert oracles.proper(g, col.by_vertex)


def test_bipartite_certificate_triangle():
    walk = bipartite_certificate(complete_graph(3))
    assert isinstance(walk, Walk)
    assert walk.length == 3 and walk.is_odd and walk.is_closed
    walk.validate(complete_graph(3))


def test_bipartite_certificate_single_vertex():
    g = WitnessedGraph.make(["x"], [])
    col = bipartite_certificate(g)
    assert isinstance(col, Coloring)
    assert col.covers(g) and col.colors_used == 1


def test_bipartite_certificate_classifies_once(monkeypatch):
    calls = []
    classify = parity.parity_classes
    monkeypatch.setattr(parity, "parity_classes",
                        lambda g: calls.append(g) or classify(g))
    for g in (cycle_graph(5), cycle_graph(6),
              disjoint_union(path_graph(3), complete_graph(3))):
        want = min_odd_closed_walk(g)
        calls.clear()
        cert = bipartite_certificate(g)
        assert len(calls) == 1
        if want is None:
            assert isinstance(cert, Coloring)
        else:
            assert cert == want


def test_exact_walk_lex_least():
    g = complete_graph(3)
    walk = exact_walk(g, "k0", "k0", 3)
    assert walk.vertices == ("k0", "k1", "k2", "k0")
    assert walk.witnesses == ("w0", "w2", "w1")
    assert exact_walk(cycle_graph(4), "c0", "c0", 3) is None
    with pytest.raises(ParseError):
        exact_walk(g, "k0", "k0", -1)


def test_exact_walk_respects_length_and_parity():
    # c0-c1 sit at distance 1; the reverse way around the 5-cycle has
    # length 4, so walks exist exactly for odd lengths and even lengths >= 4
    g = cycle_graph(5)
    for length in range(8):
        walk = exact_walk(g, "c0", "c1", length)
        assert (walk is not None) == (length in (1, 3, 4, 5, 6, 7))
        if walk is not None:
            assert walk.length == length
            walk.validate(g)
            assert walk.vertices[0] == "c0" and walk.vertices[-1] == "c1"


def test_min_odd_closed_walk():
    assert min_odd_closed_walk(cycle_graph(6)) is None
    walk = min_odd_closed_walk(cycle_graph(5))
    assert walk.length == 5
    assert walk.vertices == ("c0", "c1", "c2", "c3", "c4", "c0")


def test_parity_distances_sources():
    g = path_graph(3)
    dist = parity_distances(g, ["p0"])
    assert dist[("p0", 0)] == 0
    assert dist[("p1", 1)] == 1
    assert dist[("p2", 0)] == 2
    assert ("p0", 1) not in dist  # bipartite: no odd walk back to the source


def test_parity_classes_decide_phi_on_random_subsets():
    rng = random.Random(14)
    for trial in range(60):
        parts = [random_graph(rng, rng.randint(1, 6), 0.4, multi=0.3),
                 random_bipartite_graph(rng, rng.randint(1, 6), 0.5)]
        g = disjoint_union(*parts)
        if trial % 2:
            g = disjoint_union(g, cycle_graph(rng.choice((3, 5))), ("", "c:"))
        classes = parity_classes(g)
        assert sorted(classes) == list(g.vertices)
        assert nonbipartite_vertices(g) == frozenset(
            v for v in g.vertices if phi_bound(g, [v]).min_odd_length is not None)
        subsets = [(), tuple(g.vertices)]
        subsets += [rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
                    for _ in range(20)]
        for a in subsets:
            assert no_odd_walk_in(classes, a) == phi_bound(g, a).no_odd_walk


def _walk_sweep_graphs():
    """Every graph on up to 4 vertices, then 120 seeded random multigraphs,
    every third with an isolated vertex beside it."""
    yield from all_graphs_upto(4)
    rng = random.Random(22)
    for i in range(120):
        g = random_graph(rng, rng.randint(1, 7), rng.random() * 0.7, multi=0.4)
        if i % 3 == 0:
            g = disjoint_union(g, WitnessedGraph.make(["z"], []))
        yield g


def test_exact_walk_matches_reach_set_oracle():
    cases = 0
    for g in _walk_sweep_graphs():
        for start in g.vertices:
            for end in g.vertices:
                for length in range(2 * len(g.vertices) + 4):
                    want = oracles.exact_walk_by_reach_sets(g, start, end, length)
                    assert exact_walk(g, start, end, length) == want
                    cases += 1
    assert cases > 50000


def _pairwise_exact_walk(g, a, length):
    """The search exact_walk_within replaces: exact_walk for each pair of
    the sorted set in turn, every end it tries building a table."""
    for u in a:
        for v in a:
            walk = exact_walk(g, u, v, length)
            if walk is not None:
                return walk
    return None


def test_exact_walk_within_builds_start_tables_and_one_end(monkeypatch):
    calls = []
    monkeypatch.setattr(parity, "parity_distances",
                        lambda g, sources, f=parity.parity_distances:
                            calls.append(tuple(sources)) or f(g, sources))
    rng = random.Random(23)
    cases = found = before = after = 0
    for i in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random() * 0.6, multi=0.3)
        if i % 2:
            g = disjoint_union(random_bipartite_graph(rng, rng.randint(1, 5), 0.5), g)
        a = sorted(rng.sample(g.vertices, rng.randint(1, min(4, len(g.vertices)))))
        least = phi_bound(g, a).min_odd_length
        for length in {least or 1, rng.randint(0, 6)}:
            # each search on a fresh copy, so neither reads the other's tables
            calls.clear()
            want = _pairwise_exact_walk(WitnessedGraph.from_json_dict(g.to_json_dict()),
                                        a, length)
            before += len(calls)
            calls.clear()
            got = exact_walk_within(WitnessedGraph.from_json_dict(g.to_json_dict()),
                                    a, length)
            after += len(calls)
            assert got == want
            cases += 1
            if got is None:
                assert calls == [(u,) for u in a]
                continue
            found += 1
            u, v = got.vertices[0], got.vertices[-1]
            starts = [(w,) for w in a[:a.index(u) + 1]]
            assert calls == starts + ([(v,)] if (v,) not in starts else [])
    assert cases > 300 and found > 150
    assert after < before


def test_phi_with_k_runs_the_set_bfs_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(parity, "parity_distances",
                        lambda g, sources, f=parity.parity_distances:
                            calls.append(tuple(sources)) or f(g, sources))
    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\nc a\nx y\ny z\n")
    for vertices, holds in ((["z", "x"], True), (["a"], False),
                            (["y", "b", "y"], False)):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["phi", "--graph", str(path), "--set", *vertices,
                             "--k", "3"]) == 0
        assert calls == [tuple(sorted(set(vertices)))]
        assert json.loads(out.getvalue())["holds"] is holds
