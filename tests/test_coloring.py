import random

import pytest

import oracles
from oddwalk.coloring import (bipartite_superset_coloring, check_homomorphism,
                              greedy_coloring, invariant_closure,
                              pullback_coloring, two_color_from_cover)
from oddwalk.errors import (CoverIncomplete, NotHomomorphism, PhiFails,
                            PieceNotTiny, UnknownVertex)
from oddwalk.generators import (complete_graph, cycle_graph, disjoint_union,
                                path_graph, random_bipartite_graph,
                                random_graph, single_edge)
from oddwalk.graphs import Coloring, Walk, WitnessedGraph
from oddwalk.parity import bipartite_certificate, is_bipartite, phi_bound


def test_colorings_match_component_bfs_oracle():
    # both colorings are read off parity_classes; the oracle colours each
    # component by a BFS of its own from the least vertex
    rng = random.Random(47)
    bipartite = closures = 0
    for i in range(400):
        if i % 2:
            g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.6, multi=0.3)
        else:
            other = rng.choice((path_graph(rng.randint(1, 5)),
                                cycle_graph(rng.choice((3, 4, 5, 6)))))
            bip = random_bipartite_graph(rng, rng.randint(1, 7), 0.5, tag="u")
            g = disjoint_union(bip, other) if i % 4 else disjoint_union(other, bip)
        comps = oracles.components(g)
        cert = bipartite_certificate(g)
        if is_bipartite(g):
            bipartite += 1
            assert cert == oracles.two_color_components(g, comps)
        else:
            assert isinstance(cert, Walk)
        for _ in range(3):
            a = rng.sample(g.vertices, rng.randint(0, min(3, len(g.vertices))))
            verdict = phi_bound(g, a)
            if not verdict.no_odd_walk:
                with pytest.raises(PhiFails, match=f"length {verdict.min_odd_length}$"):
                    bipartite_superset_coloring(g, a)
                continue
            closures += 1
            touched = [comp for comp in comps if set(a).intersection(comp)]
            closure, col = bipartite_superset_coloring(g, a)
            assert closure == tuple(sorted(v for comp in touched for v in comp))
            assert col == oracles.two_color_components(g, touched)
    assert bipartite > 100 and closures > 300


def test_invariant_closure_meets_components():
    g = disjoint_union(complete_graph(3), single_edge())
    assert invariant_closure(g, ["a:k0"]) == ("a:k0", "a:k1", "a:k2")
    assert invariant_closure(g, []) == ()
    assert invariant_closure(path_graph(4), ["p2"]) == ("p0", "p1", "p2", "p3")
    with pytest.raises(UnknownVertex):
        invariant_closure(g, ["missing"])


def test_bipartite_superset_coloring_path():
    g = path_graph(3)
    b, col = bipartite_superset_coloring(g, ["p0"])
    assert b == ("p0", "p1", "p2")
    assert col.is_proper(g) and set(col.domain) == set(b)
    assert col.colors_used <= 2


def test_bipartite_superset_coloring_empty():
    b, col = bipartite_superset_coloring(path_graph(3), [])
    assert b == () and col.domain == ()


def test_bipartite_superset_coloring_two_edges():
    g = disjoint_union(single_edge(), single_edge())
    b, col = bipartite_superset_coloring(g, ["a:u", "b:u"])
    assert b == ("a:u", "a:v", "b:u", "b:v")
    assert col.is_proper(g) and col.covers(g)


def test_bipartite_superset_coloring_requires_no_odd_walk():
    with pytest.raises(PhiFails):
        bipartite_superset_coloring(complete_graph(3), ["k0"])


def test_two_color_from_cover_single_piece():
    g = cycle_graph(4)
    col = two_color_from_cover(g, [["c0"]])
    assert col.covers(g) and col.is_proper(g)
    assert oracles.proper(g, col.by_vertex)


def test_two_color_from_cover_first_match_priority():
    g = path_graph(3)
    col = two_color_from_cover(g, [["p0"], ["p2"]])
    # both closures are the whole component, so piece 0 colors everything
    _, first = bipartite_superset_coloring(g, ["p0"])
    assert col.by_vertex == first.by_vertex


def test_two_color_from_cover_disjoint_edges():
    g = disjoint_union(single_edge(), single_edge())
    col = two_color_from_cover(g, [["a:u"], ["b:u"]])
    assert col.covers(g) and col.is_proper(g)


def test_two_color_from_cover_rejects_odd_walk_piece():
    g = complete_graph(3)
    with pytest.raises(PieceNotTiny):
        two_color_from_cover(g, [["k0", "k1", "k2"]])
    with pytest.raises(PieceNotTiny):
        two_color_from_cover(g, [["k0"], ["k1"], ["k2"]])


def test_two_color_from_cover_rejects_incomplete_cover():
    g = disjoint_union(cycle_graph(4), single_edge())
    with pytest.raises(CoverIncomplete):
        two_color_from_cover(g, [["a:c0"]])


def test_two_color_from_cover_random_bipartite():
    # one representative per component keeps every piece free of odd walks
    # while the union of closures still covers the whole graph
    rng = random.Random(35)
    for _ in range(40):
        g = random_bipartite_graph(rng, rng.randint(2, 10), 0.5)
        reps = [rng.choice(comp) for comp in oracles.components(g)]
        rng.shuffle(reps)
        cut = rng.randint(1, len(reps))
        pieces = [reps[:cut], reps[cut:]] if reps[cut:] else [reps[:cut]]
        col = two_color_from_cover(g, pieces)
        assert col.covers(g) and col.is_proper(g)


def test_greedy_coloring():
    assert greedy_coloring(complete_graph(3)).colors_used == 3
    assert greedy_coloring(WitnessedGraph.make(["a", "b"], [])).colors_used == 1
    col = greedy_coloring(path_graph(5))
    assert col.is_proper(path_graph(5)) and col.colors_used <= 3


def test_greedy_coloring_degree_bound():
    rng = random.Random(36)
    from oddwalk.generators import random_graph
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        col = greedy_coloring(g)
        assert col.is_proper(g) and col.covers(g)
        assert col.colors_used <= g.max_neighbor_count() + 1


def test_pullback_coloring_identity():
    g = cycle_graph(4)
    col = Coloring({v: i % 2 for i, v in enumerate(g.vertices)})
    same = pullback_coloring(g, g, {v: v for v in g.vertices}, col)
    assert same.by_vertex == col.by_vertex


def test_pullback_coloring_fold():
    h = path_graph(3)
    g = single_edge()
    vmap = {"p0": "u", "p1": "v", "p2": "u"}
    col = pullback_coloring(h, g, vmap, Coloring({"u": 0, "v": 1}))
    assert col.by_vertex == {"p0": 0, "p1": 1, "p2": 0}
    assert col.is_proper(h)


def test_pullback_coloring_rejects_non_homomorphism():
    h = path_graph(3)
    g = single_edge()
    with pytest.raises(NotHomomorphism):
        pullback_coloring(h, g, {"p0": "u", "p1": "u", "p2": "v"},
                          Coloring({"u": 0, "v": 1}))
    with pytest.raises(NotHomomorphism):
        check_homomorphism(h, g, {"p0": "u", "p1": "v"})  # p2 unmapped
