import contextlib
import io
import itertools
import json
import random

import pytest

import oracles
from oddwalk import bruteforce, cli, homset, kernels, parity
from oddwalk.dichotomy import (Tower, TowerReport, decide, evaluate,
                               parse_schedule, unbounded_schedule_default,
                               verify_tower)
from oddwalk.equiv import plan_equivalence
from oddwalk.errors import (InvalidIndex, OddwalkError, OutOfTruncation,
                            ParseError)
from oddwalk.gadget import build_gadget
from oddwalk.generators import (all_graphs_upto, complete_graph, cycle_graph,
                                disjoint_union, path_graph, petersen_graph,
                                random_bipartite_graph, random_graph)
from oddwalk.graphs import Coloring, WitnessedGraph
from oddwalk.homset import Hom, LargeVerdict, extend_witness
from oddwalk.parity import is_bipartite, nonbipartite_vertices
from oddwalk.render import tower_to_json_rows


def test_default_schedule_values():
    sched = unbounded_schedule_default()
    assert [sched(n) for n in range(5)] == [1, 1, 3, 5, 7]
    assert sched(0) == 1
    assert sched(3) == 5
    values = [sched(n) for n in range(65)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_parse_schedule():
    assert parse_schedule("default")(4) == 7
    assert parse_schedule(" default ")(0) == 1
    listed = parse_schedule("1,3")
    assert listed(0) == 1 and listed(1) == 3
    with pytest.raises(ParseError):
        listed(2)
    with pytest.raises(ParseError):
        parse_schedule("oops")
    with pytest.raises(ParseError):
        parse_schedule("1,-3")
    assert parse_schedule(" 1 , 3")(1) == 3
    # int() would read these as 10, 2 and the Arabic-Indic 3
    for text in ("1_0", "1,+2", "\u0663", "1,,3"):
        with pytest.raises(ParseError):
            parse_schedule(text)


def test_decide_bipartite_square():
    col = decide(cycle_graph(4), 3)
    assert isinstance(col, Coloring)
    g = cycle_graph(4)
    assert col.covers(g) and col.is_proper(g)
    assert col.colors_used <= 2


def test_decide_five_cycle_depth_one():
    g = cycle_graph(5)
    t = decide(g, 1, schedule=lambda n: 1)
    assert isinstance(t, Tower)
    # the 5-cycle's least odd closed walk at c0 has length 5, join length 3
    assert t.prefix == (3,)
    assert oracles.tower_levels(t)[0] == Hom(("c0",), ())
    assert verify_tower(t, g).ok


def test_decide_triangle_explicit_schedule():
    g = complete_graph(3)
    t = decide(g, 2, schedule=lambda n: 2 * n + 1)
    assert t.prefix == (1, 3)
    assert t.schedule_values == (1, 3)
    assert verify_tower(t, g).ok


def test_decide_triangle_default_schedule():
    # the default bounds are 1, 1 and the triangle never needs more
    g = complete_graph(3)
    t = decide(g, 2)
    assert t.prefix == (1, 1)
    assert verify_tower(t, g).ok


def test_decide_root_is_least_odd_walk_vertex():
    g = disjoint_union(cycle_graph(4), complete_graph(3))
    t = decide(g, 1)
    root = oracles.tower_levels(t)[0]
    assert root == Hom(("b:k0",), ())
    assert root.vertex_images[0] == min(nonbipartite_vertices(g))


def test_decide_depth_zero_tower():
    g = complete_graph(3)
    t = decide(g, 0)
    assert t.prefix == () and oracles.tower_levels(t) == (t.top,)
    assert verify_tower(t, g).ok


def test_decide_argument_validation():
    g = complete_graph(3)
    with pytest.raises(ParseError):
        decide(g, -1)
    with pytest.raises(ParseError):
        decide(g, "2")
    with pytest.raises(ParseError):
        decide(g, 1, schedule=lambda n: -2)
    with pytest.raises(ParseError):
        decide(g, 1, schedule=lambda n: "1")
    # bools are ints to Python, but neither a depth nor a schedule value
    for depth in (True, False):
        with pytest.raises(ParseError, match="depth must be a natural number"):
            decide(g, depth)
        with pytest.raises(ParseError, match="depth must be a natural number"):
            decide(cycle_graph(4), depth)
    with pytest.raises(ParseError, match=r"schedule\(0\) must be a natural number"):
        decide(g, 2, schedule=lambda n: True)
    with pytest.raises(ParseError, match=r"schedule\(1\) must be a natural number"):
        decide(g, 2, schedule=lambda n: 1 if n == 0 else False)


def test_branch_matches_bipartiteness():
    for g in all_graphs_upto(4):
        result = decide(g, 0)
        assert isinstance(result, Coloring) == is_bipartite(g)
        assert isinstance(result, Tower) == (not is_bipartite(g))
    rng = random.Random(70)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), 0.3)
        result = decide(g, 0)
        assert isinstance(result, Coloring) == is_bipartite(g)


def test_evaluate_root_and_levels():
    g = complete_graph(3)
    t = decide(g, 2, schedule=lambda n: 2 * n + 1)
    assert evaluate(t, 0, 0, ()) == "k0"
    levels = oracles.tower_levels(t)
    # appending a bit while raising the level never changes the value
    for n in range(t.depth):
        for pos, v in enumerate(oracles.gadget_vertices_from_root(t.prefix[:n])):
            m = n - len(v.t)
            base = evaluate(t, m, v.k, v.t)
            assert base == levels[n].vertex_images[pos]
            for bit in (0, 1):
                assert evaluate(t, m, v.k, v.t + (bit,)) == base


def test_evaluate_errors():
    t = decide(complete_graph(3), 2, schedule=lambda n: 2 * n + 1)
    with pytest.raises(InvalidIndex):
        evaluate(t, -1, 0, ())
    with pytest.raises(InvalidIndex):
        evaluate(t, 0, -1, ())
    with pytest.raises(InvalidIndex):
        evaluate(t, 0, 1, ())
    with pytest.raises(InvalidIndex):
        evaluate(t, 1, 2, ())  # c(0) = 1
    with pytest.raises(OutOfTruncation):
        evaluate(t, 3, 0, ())
    with pytest.raises(OutOfTruncation):
        evaluate(t, 2, 1, (0,))  # level 3 beyond depth 2
    with pytest.raises(ParseError):
        evaluate(t, 0, 0, (2,))
    # index checks win over the level bound
    with pytest.raises(InvalidIndex):
        evaluate(t, 0, 5, (0, 0, 0, 0))
    with pytest.raises(OutOfTruncation):
        evaluate(t, 3, 99, ())


def _c5_root_profile():
    return bruteforce.pin(bruteforce.all_homs(build_gadget(()), cycle_graph(5)), Hom(("c0",), ()))


# every public count, index or length takes an int >= 0 that is not a bool;
# each site raises its own class and message for True and for 1.0
_NATURAL_SITES = {
    "decide": (lambda v: decide(cycle_graph(5), v), ParseError,
               "depth must be a natural number"),
    "evaluate m": (lambda v: evaluate(decide(cycle_graph(5), 2), v, 0, ()),
                   InvalidIndex, "m and k must be nonnegative"),
    "evaluate k": (lambda v: evaluate(decide(cycle_graph(5), 2), 1, v, ()),
                   InvalidIndex, "m and k must be nonnegative"),
    "extend_witness": (lambda v: extend_witness(_c5_root_profile(), v),
                       ParseError, "bound must be a natural number"),
    "double": (lambda v: bruteforce.double(_c5_root_profile(), v), ParseError,
               "join length must be an integer >= 1"),
    "enumerate_homs": (lambda v: _c5_root_profile().enumerate_homs(v),
                       ParseError, "cap must be a natural number"),
    "phi_holds": (lambda v: parity.phi_holds(cycle_graph(5), ["c0"], v),
                  ParseError, "k must be a natural number"),
    "plan_equivalence": (lambda v: plan_equivalence((1,), (1,), v), ParseError,
                         "depth must be a natural number"),
    # a memo hit on length 1 must not answer for True or 1.0
    "exact_walk": (lambda v: [parity.exact_walk(g, "c0", "c1", n)
                              for g in [cycle_graph(5)] for n in (1, v)],
                   ParseError, "walk length must be nonnegative"),
}


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("site", sorted(_NATURAL_SITES))
def test_counts_reject_bools_and_floats(site, value):
    call, exc, message = _NATURAL_SITES[site]
    with pytest.raises(exc, match=message):
        call(value)


def test_verify_tower_detects_incoherent_pin():
    # the triangle's level 1 is k0 k1 k2 k0; swapping k0 and k1 in its copy
    # 1 (the last position) keeps a homomorphism once the join's last edge
    # takes the k2-k1 witness, but copy 1 no longer restricts to level 0
    g = complete_graph(3)
    t = decide(g, 1)
    assert t.top == Hom(("k0", "k1", "k2", "k0"), ("w0", "w2", "w1"))
    bad = t._replace(top=Hom(("k0", "k1", "k2", "k1"),
                             ("w0", "w2", "w2")))
    assert verify_tower(t, g) == TowerReport(checks=4, violations=())
    assert verify_tower(bad, g) == TowerReport(checks=4, violations=(
        "coherence broken at level 1, copy 1, vertex p0: 'k1' vs 'k0'",))


def test_verify_tower_detects_bipartite_target():
    fake = Tower((), Hom(("c0",), ()), ())
    assert verify_tower(fake, cycle_graph(4)) == TowerReport(checks=2, violations=(
        "level 0: largeness precondition fails, images 'c0' lie in "
        "2-colorable components",))


def test_verify_tower_detects_schedule_and_shape_problems():
    g = complete_graph(3)
    t = decide(g, 1, schedule=lambda n: 1)
    below = t._replace(schedule_values=(3,))
    assert verify_tower(below, g) == TowerReport(checks=4, violations=(
        "c(0) = 1 below schedule bound 3",))
    # an even c(0) = 2 over the same top: the top's shape is that of c = 1
    even = t._replace(prefix=(2,))
    assert verify_tower(even, g) == TowerReport(checks=2, violations=(
        "c(0) = 2 is not odd", "level 1: wrong assignment shape"))

    # a top one image short, one witness short, or a lower level
    t = decide(g, 2)
    top = t.top
    for bad_top in (Hom(top.vertex_images[:-1], top.witness_images),
                    Hom(top.vertex_images, top.witness_images[:-1]),
                    oracles.tower_levels(t)[1]):
        bad = t._replace(top=bad_top)
        assert verify_tower(bad, g) == TowerReport(checks=3, violations=(
            "level 2: wrong assignment shape",))


def test_verify_tower_detects_invalid_top():
    # c2 for c0, the first image of the 5-cycle's top: its first edge's witness
    # no longer joins its images, and copy 1 no longer restricts to level 0
    g = cycle_graph(5)
    t = decide(g, 1)
    top = t.top
    assert top.vertex_images[:2] == ("c0", "c1")
    bad = t._replace(top=Hom(("c2",) + top.vertex_images[1:],
                             top.witness_images))
    assert verify_tower(bad, g) == TowerReport(checks=4, violations=(
        "level 1: edge p0.0--p0: witness 'w0' joins ('c0', 'c1'), "
        "images are ('c1', 'c2')",
        "coherence broken at level 1, copy 1, vertex p0: 'c0' vs 'c2'"))


def test_verify_tower_counts_checks():
    g = complete_graph(3)
    t = decide(g, 2)
    report = verify_tower(t, g)
    assert report.ok and report.checks > 0 and report.violations == ()
    assert report.to_json_dict()["ok"] is True


def tower_rows_json(t) -> dict:
    """The tower JSON the CLI writes for t, parsed back."""
    return json.loads("".join(cli._json(tower_to_json_rows(t))))


def test_tower_json_shape():
    t = decide(complete_graph(3), 1, schedule=lambda n: 1)
    d = tower_rows_json(t)
    assert d["c"] == [1]
    assert d["schedule"] == [1]
    assert d["levels"][0]["vertexAssignments"] == {"p0": "k0"}
    assert set(d["levels"][1]["vertexAssignments"]) == {"p0.0", "p0", "p1", "p0.1"}


def _odd_multigraph(rng):
    """An odd cycle with chords, some witnesses doubled or tripled."""
    n = rng.choice((3, 5, 7))
    names = [f"m{i}" for i in range(n)]
    pairs = [(names[i], names[i - 1]) for i in range(n)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2))]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 4))]
    return WitnessedGraph.make(names, pairs)


def _decide_corpus(rng):
    graphs = []
    for i in range(16):
        graphs.append(rng.choice((
            random_bipartite_graph(rng, rng.randint(1, 10), 0.4),
            cycle_graph(2 * rng.randint(1, 6)),
            path_graph(rng.randint(1, 6)))))
        graphs.append(cycle_graph(2 * (i % 6) + 3))
        graphs.append(rng.choice((_odd_multigraph(rng),
                                  random_graph(rng, rng.randint(3, 8), 0.5, multi=0.5))))
        odd = rng.choice((cycle_graph(rng.choice((3, 5, 7))), _odd_multigraph(rng)))
        bip = random_bipartite_graph(rng, rng.randint(1, 8), 0.5, tag="u")
        # the bipartite part sorts first half of the time, so the root is
        # not the least vertex
        graphs.append(disjoint_union(bip, odd) if i % 2 else disjoint_union(odd, bip))
    return graphs


def test_decide_matches_profile_composition(tmp_path):
    rng = random.Random(83)
    graphs = _decide_corpus(rng)
    assert len(graphs) >= 60
    for i, g in enumerate(graphs):
        depth = rng.randint(0, 6)
        spec = "default"
        if depth and rng.random() < 0.5:
            spec = ",".join(str(rng.randint(0, 7)) for _ in range(depth))
        want = oracles.decide_via_profiles(g, depth, parse_schedule(spec))
        got = decide(g, depth, parse_schedule(spec))
        assert oracles.levels_form(got) == want
        if isinstance(want, Coloring):
            body = {"formatVersion": 1, "coloring": want.to_json_dict()}
        else:
            assert verify_tower(got, g).ok
            body = {"formatVersion": 1, "tower": oracles.tower_json_via_gadgets(got),
                    "verified": True}
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(g.to_json_dict()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["dichotomy", "--graph", str(path), "--depth", str(depth),
                             "--schedule", spec])
        assert code == 0
        assert out.getvalue() == json.dumps(body, indent=2, sort_keys=True) + "\n"


def test_decide_computes_target_facts_once(monkeypatch):
    # one parity BFS classifies the target (one component) and one, from
    # the glue vertex, gives both its odd girth and every closed walk there,
    # whatever the walk lengths
    for g in (cycle_graph(5), petersen_graph()):
        calls = []
        monkeypatch.setattr(
            parity, "parity_distances",
            lambda g, sources, f=parity.parity_distances:
                calls.append(sources) or f(g, sources))
        t = decide(g, 8)
        monkeypatch.undo()
        assert len(calls) == 2
        assert all(len(sources) == 1 for sources in calls)
        assert 1 < len(set(t.prefix)) < len(t.prefix)
        assert oracles.levels_form(t) == oracles.decide_via_profiles(g, 8)


def test_decide_sweeps_only_the_root(monkeypatch):
    # a triangle with a doubled and a tripled witness, beside a pendant
    multi = WitnessedGraph.make(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("c", "d"),
         ("b", "c"), ("b", "c")])
    for g, depth in ((cycle_graph(5), 6), (petersen_graph(), 5), (multi, 6)):
        calls = []
        monkeypatch.setattr(kernels, "path_propagate",
                            lambda *a, f=kernels.path_propagate: calls.append(1) or f(*a))
        monkeypatch.setattr(bruteforce, "double", lambda *a: pytest.fail("double called"))
        got = decide(g, depth)
        monkeypatch.undo()
        # every level, the root included, is pinned straight from its
        # homomorphism: the kernel never runs
        assert calls == []
        assert oracles.levels_form(got) == oracles.decide_via_profiles(g, depth)
        assert verify_tower(got, g).ok

    # extend_witness still tests both copy restrictions against p's masks:
    # a witness outside p, at a vertex or only at a parallel witness, is
    # glued without complaint and then refused
    c5 = cycle_graph(5)
    p = bruteforce.pin(bruteforce.all_homs(build_gadget(()), c5), Hom(("c0",), ()))
    _, level1 = extend_witness(p, 1)
    p1 = bruteforce.pin(bruteforce.all_homs(build_gadget((3,)), c5), level1)
    triangle = bruteforce.pin(bruteforce.all_homs(build_gadget((1,)), multi),
                              Hom(("a", "b", "c", "a"), ("w0", "w1", "w2")))
    for q, outside in ((p, Hom(("c1",), ())),
                       (p1, Hom(level1.vertex_images[::-1], level1.witness_images[::-1])),
                       (triangle, Hom(("a", "b", "c", "a"), ("w3", "w1", "w2")))):
        assert not bruteforce.member(q, outside)
        with monkeypatch.context() as m:
            m.setattr(homset, "is_large", lambda _, h=outside: LargeVerdict(True, h))
            with pytest.raises(OddwalkError, match="outside the doubled profile"):
                extend_witness(q, 1)
        extend_witness(q, 1)


def test_decide_materializes_no_gadget():
    c5 = cycle_graph(5)
    want = oracles.decide_via_profiles(c5, 6)
    t = decide(c5, 6)
    assert oracles.levels_form(t) == want
    assert tower_rows_json(t)["c"] == list(want[0])


def test_verify_tower_materializes_nothing():
    for g, depth in ((cycle_graph(5), 6), (petersen_graph(), 5)):
        t = decide(g, depth)
        assert verify_tower(t, g).ok
        # a fault is named by closed form too
        moved = Hom(t.top.vertex_images, t.top.witness_images[::-1])
        assert not verify_tower(t._replace(top=moved), g).ok


def test_verify_tower_checks_witness_coherence():
    # a parallel a-b witness: level 2 with w3 for w0 on its last edge is
    # still a homomorphism, but its copy 1 no longer restricts to level 1
    g = WitnessedGraph.make("abc", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")])
    t = decide(g, 2)
    top = t.top
    assert top.witness_images[-1] == "w0"
    swapped = Hom(top.vertex_images, top.witness_images[:-1] + ("w3",))
    bad = t._replace(top=swapped)
    assert verify_tower(t, g) == TowerReport(checks=12, violations=())
    assert verify_tower(bad, g) == TowerReport(checks=12, violations=(
        "coherence broken at level 2, copy 1, edge p0.0--p0: 'w3' vs 'w0'",))


def test_tower_labels_by_recurrence_match_gadgets():
    for level in range(6):
        for prefix in itertools.product((1, 3, 5), repeat=level):
            size = build_gadget(prefix).vertex_count
            # images name their top position, so a label at the wrong
            # place or a level read off the wrong part of the top shows
            t = Tower(prefix, Hom(tuple(f"v{i}" for i in range(size)),
                                  tuple(f"w{j}" for j in range(size - 1))),
                      prefix)
            assert tower_rows_json(t) == oracles.tower_json_via_gadgets(t)
