import itertools
import random
import re
import time

import pytest

import oracles
from oddwalk import bruteforce
from oddwalk.bruteforce import check_odd_distance_lemma, sibling_pairs
from oddwalk.dichotomy import decide
from oddwalk.errors import (NonOddPrefix, ParseError, PrefixMismatch,
                            UnknownVertex)
from oddwalk.gadget import (GadgetVertex, PathGadget, births, build_gadget,
                            check_next_level, check_prefix, endpoint_label,
                            endpoints, gadget_distance, gadget_size, labels,
                            parse_prefix, vertex_at, vertex_position)
from oddwalk.generators import complete_graph, cycle_graph, petersen_graph
from oddwalk.limitgraph import level_quotient


def test_base_gadget_is_single_vertex():
    g = build_gadget(())
    assert g.vertex_count == 1 and g.edge_count == 0
    assert g.vertex_at(0).label == "p0"
    assert endpoints(g) == (g.vertex_at(0), g.vertex_at(0))


def test_level_one_path():
    g = build_gadget((1,))
    assert [g.vertex_at(i).label for i in range(4)] == ["p0.0", "p0", "p1", "p0.1"]
    assert labels((1,)) == ["p0.0", "p0", "p1", "p0.1"]
    assert g.vertex_count == 4 and g.edge_count == 3


def test_sizes_for_one_three_five():
    g = build_gadget((1, 3, 5))
    assert g.vertex_count == 30 and g.edge_count == 29


def test_size_recursion_random_prefixes():
    rng = random.Random(10)
    for _ in range(25):
        prefix = tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 10)))
        vexp, eexp = 1, 0
        for c in prefix:
            vexp, eexp = 2 * vexp + c + 1, 2 * eexp + c + 2
        g = build_gadget(prefix)
        assert g.vertex_count == vexp and g.edge_count == eexp
        assert g.edge_count == g.vertex_count - 1


def test_endpoint_labels():
    assert endpoint_label(0, 0) == GadgetVertex(0, ())
    assert endpoint_label(1, 1) == GadgetVertex(0, (1,))
    g = build_gadget((1, 3))
    assert endpoints(g) == (GadgetVertex(0, (0, 0)), GadgetVertex(0, (0, 1)))
    rng = random.Random(11)
    for _ in range(10):
        prefix = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 6)))
        g = build_gadget(prefix)
        n = len(prefix)
        assert endpoints(g) == (endpoint_label(n, 0), endpoint_label(n, 1))


def test_label_constraints_hold_everywhere():
    prefix = (2, 1, 4)
    g = build_gadget(prefix)
    for v in oracles.gadget_vertices_from_root(prefix):
        g.require_vertex(v)
        m = g.level - len(v.t)
        if m == 0:
            assert v.k == 0
        else:
            assert 0 <= v.k <= prefix[m - 1]
        assert all(b in (0, 1) for b in v.t)


# the copy embeddings of a gadget into the next level, as positions
# (copy_position): copy `bit` of v is v with the bit appended

def test_copy_embed_base_to_level_one():
    big = build_gadget((1,))
    assert big.vertex_at(big.copy_position(0, 0, (0,))) == GadgetVertex(0, (0,))
    assert big.vertex_at(big.copy_position(0, 0, (1,))) == GadgetVertex(0, (1,))


def test_copy_embed_composition_appends_bits_in_order():
    g2 = build_gadget((1, 3))
    first = g2.copy_position(0, 0, (0,))
    second = g2.copy_position(first, 1, (1,))
    assert second == g2.copy_position(0, 0, (0, 1))
    assert g2.vertex_at(second) == GadgetVertex(0, (0, 1))


def test_copy_embed_images_miss_exactly_the_join():
    small, big = build_gadget((1,)), build_gadget((1, 3))
    images = {big.copy_position(i, small.level, (bit,))
              for i in range(small.vertex_count) for bit in (0, 1)}
    missed = [big.vertex_at(p) for p in range(big.vertex_count) if p not in images]
    assert len(missed) == 3 + 1
    assert all(not v.t for v in missed)
    assert sorted(v.k for v in missed) == [0, 1, 2, 3]


def test_copy_embed_prefix_mismatch():
    with pytest.raises(PrefixMismatch):
        check_next_level(build_gadget((1,)), build_gadget((3, 1)), 0)
    with pytest.raises(PrefixMismatch):
        check_next_level(build_gadget((1,)), build_gadget((1, 3, 5)), 0)
    with pytest.raises(ParseError):
        check_next_level(build_gadget((1,)), build_gadget((1, 3)), 2)


def test_gadget_distance():
    g1 = build_gadget((1,))
    assert gadget_distance(g1, GadgetVertex(0, (0,)), GadgetVertex(0, (1,))) == 3
    assert gadget_distance(g1, GadgetVertex(1, ()), GadgetVertex(1, ())) == 0
    g2 = build_gadget((1, 3))
    assert gadget_distance(g2, *endpoints(g2)) == 11
    with pytest.raises(UnknownVertex):
        gadget_distance(g1, GadgetVertex(5, ()), GadgetVertex(0, ()))


def test_odd_distance_lemma_level_one():
    report = check_odd_distance_lemma(build_gadget((1,)))
    assert report.ok and report.pairs_checked == 1


def test_odd_distance_lemma_level_two():
    g = build_gadget((1, 3))
    report = check_odd_distance_lemma(g)
    assert report.ok
    # one sibling pair per vertex of the previous level
    assert report.pairs_checked == build_gadget((1,)).vertex_count


def test_odd_distance_lemma_rejects_even_prefix():
    with pytest.raises(NonOddPrefix):
        check_odd_distance_lemma(build_gadget((2,)))


def test_sibling_pairs_are_present_pairs():
    g = build_gadget((3, 1))
    position = oracles.gadget_positions_from_root(g.prefix)
    for a, b in sibling_pairs(g):
        assert a.t[-1] == 0 and b.t[-1] == 1
        assert a.t[:-1] == b.t[:-1] and a.k == b.k
        assert a in position and b in position


def test_prefix_parsing():
    assert parse_prefix("1,3,5") == (1, 3, 5)
    assert parse_prefix("") == ()
    assert parse_prefix(" 7 ") == (7,)
    with pytest.raises(ParseError):
        parse_prefix("1,x")
    with pytest.raises(ParseError):
        parse_prefix("0")
    # checked in bulk, yet the first fault is named; bools and floats are
    # refused
    for prefix, fault in [((1, 0), "0"), ((True,), "True"), ((3, True, 0), "True"),
                          ((1, 2.0), "2.0"), ((5, -1, 0), "-1"), (("1",), "'1'")]:
        with pytest.raises(ParseError, match=f"got {re.escape(fault)}$"):
            check_prefix(prefix)
    assert check_prefix(iter([1, 3])) == (1, 3) and check_prefix([]) == ()
    assert parse_prefix(" 1, 3 ,5") == (1, 3, 5)
    # int() would read these as 10, 3 and the Arabic-Indic 3
    for text in ("1_0", "+3", "\u0663", "1,,3", "1, 3 5"):
        with pytest.raises(ParseError):
            parse_prefix(text)


def test_vertex_labels_round_trip():
    assert GadgetVertex.from_label("p2") == GadgetVertex(2, ())
    assert GadgetVertex.from_label("p0.011") == GadgetVertex(0, (0, 1, 1))
    assert GadgetVertex(1, (1, 0)).label == "p1.10"
    assert str(GadgetVertex(4, ())) == "p4"
    with pytest.raises(ParseError):
        GadgetVertex.from_label("q1")
    with pytest.raises(ParseError):
        GadgetVertex.from_label("p0.21")


def test_vertex_contract():
    # a named tuple that keeps the frozen dataclass's repr, order and hash
    v = GadgetVertex(2, (0, 1))
    assert repr(v) == "GadgetVertex(k=2, t=(0, 1))"
    assert repr(GadgetVertex(0)) == "GadgetVertex(k=0, t=())"
    assert (v.k, v.t) == (2, (0, 1)) and v == (2, (0, 1))
    g = build_gadget((1, 2, 3))
    vertices = [g.vertex_at(i) for i in range(g.vertex_count)]
    for u in vertices:
        assert type(u) is GadgetVertex
        assert hash(u) == hash((u.k, u.t))
        assert GadgetVertex.from_label(u.label) == u
        assert GadgetVertex.from_label(f"  {u.label}\n") == u
    assert sorted(vertices) == sorted(vertices, key=lambda u: (u.k, u.t))
    assert GadgetVertex(1, (1,)) < GadgetVertex(2, ()) < GadgetVertex(2, (0,))


@pytest.mark.parametrize("text", [
    "p1_0", "p+1", "p 1", "p01", "p\u0663", "p0.", "p1.", "p", "p.01",
    "p1.0_1", "p1. 01", "p1.\uff10", "p\uff11", "q1", "p-1", "P1",
])
def test_vertex_labels_must_be_canonical(text):
    # int() would read p1_0 as p10, p+1 and p01 as p1, and an Arabic-Indic
    # or fullwidth digit as its value
    with pytest.raises(ParseError):
        GadgetVertex.from_label(text)


def _assert_matches_replay(prefix):
    g = build_gadget(prefix)
    want = oracles.gadget_vertices_from_root(prefix)
    assert bruteforce.gadget_vertices(prefix) == want
    assert all(type(v) is GadgetVertex for v in bruteforce.gadget_vertices(prefix))
    assert bruteforce.gadget_positions(prefix) == {v: i for i, v in enumerate(want)}
    assert labels(prefix) == [v.label for v in want]
    # births: each vertex's birth level and join index, as its text, made
    # once per vertex born, and its copy bits
    made = []
    rows = list(births(prefix, lambda m, k: made.append((m, k)) or (m, k)))
    n = len(prefix)
    assert rows == [((n - len(v.t), v.k), "".join(map(str, v.t))) for v in want]
    assert sorted(made) == sorted({text for text, _ in rows})


def test_doubled_builds_match_replay_from_root():
    for level in range(6):
        for prefix in itertools.product((1, 2, 3, 5), repeat=level):
            _assert_matches_replay(prefix)
    for g in (complete_graph(3), cycle_graph(5), petersen_graph()):
        prefix = decide(g, 8).prefix
        for n in range(len(prefix), -1, -1):
            _assert_matches_replay(prefix[:n])


def test_gadgets_equal_and_hash_by_prefix():
    for prefix in ((), (1,), (1, 3), (3, 1, 5)):
        a, b = build_gadget(prefix), build_gadget(list(prefix))
        assert a is not b and a == b and hash(a) == hash(b)
        assert labels(prefix) == labels(list(prefix))
        assert level_quotient(prefix) == level_quotient(prefix)
    assert build_gadget((1, 3)) != build_gadget((3, 1))
    assert build_gadget((1,)) != (1,)


def test_traversal_order_copy_join_copy():
    c = 3
    small = oracles.gadget_vertices_from_root((1,))
    big = labels((1, c))
    k = len(small)
    # copy 0 first, in order; then the join; then copy 1 reversed
    assert big[:k] == [v.append(0).label for v in small]
    assert big[k:k + c + 1] == ["p0", "p1", "p2", "p3"]
    assert big[k + c + 1:] == [
        v.append(1).label for v in reversed(small)]


def _assert_closed_forms_match(prefix):
    g = build_gadget(prefix)
    vertices = oracles.gadget_vertices_from_root(prefix)
    position = oracles.gadget_positions_from_root(prefix)
    assert gadget_size(prefix) == len(vertices)
    assert labels(prefix) == [v.label for v in vertices]
    for v in vertices:
        assert vertex_position(prefix, v) == g.require_vertex(v) == position[v]
    for i in range(g.vertex_count):
        assert vertex_at(prefix, i) == g.vertex_at(i) == vertices[i]


def test_closed_forms_match_built_gadgets_exhaustive():
    # every prefix over {1, 2, 3, 5} up to level 5; even values are legal
    # gadget parameters, so they are covered too
    for level in range(6):
        for prefix in itertools.product((1, 2, 3, 5), repeat=level):
            _assert_closed_forms_match(prefix)


def test_closed_forms_match_built_gadgets_sampled():
    # levels 6 and 7 hold 20k prefixes and 11M vertices, far too many to
    # check in full; a seeded sample of each level is checked instead
    rng = random.Random(21)
    for level in (6, 7):
        for _ in range(40):
            _assert_closed_forms_match(
                tuple(rng.choice((1, 2, 3, 5)) for _ in range(level)))


@pytest.mark.parametrize("prefix, v", [
    ((1, 3), GadgetVertex(4, ())),         # k above c(m-1)
    ((1, 3), GadgetVertex(2, (0,))),       # k above c(0) = 1
    ((1, 3), GadgetVertex(0, (0, 0, 1))),  # more bits than levels
    ((1, 3), GadgetVertex(-1, (1,))),      # negative k
    ((1, 3), GadgetVertex(1, (0, 1))),     # birth level 0 needs k = 0
    ((), GadgetVertex(1, ())),
    ((2,), GadgetVertex(0, (2,))),         # not a copy bit
])
def test_vertex_position_rejects_unknown_labels(prefix, v):
    with pytest.raises(UnknownVertex) as want:
        build_gadget(prefix).require_vertex(v)
    with pytest.raises(UnknownVertex) as got:
        vertex_position(prefix, v)
    assert str(got.value) == str(want.value)


def test_vertex_at_rejects_positions_off_the_path():
    for pos in (-1, 4, 2.0, True):
        with pytest.raises(UnknownVertex):
            vertex_at((1,), pos)
        with pytest.raises(UnknownVertex):
            build_gadget((1,)).vertex_at(pos)
    with pytest.raises(ParseError):
        vertex_position((0,), GadgetVertex(0, ()))


def test_closed_forms_at_level_60_build_nothing():
    prefix = (1, 3, 5) * 20
    sizes = [1]
    for c in prefix:
        sizes.append(2 * sizes[-1] + c + 1)
    # the right endpoint sits last; a join vertex born at level m followed by
    # copy-0 bits keeps its birth position V(m-1) + k
    assert vertex_position(prefix, endpoint_label(60, 1)) == sizes[60] - 1
    v = GadgetVertex(2, (0,) * 30)
    assert vertex_position(prefix, v) == sizes[29] + 2
    # the gadget itself answers sizes and lookups from the same closed forms
    g = build_gadget(prefix)
    assert (g.level, g.vertex_count, g.edge_count) == (60, sizes[60], sizes[60] - 1)
    assert g.odd_prefix
    assert g.require_vertex(v) == sizes[29] + 2 and g.vertex_at(sizes[29] + 2) == v
    assert g.level - len(g.vertex_at(sizes[29] + 2).t) == 30
    with pytest.raises(UnknownVertex, match="not in the level-60 gadget"):
        g.require_vertex(GadgetVertex(0, (0,) * 61))
    start = time.perf_counter()
    for i in (0, 1, sizes[59], sizes[59] + 5, sizes[60] - 1, 12345678901234567):
        assert vertex_position(prefix, vertex_at(prefix, i)) == i
    assert time.perf_counter() - start < 0.05


def test_copy_position_matches_appended_labels():
    # every level-L vertex, lifted by every bit string to the top, lands where
    # the built top gadget puts the vertex with those bits appended, and one
    # affine map per bit string (copy_map) puts every position there
    for prefix in [(1,), (3, 1), (1, 3, 5), (5, 1, 1, 3)]:
        top = build_gadget(prefix)
        position = oracles.gadget_positions_from_root(prefix)
        for level in range(len(prefix) + 1):
            small = oracles.gadget_vertices_from_root(prefix[:level])
            for bits in itertools.product((0, 1), repeat=len(prefix) - level):
                sign, offset = top.copy_map(level, bits)
                assert sign in (1, -1)
                for pos, v in enumerate(small):
                    lifted = GadgetVertex(v.k, v.t + bits)
                    assert top.copy_position(pos, level, bits) == position[lifted]
                    assert sign * pos + offset == position[lifted]
    # no bits leave a position where it is
    assert build_gadget((1, 3)).copy_position(5, 1, ()) == 5
    assert build_gadget((1, 3)).copy_map(1, ()) == (1, 0)


def test_gadget_keeps_no_vertex_list():
    # a gadget is its prefix and sizes; the vertex lists live with the
    # independent checkers, and a label list is made by labels(prefix)
    assert PathGadget.__slots__ == ("prefix", "sizes")
    assert not hasattr(PathGadget, "labels")
    assert not hasattr(PathGadget, "vertices")
    assert not hasattr(PathGadget, "position")
    g = build_gadget((1, 3))
    assert not hasattr(g, "vertices") and not hasattr(g, "position")
