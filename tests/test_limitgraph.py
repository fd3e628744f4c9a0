import json
import random
import time

import pytest

import oracles
from oddwalk import bruteforce, gadget, limitgraph
from oddwalk.cli import _dumps
from oddwalk.errors import (InvalidVertex, LevelOutOfRange, NonOddPrefix,
                            ParseError, UnknownVertex)
from oddwalk.gadget import (GadgetVertex, build_gadget, gadget_distance,
                            vertex_position)
from oddwalk.generators import random_ep_bits, random_odd_prefix
from oddwalk.limitgraph import (EP_ZERO, EpBits, LcVertex, adjacent,
                                level_quotient, neighbors,
                                odd_sibling_obstruction, project_level,
                                same_component, validate_vertex)
from oddwalk.render import quotient_to_json_rows


def v(m, k, pre=(), per=(0,)):
    return LcVertex(m, k, EpBits(pre, per))


def test_epbits_canonical_forms():
    assert EpBits((0,), (0,)) == EP_ZERO
    assert EpBits((), (0, 1, 0, 1)) == EpBits((), (0, 1))
    assert EpBits((1, 0), (0,)) == EpBits((1,), (0,))
    # absorbing a shared last bit rotates the period
    assert EpBits((1,), (0, 1)) == EpBits((), (1, 0))
    assert str(EP_ZERO) == "(0)"
    assert str(EpBits((1,), (0,))) == "1(0)"


def test_epbits_validation():
    with pytest.raises(ParseError):
        EpBits((0,), ())
    with pytest.raises(ParseError):
        EpBits((2,), (0,))
    with pytest.raises(ParseError):
        EpBits.from_strings("01", "x")


def test_epbits_bit_take_shift():
    x = EpBits((0, 1), (1, 0))
    assert x.take(6) == (0, 1, 1, 0, 1, 0)
    assert [x.bit(i) for i in range(5)] == [0, 1, 1, 0, 1]
    assert x.shift(1) == EpBits((1,), (1, 0))
    assert x.shift(2) == EpBits((), (1, 0))
    assert x.shift(3) == EpBits((), (0, 1))
    # shifting by a whole period past the prefix is the identity
    assert x.shift(4) == x.shift(2)
    with pytest.raises(ParseError):
        x.bit(-1)
    with pytest.raises(ParseError):
        x.shift(-1)


def test_epbits_prepend_first_one():
    assert EP_ZERO.prepend((1,)) == EpBits((1,), (0,))
    assert EP_ZERO.first_one() is None
    assert EpBits((0, 1), (0,)).first_one() == 1
    assert EpBits((), (0, 0, 1)).first_one() == 2
    assert EpBits.constant(1).first_one() == 0


def test_lc_vertex_parsing():
    zero = LcVertex.from_text("0:0::0")
    assert zero == v(0, 0)
    parsed = LcVertex.from_text("1:2:01:10")
    assert parsed == v(1, 2, (0, 1), (1, 0))
    assert LcVertex.from_json_dict(parsed.to_json_dict()) == parsed
    with pytest.raises(ParseError):
        LcVertex.from_text("1:2:01")
    with pytest.raises(ParseError):
        LcVertex.from_text("a:0::0")
    with pytest.raises(ParseError):
        LcVertex.from_json_dict({"m": 0, "k": 0})


@pytest.mark.parametrize("m, k", [
    (1.9, 0), (1, "0"), (True, 0), (1, False), (1.0, 0), (None, 0),
])
def test_lc_vertex_from_json_takes_integers_only(m, k):
    # int() would read 1.9 as 1, "0" as 0 and true as 1
    with pytest.raises(ParseError):
        LcVertex.from_json_dict({"m": m, "k": k, "x": {"period": "0"}})
    assert LcVertex.from_json_dict({"m": 1, "k": 0, "x": {"period": "0"}}) == v(1, 0)


@pytest.mark.parametrize("text", [
    "1_0:0::0", "+1:0::0", " 1:0::0", "1:0 ::0", "01_:0::0", "\u0661:0::0",
    "1:\uff10::0", "0:0::\uff11", "0:0:\u0660:1", "0:0::1_0",
])
def test_lc_vertex_parsing_takes_ascii_digits_only(text):
    # int() would read 1_0 as 10, +1 and " 1" as 1, and other scripts'
    # digits by their value
    with pytest.raises(ParseError):
        LcVertex.from_text(text)


def test_validate_vertex():
    prefix = (1, 3)
    validate_vertex(v(0, 0), prefix)
    validate_vertex(v(2, 3), prefix)  # k may equal c(m-1)
    for bad in [v(-1, 0), v(0, -1), v(0, 1), v(3, 0), v(2, 4),
                v(1.5, 0), v(True, 0)]:
        with pytest.raises(InvalidVertex):
            validate_vertex(bad, prefix)


# each site with a join index k at birth level 2 of the prefix (1, 3), where
# the range test 0 <= k <= c(1) = 3 alone passes 1.5 and True
_JOIN_INDEX_SITES = {
    "require_vertex": (UnknownVertex, lambda k: build_gadget((1, 3))
                       .require_vertex(GadgetVertex(k, ()))),
    "vertex_position": (UnknownVertex,
                        lambda k: vertex_position((1, 3), GadgetVertex(k, ()))),
    "class_of": (InvalidVertex, lambda k: level_quotient((1, 3)).class_of(v(2, k))),
    "adjacent": (InvalidVertex, lambda k: adjacent(v(2, k), v(2, 2), (1, 3))),
    "neighbors": (InvalidVertex, lambda k: neighbors(v(2, k), (1, 3))),
}


@pytest.mark.parametrize("k", [1.5, True])
@pytest.mark.parametrize("site", sorted(_JOIN_INDEX_SITES))
def test_join_index_must_be_an_int(site, k):
    error, call = _JOIN_INDEX_SITES[site]
    with pytest.raises(error):
        call(k)


def test_project_level_examples():
    assert project_level(v(0, 0), 2, (1, 3)) == GadgetVertex(0, (0, 0))
    assert project_level(v(1, 0), 1, (1,)) == GadgetVertex(0, ())
    # (01)-periodic continuation contributes bits 0, 1 at levels 3, 4
    assert project_level(v(2, 3, (), (0, 1)), 4, (1, 3, 5, 7)) == \
        GadgetVertex(3, (0, 1))
    with pytest.raises(LevelOutOfRange):
        project_level(v(2, 3), 1, (1, 3))
    with pytest.raises(LevelOutOfRange):
        project_level(v(0, 0), 3, (1, 3))


def test_adjacent_examples():
    assert adjacent(v(0, 0), v(1, 0), (1,))
    # two birth-0 vertices are never adjacent; their level-1 projections
    # already sit at distance 3
    assert not adjacent(v(0, 0), v(0, 0, (1,)), (1,))
    g = build_gadget((1,))
    assert gadget_distance(g, GadgetVertex(0, (0,)), GadgetVertex(0, (1,))) == 3
    assert adjacent(v(0, 0, (1,)), v(1, 1), (1,))


def test_adjacent_checks_its_prefix_once(monkeypatch):
    calls = []
    check = gadget.check_prefix

    def counted(prefix):
        calls.append(prefix)
        return check(prefix)

    monkeypatch.setattr(gadget, "check_prefix", counted)
    monkeypatch.setattr(limitgraph, "check_prefix", counted)
    prefix = (1, 3, 5) * 5 + (1,)
    x = EpBits((0, 1), (1, 0))
    assert adjacent(LcVertex(16, 0, x), LcVertex(16, 1, x), prefix)
    assert len(calls) == 1


def test_adjacent_needs_matching_tails():
    # projections touch at level 1 but the continuations disagree afterwards
    assert not adjacent(v(0, 0, (0, 1)), v(1, 0), (1, 3))
    assert adjacent(v(0, 0), v(1, 0), (1, 3))


def test_neighbors_of_zero_vertex():
    for prefix in [(1,), (1, 3), (3, 5, 7)]:
        assert neighbors(v(0, 0), prefix) == (v(1, 0),)


def test_neighbors_examples():
    got = neighbors(v(1, 0), (1,))
    assert len(got) == 2
    assert v(0, 0) in got
    assert got == (v(0, 0), v(1, 1))

    # continuation 0 1 0 0 ... attaches at level 1 and at level 3
    got = neighbors(v(0, 0, (0, 1)), (1, 3, 5))
    assert got == (v(1, 0, (1,)), v(3, 0))


def test_neighbors_consistent_with_adjacent():
    rng = random.Random(80)
    prefix = (1, 3, 5, 1, 3, 5, 1)
    pool = []
    for m in range(0, 3):
        kmax = 0 if m == 0 else prefix[m - 1]
        for k in range(kmax + 1):
            for x in [EP_ZERO, EpBits((), (1,)), EpBits((1,), (0,)),
                      EpBits((0, 1), (0,)), EpBits((), (0, 1))]:
                pool.append(LcVertex(m, k, x))
    for a in pool:
        ns = neighbors(a, prefix)
        for b in ns:
            assert adjacent(a, b, prefix) and adjacent(b, a, prefix)
        # no neighbor with small birth level is missing from the answer
        found = {b for b in pool if adjacent(a, b, prefix)}
        assert found <= set(ns)


def test_adjacent_agrees_with_gadget_construction():
    rng = random.Random(81)
    prefix = (1, 3, 5, 1, 3, 5, 1)
    for _ in range(120):
        pair = []
        for _ in range(2):
            m = rng.randint(0, 2)
            k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
            pair.append(LcVertex(m, k, random_ep_bits(rng, 2, 2)))
        a, b = pair
        want = bruteforce.projections_adjacent_everywhere(a, b, prefix, len(prefix))
        if max(a.m, b.m) == 0:
            want = False
        assert adjacent(a, b, prefix) == want
    # positive cases via the neighbor map
    for _ in range(40):
        m = rng.randint(0, 2)
        k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
        a = LcVertex(m, k, random_ep_bits(rng, 2, 2))
        for b in neighbors(a, prefix):
            assert bruteforce.projections_adjacent_everywhere(a, b, prefix,
                                                              len(prefix))


def test_same_component_examples():
    assert same_component(v(0, 0), v(0, 0, (1,)))
    assert not same_component(v(0, 0), v(0, 0, (), (1,)))
    # equal birth levels force equal head lengths, so the two phases of the
    # alternating sequence never meet; a birth-level gap of one aligns them
    assert not same_component(v(0, 0, (), (0, 1)), v(0, 0, (), (1, 0)))
    assert same_component(v(0, 0, (), (0, 1)), v(1, 0, (), (1, 0)))
    assert not same_component(v(0, 0, (), (0, 1)), v(0, 0))
    assert same_component(v(0, 0), v(2, 1), prefix=(1, 3))


def test_same_component_is_an_equivalence():
    xs = [EP_ZERO, EpBits((), (1,)), EpBits((1,), (0,)), EpBits((), (0, 1)),
          EpBits((0, 0, 1), (0,)), EpBits((1, 1), (0, 1))]
    pool = [LcVertex(m, k, x) for x in xs
            for m, k in [(0, 0), (1, 0), (1, 1), (2, 2)]]
    for a in pool:
        assert same_component(a, a)
        for b in pool:
            assert same_component(a, b) == same_component(b, a)
    for a in pool:
        for b in pool:
            if not same_component(a, b):
                continue
            for c in pool:
                if same_component(b, c):
                    assert same_component(a, c)


def test_adjacency_implies_same_component():
    prefix = (1, 3, 5)
    rng = random.Random(82)
    for _ in range(50):
        m = rng.randint(0, 3)
        k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
        a = LcVertex(m, k, random_ep_bits(rng, 2, 2))
        for b in neighbors(a, prefix):
            assert same_component(a, b, prefix)


def quotient_json(q) -> dict:
    """The quotient's JSON as `lc --quotient` writes it, parsed back."""
    return json.loads(_dumps(quotient_to_json_rows(q)))


def test_level_quotient_sizes():
    assert len(quotient_json(level_quotient(()))["classes"]) == 1
    assert len(quotient_json(level_quotient((1,)))["classes"]) == 4
    q = level_quotient((1, 3))
    d = quotient_json(q)
    assert len(d["classes"]) == 12
    assert d == oracles.quotient_json_dict(q)
    assert d["c"] == [1, 3]
    assert len(d["edges"]) == 11
    assert d["edges"][0] == [0, 1]
    assert d["classes"][0] == {"m": 0, "k": 0, "bits": "00"}


def test_level_quotient_round_trip():
    for prefix in [(1,), (1, 3), (3, 1, 5)]:
        q = level_quotient(prefix)
        for pos in range(len(oracles.quotient_classes(prefix))):
            rep = q.representative(pos)
            assert q.class_of(rep) == pos
            tail = EpBits((1,), (0, 1))
            assert q.class_of(q.representative(pos, tail)) == pos


def test_level_quotient_representative_range():
    q = level_quotient((1,))
    for pos in (-1, len(oracles.quotient_classes(q.prefix)), 2.0, True):
        with pytest.raises(UnknownVertex):
            q.representative(pos)


def test_level_quotient_edges_are_adjacent_pairs():
    prefix = (1, 3)
    q = level_quotient(prefix)
    reps = [q.representative(pos)
            for pos in range(len(oracles.quotient_classes(prefix)))]
    for i in range(len(reps) - 1):
        assert adjacent(reps[i], reps[i + 1], prefix)
    # same-tail representatives two steps apart never touch
    for i in range(len(reps) - 2):
        assert not adjacent(reps[i], reps[i + 2], prefix)


def test_odd_sibling_obstruction_examples():
    ob = odd_sibling_obstruction((1,), 0, ())
    assert (ob.left, ob.right) == (GadgetVertex(0, (0,)), GadgetVertex(0, (1,)))
    assert ob.distance == 3 and ob.odd

    ob = odd_sibling_obstruction((1, 3), 0, (0,))
    assert ob.distance == 11 and ob.odd
    assert ob.to_json_dict() == {"left": "p0.00", "right": "p0.01",
                                 "distance": 11, "odd": True}

    with pytest.raises(NonOddPrefix):
        odd_sibling_obstruction((2,), 0, ())
    with pytest.raises(UnknownVertex):
        odd_sibling_obstruction((1,), 5, ())
    with pytest.raises(UnknownVertex):
        odd_sibling_obstruction((1, 3), 0, (0, 0))


def test_odd_sibling_obstruction_random_prefixes():
    rng = random.Random(83)
    for _ in range(20):
        prefix = random_odd_prefix(rng, rng.randint(1, 5), high=5)
        # pick a random sibling pair present at the top level
        candidates = [gv for gv in oracles.gadget_vertices_from_root(prefix)
                      if gv.t and gv.t[-1] == 0]
        gv = rng.choice(candidates)
        ob = odd_sibling_obstruction(prefix, gv.k, gv.t[:-1])
        assert ob.odd


def test_adjacent_at_birth_level_60_builds_no_gadget():
    prefix = (1, 3, 5) * 20
    x = EpBits((0, 1), (1, 0))
    a = LcVertex(60, 2, x)
    assert adjacent(a, LcVertex(60, 3, x), prefix)
    assert not adjacent(a, LcVertex(60, 4, x), prefix)
    assert not adjacent(a, LcVertex(60, 3, EpBits((1,), (1, 0))), prefix)
    for v in (a, LcVertex(0, 0, EpBits((0,) * 57 + (1, 1), (0,))),
              LcVertex(31, 0, x)):
        for u in neighbors(v, prefix):
            assert adjacent(v, u, prefix) and adjacent(u, v, prefix)
    start = time.perf_counter()
    for _ in range(100):
        adjacent(a, LcVertex(60, 3, x), prefix)
    assert (time.perf_counter() - start) / 100 < 1e-3


def test_sibling_obstruction_at_level_60_builds_no_gadget():
    prefix = (1, 3, 5) * 20
    sizes = [1]
    for c in prefix:
        sizes.append(2 * sizes[-1] + c + 1)
    # (k, 0^j 0) keeps its birth position V(m-1) + k; its sibling
    # (k, 0^j 1) is that position mirrored in the level-60 gadget
    m, k = 42, 3  # c(41) = 5
    ob = odd_sibling_obstruction(prefix, k, (0,) * (59 - m))
    assert ob.distance == sizes[60] - 1 - 2 * (sizes[m - 1] + k)
    assert ob.odd
    with pytest.raises(UnknownVertex, match="p9.00 is not a level-60 vertex"):
        odd_sibling_obstruction(prefix, 9, (0,))


def test_same_component_agrees_with_wide_scan():
    rng = random.Random(84)
    for _ in range(400):
        a = LcVertex(rng.randint(0, 4), 0, random_ep_bits(rng, 4, 6))
        if rng.random() < 0.5:
            # a shared tail behind random heads, so the answer is often True
            x = a.x.shift(rng.randint(0, 5)).prepend(
                rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        else:
            x = random_ep_bits(rng, 4, 6)
        b = LcVertex(rng.randint(0, 4), 0, x)
        assert same_component(a, b) == oracles.same_component_wide_scan(a, b)


def test_same_component_long_coprime_periods_is_fast():
    a = v(0, 0, (), (1,) + (0,) * 400)
    b = v(0, 0, (), (1,) + (0,) * 396)
    start = time.perf_counter()
    assert not same_component(a, b, (1, 3))
    assert same_component(a, v(1, 0, (), (0,) * 400 + (1,)), (1, 3))
    assert time.perf_counter() - start < 0.5
