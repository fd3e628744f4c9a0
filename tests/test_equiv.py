import itertools
import json
import random
import subprocess
import sys

import pytest

import oracles
from oddwalk import cli
from oddwalk.bruteforce import search_hom
from oddwalk.equiv import (_first_join, path_exact_walk, path_walk_exists,
                           plan_equivalence, verify_equivalence)
from oddwalk.errors import (GapInsufficient, NonOddPrefix, ParseError,
                            UnknownVertex)
from oddwalk.gadget import GadgetVertex, build_gadget
from oddwalk.generators import random_odd_prefix
from oddwalk.render import equivalence_to_json_rows


def test_path_walk_exists_parity_rule():
    assert path_walk_exists(0, 0)
    assert not path_walk_exists(0, 1)
    assert path_walk_exists(0, 2)
    assert path_walk_exists(1, 1)
    assert not path_walk_exists(1, 2)
    assert not path_walk_exists(2, 1)
    assert path_walk_exists(3, 5)
    assert not path_walk_exists(3, 4)
    assert not path_walk_exists(5, 3)


def test_path_exact_walk_examples():
    # steps down before up whenever both keep the walk feasible
    assert path_exact_walk(4, 0, 3, 5) == [0, 1, 0, 1, 2, 3]
    assert path_exact_walk(3, 0, 0, 2) == [0, 1, 0]
    assert path_exact_walk(5, 2, 2, 2) == [2, 1, 2]
    assert path_exact_walk(2, 0, 1, 3) == [0, 1, 0, 1]
    with pytest.raises(ParseError):
        path_exact_walk(4, 0, 3, 4)
    with pytest.raises(ParseError):
        path_exact_walk(2, 0, 1, 0)


def test_identity_towers():
    for c in [(1,), (3, 5), (1, 3, 5)]:
        t = plan_equivalence(c, c, len(c))
        assert t.depth == len(c)
        assert t.level_map == tuple(range(len(c) + 1))
        assert all(pair == ((0,), (1,)) for pair in t.suffixes)
        for n in range(len(c) + 1):
            assert t.maps[n] == tuple(range(build_gadget(c[:n]).vertex_count))
        assert verify_equivalence(t).ok


def test_identity_tower_partial_depth():
    t = plan_equivalence((1, 3, 5, 7), (1, 3, 5, 7), 3)
    assert t.level_map == (0, 1, 2, 3)
    assert verify_equivalence(t).ok


def test_planner_across_prefixes():
    t = plan_equivalence((3, 5), (1, 3, 5, 7), 2)
    assert t.level_map[0] == 0
    assert all(a <= b for a, b in zip(t.level_map, t.level_map[1:]))
    report = verify_equivalence(t)
    assert report.ok and report.checks > 0
    d = json.loads("".join(cli._json(equivalence_to_json_rows(t))))
    assert d["c"] == [3, 5] and d["d"] == [1, 3, 5, 7]
    assert set(d) == {"c", "d", "levelMap", "suffixes", "joinWalks", "maps"}


def test_verifier_detects_corruption():
    t = plan_equivalence((1, 3), (1, 3), 2)

    swapped = t._replace(suffixes=(((0,), (0,)), t.suffixes[1]))
    report = verify_equivalence(swapped)
    assert not report.ok
    assert any("coherence broken" in v for v in report.violations)

    stretched = t._replace(suffixes=(((0, 0), (1, 1)), t.suffixes[1]))
    report = verify_equivalence(stretched)
    assert any("suffix lengths" in v for v in report.violations)

    walk = t.join_walks[0]
    jumpy = t._replace(
        join_walks=((walk[0], walk[0] + 2) + walk[2:], t.join_walks[1]))
    report = verify_equivalence(jumpy)
    assert any("not a walk" in v for v in report.violations)

    truncated = t._replace(maps=t.maps[:2])
    assert verify_equivalence(truncated).violations == \
        ("inconsistent field lengths",)


def test_verifier_names_join_walk_endpoints_off_the_maps():
    t = plan_equivalence((1, 3), (1, 3, 5, 7), 2)
    assert t.join_walks[0] == (0, 1, 2, 3) and verify_equivalence(t).ok
    # each stop is still a walk step inside the target level, and the inner
    # stops carry p0 and p1, but the first (last) stop is not the copy-0
    # (copy-1) gluing image
    for walk in ((2, 1, 2, 3), (0, 1, 2, 1)):
        bad = t._replace(join_walks=(walk,) + t.join_walks[1:])
        assert verify_equivalence(bad).violations == (
            "level 0: join walk endpoints disagree with the maps",)


def test_verifier_names_a_decreasing_level_map():
    # a step down also puts an image outside its target level and fails the
    # suffix lengths, but the root fault is the level map itself
    t = plan_equivalence((1, 3), (1, 3, 5, 7), 2)
    report = verify_equivalence(t._replace(level_map=(0, 2, 1)))
    assert report.violations[0] == "level map must be nondecreasing"


def test_gap_insufficient():
    # join length 3, but the only endpoint pair distances in the target
    # are 0 (wrong parity) and 11 (too far)
    with pytest.raises(GapInsufficient):
        plan_equivalence((1,), (9,), 1)


def test_plan_validation():
    with pytest.raises(ParseError):
        plan_equivalence((1, 3), (1, 3), 3)
    with pytest.raises(ParseError):
        plan_equivalence((1,), (1,), -1)
    with pytest.raises(NonOddPrefix):
        plan_equivalence((2,), (1,), 1)
    with pytest.raises(NonOddPrefix):
        plan_equivalence((1,), (2,), 1)


# the search's gadgets as vertex lists, replayed by the oracle
_H1 = oracles.gadget_vertices_from_root((1,))
_G13 = oracles.gadget_vertices_from_root((1, 3))


def test_search_hom_least():
    h = build_gadget((1,))
    g = build_gadget((1, 3))
    got = search_hom(h, g)
    # zigzag over the first edge of the target path
    assert got == (_G13[0], _G13[1], _G13[0], _G13[1])


def test_search_hom_single_vertex():
    g = build_gadget((1, 3))
    assert search_hom(build_gadget(()), g) == (_G13[0],)


def test_search_hom_parity_blocked():
    h = build_gadget((1,))
    g = build_gadget((1, 3))
    e0, e1 = _H1[0], _H1[-1]
    # distance 2 with walk length 3: wrong parity
    assert search_hom(h, g, {e0: _G13[0], e1: _G13[2]}) is None


def test_search_hom_honors_constraints():
    h = build_gadget((1,))
    g = build_gadget((1, 3))
    e0, e1 = _H1[0], _H1[-1]
    got = search_hom(h, g, {e1: _G13[3]})
    assert got is not None and got[-1] == _G13[3]
    positions = [_G13.index(img) for img in got]
    assert all(abs(a - b) == 1 for a, b in zip(positions, positions[1:]))


def test_search_hom_agrees_with_parity_rule():
    for h in [build_gadget((1,)), build_gadget((3,))]:
        g = build_gadget((1, 3))
        hv = oracles.gadget_vertices_from_root(h.prefix)
        e0, e1 = hv[0], hv[-1]
        length = h.edge_count
        for i, j in itertools.product(range(g.vertex_count), repeat=2):
            got = search_hom(h, g, {e0: _G13[i], e1: _G13[j]})
            assert (got is not None) == path_walk_exists(abs(i - j), length)
            if got is not None:
                assert got[0] == _G13[i] and got[-1] == _G13[j]


def test_search_hom_level_eight_is_a_walk():
    # 1,276 positions: deeper than the interpreter's recursion limit
    g = build_gadget((3,) * 8)
    got = search_hom(g, g)
    assert len(got) == g.vertex_count
    position = oracles.gadget_positions_from_root(g.prefix)
    positions = [position[img] for img in got]
    assert all(abs(a - b) == 1 for a, b in zip(positions, positions[1:]))


def test_search_hom_unknown_vertices():
    h = build_gadget((1,))
    g = build_gadget((1, 3))
    with pytest.raises(UnknownVertex):
        search_hom(h, g, {_G13[0]: _G13[0]})  # two bits deep
    with pytest.raises(UnknownVertex):
        search_hom(h, g, {_H1[0]: GadgetVertex(9, ())})


def test_random_planner_successes_verify():
    rng = random.Random(90)
    planned = 0
    for _ in range(40):
        c = random_odd_prefix(rng, rng.randint(1, 2), high=5)
        d = random_odd_prefix(rng, rng.randint(1, 3), high=7)
        depth = rng.randint(0, len(c))
        try:
            t = plan_equivalence(c, d, depth)
        except GapInsufficient:
            continue
        planned += 1
        assert verify_equivalence(t).ok
        assert_rows_match_dict(t, oracles.equiv_json_via_gadgets(t))
    assert planned > 0


def assert_rows_match_dict(t, want):
    """The JsonRows the CLI writes for t are json.dumps of the oracle
    dict want, byte for byte."""
    assert "".join(cli._json(equivalence_to_json_rows(t))) == json.dumps(
        want, indent=2, sort_keys=True)


def _check_against_built_gadgets(t):
    """Re-check a tower's maps and join walks on materialized gadgets:
    every image position names a target vertex, and each copy's image is
    its parent's image vertex with the suffix appended, looked up by label."""
    c, d = t.source_prefix, t.target_prefix
    targets = [oracles.gadget_vertices_from_root(d[:m]) for m in t.level_map]
    target_positions = [oracles.gadget_positions_from_root(d[:m])
                        for m in t.level_map]
    for n, images in enumerate(t.maps):
        assert len(images) == build_gadget(c[:n]).vertex_count
        assert all(0 <= p < len(targets[n]) for p in images)
        assert all(abs(p - q) == 1 for p, q in zip(images, images[1:]))
    for n, walk in enumerate(t.join_walks):
        small = oracles.gadget_positions_from_root(c[:n])
        big = oracles.gadget_positions_from_root(c[:n + 1])
        s0, s1 = t.suffixes[n]
        for v, pos in small.items():
            img = targets[n][t.maps[n][pos]]
            for bit, suffix in ((0, s0), (1, s1)):
                lifted = GadgetVertex(img.k, img.t + suffix)
                assert (t.maps[n + 1][big[v.append(bit)]]
                        == target_positions[n + 1][lifted])
        for k in range(c[n] + 1):
            assert t.maps[n + 1][big[GadgetVertex(k, ())]] == walk[k + 1]


def test_planner_and_verifier_build_no_gadget():
    cases = [((1, 3, 5), (1, 3, 5, 7), 3), ((3, 5), (1, 1, 1, 3, 5), 2),
             ((3, 3, 3, 3, 3), (1, 3, 1, 3, 1, 1, 1), 5), ((5, 7), (1,), None)]
    for c, d, depth in cases:
        if depth is None:
            with pytest.raises(GapInsufficient):
                plan_equivalence(c, d, len(c))
            continue
        t = plan_equivalence(c, d, depth)
        report = verify_equivalence(t)
        assert report.ok and report.checks > 0
        _check_against_built_gadgets(t)
        assert_rows_match_dict(t, oracles.equiv_json_via_gadgets(t))


def test_suffixes_that_last_differ_at_level_j_sit_d_j_plus_two_apart():
    # the planner's join distance, by brute force on built gadgets: two
    # suffixes of a level-L vertex that last differ at target level j put
    # its images at least d[j] + 2 apart, at exactly their distance at level
    # j + 1, and equal suffixes put them together
    for d in itertools.product((1, 3, 5), repeat=4):
        gadgets = [oracles.gadget_positions_from_root(d[:m]) for m in range(len(d) + 1)]
        for level in range(len(d)):
            for v in gadgets[level]:
                for slen in range(1, len(d) - level + 1):
                    top = gadgets[level + slen]
                    for s0, s1 in itertools.product(
                            itertools.product((0, 1), repeat=slen), repeat=2):
                        a0 = top[GadgetVertex(v.k, v.t + s0)]
                        a1 = top[GadgetVertex(v.k, v.t + s1)]
                        if s0 == s1:
                            assert a0 == a1
                            continue
                        last = max(i for i in range(slen) if s0[i] != s1[i])
                        j = level + last
                        assert abs(a0 - a1) >= d[j] + 2
                        cut = gadgets[j + 1]
                        assert abs(a0 - a1) == abs(
                            cut[GadgetVertex(v.k, v.t + s0[:last + 1])]
                            - cut[GadgetVertex(v.k, v.t + s1[:last + 1])])


def test_a_position_far_from_both_ends_stays_far_under_every_suffix():
    # the planner's frontier, by brute force on built gadgets: a level-L
    # vertex more than K from both ends of the path is more than K from both
    # ends at every level above, whatever copy bits are appended
    for d in itertools.product((1, 3, 5), repeat=4):
        gadgets = [oracles.gadget_positions_from_root(d[:m]) for m in range(len(d) + 1)]
        for level in range(len(d)):
            last = len(gadgets[level]) - 1
            for v, p in gadgets[level].items():
                for slen in range(1, len(d) - level + 1):
                    top = gadgets[level + slen]
                    for s in itertools.product((0, 1), repeat=slen):
                        q = top[GadgetVertex(v.k, v.t + s)]
                        for k in range(1, 10):
                            if min(p, last - p) > k:
                                assert min(q, len(top) - 1 - q) > k


def test_only_a_position_and_its_own_mirror_join_first():
    # the lemma behind _first_join, by an unpruned brute force on built
    # gadgets: from every start level and gluing vertex, for every odd join
    # length 3-33, the first target level where any two suffixes put the
    # image at a joining distance has exactly one such pair, the two
    # extensions of one suffix, and _first_join returns it
    rng = random.Random(15)
    joins = misses = 0
    for _ in range(80):
        d = tuple(rng.randrange(1, 14, 2) for _ in range(rng.randint(1, 4)))
        gadgets = [oracles.gadget_positions_from_root(d[:m]) for m in range(len(d) + 1)]
        target = build_gadget(d)
        for start in range(len(d)):
            for glue, v in enumerate(gadgets[start]):
                levels = []
                for level in range(start + 1, len(d) + 1):
                    top = gadgets[level]
                    images = {s: top[GadgetVertex(v.k, v.t + s)]
                              for s in itertools.product(
                                  (0, 1), repeat=level - start)}
                    levels.append((level, images, [
                        (abs(images[s0] - images[s1]), s0, s1)
                        for s0, s1 in itertools.combinations(sorted(images), 2)]))
                for length in range(3, 34, 2):
                    want = None
                    for mm, images, pairs in levels:
                        joined = [(s0, s1) for dist, s0, s1 in pairs
                                  if path_walk_exists(dist, length)]
                        if joined:
                            [(s0, s1)] = joined
                            assert s0 == s1[:-1] + (0,) and s1[-1] == 1
                            want = (mm, s0, s1, images[s0], images[s1])
                            break
                    joins += want is not None
                    misses += want is None
                    assert _first_join(target, glue, start, length) == want
    assert joins > 10000 and misses > 10000


def test_planner_matches_the_vertex_planner_on_random_plans():
    # short target prefixes, then longer ones under wider source joins
    for seed, count, c_high, d_len, least in ((12, 500, (3, 7), 5, 100),
                                              (13, 1500, (5, 11), 8, 300)):
        rng = random.Random(seed)
        planned = gaps = 0
        for _ in range(count):
            c = random_odd_prefix(rng, rng.randint(1, 4), high=rng.choice(c_high))
            d = random_odd_prefix(rng, rng.randint(0, d_len), high=rng.choice((3, 9)))
            depth = rng.randint(0, len(c))
            try:
                want = oracles.plan_equivalence_via_vertices(c, d, depth)
            except GapInsufficient as exc:
                with pytest.raises(GapInsufficient) as got:
                    plan_equivalence(c, d, depth)
                assert str(got.value) == str(exc)
                gaps += 1
                continue
            t = plan_equivalence(c, d, depth)
            planned += 1
            assert_rows_match_dict(t, oracles.equiv_json_via_vertices(want))
            assert_rows_match_dict(t, oracles.equiv_json_via_gadgets(t))
            assert (t.source_prefix, t.target_prefix, t.level_map, t.suffixes,
                    t.join_walks) == (want.source_prefix, want.target_prefix,
                                      want.level_map, want.suffixes, want.join_walks)
            report = verify_equivalence(t)
            assert report.ok
            assert report == oracles.verify_equivalence_via_vertices(want)
        assert planned >= least and gaps >= least


def test_verifier_rejects_positions_the_vertex_form_could_not_hold():
    t = plan_equivalence((1, 3), (1, 3), 2)
    # a copy bit other than 0/1 would still lift a position by the mirror
    two = t._replace(suffixes=(((0,), (2,)), t.suffixes[1]))
    assert "level 0: suffixes must be copy bits" in verify_equivalence(two).violations
    # a level map past the target prefix
    deep = plan_equivalence((1, 3), (1, 3, 5), 2)
    beyond = deep._replace(target_prefix=(1, 3)[:1] + (3,),
                           level_map=(0, 1, 3))
    assert ("level map must stay within the target prefix"
            in verify_equivalence(beyond).violations)
    # positions off the target path, and a non-int position
    for img in (-1, 12, 1.0, True, GadgetVertex(0, ())):
        top = (img,) + t.maps[2][1:]
        report = verify_equivalence(t._replace(maps=t.maps[:2] + (top,)))
        assert f"level 2: image {img!r} not in target gadget" in report.violations
    # an off-by-one image is named by label
    moved = list(t.maps[1])
    moved[1] += 1
    report = verify_equivalence(t._replace(maps=(t.maps[0], tuple(moved), t.maps[2])))
    assert report.violations == (
        "level 1, edge 0: images p0.0, p1 not adjacent",
        "level 1, edge 1: images p1, p1 not adjacent",
        "level 0: join vertex p0 off the recorded walk",
        "coherence broken at level 2, copy 0, vertex p0: p0.0 vs p1.0",
        "coherence broken at level 2, copy 1, vertex p0: p0.1 vs p1.1")


@pytest.mark.parametrize("c, d, depth, reason", [
    # levels 0 and 1 land at target levels 1 and 2; past that every d[j]
    # exceeds c[2] = 3, so no later level can join
    ("3,3,3", ",".join(str(v) for v in range(1, 80, 2)), 3,
     "cannot absorb level 2 (join length 5 from image p0.01)"),
    # here later levels have d[j] <= c[1] = 5, but the gluing image never
    # comes within a join of 7 of a mirrored copy of itself
    ("3,5", "9,1,7,3,7,3,1,5,5,9,5,1", 2,
     "cannot absorb level 1 (join length 7 from image p0.11)"),
    ("3,5", "9,1,7,3,7,3,1,5,5,9,5,1,5,1", 2,
     "cannot absorb level 1 (join length 7 from image p0.11)"),
], ids=["3,3,3", "3,5-d12", "3,5-d14"])
def test_cli_gives_up_on_a_long_target_prefix_at_once(c, d, depth, reason):
    proc = subprocess.run(
        [sys.executable, "-m", "oddwalk.cli", "equiv", "--c", c,
         "--d", d, "--depth", str(depth)], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["planned"] is False
    assert data["reason"].endswith(reason)
