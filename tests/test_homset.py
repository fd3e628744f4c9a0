import itertools
import json
import random

import pytest

import oracles
from oddwalk import bruteforce, cli, kernels
from oddwalk.bruteforce import (all_homs, double, member, pin,
                                preserve_largeness, restricted)
from oddwalk.dichotomy import decide
from oddwalk.errors import (NotHomomorphism, NotLarge, NotMember, ParseError,
                            PrefixMismatch)
from oddwalk.gadget import GadgetVertex, build_gadget
from oddwalk.generators import (all_graphs_upto, complete_graph, cycle_graph,
                                disjoint_union, path_graph, random_graph,
                                single_edge)
from oddwalk.graphs import WitnessedGraph, Walk
from oddwalk.homset import (ExplicitHomSet, FullProfile, Hom, HomProfile,
                            copy_restriction, edge_label, extend_witness,
                            glue_hom, is_large, is_small, is_tiny,
                            validate_hom)
from oddwalk.parity import exact_walk, nonbipartite_vertices
from oddwalk.render import homs_to_json_rows


def k3():
    return complete_graph(3)


def test_count_base_gadget_is_vertex_count():
    # the one-vertex gadget maps onto each target vertex
    assert all_homs(build_gadget(()), k3()).count() == 3
    assert all_homs(build_gadget(()), cycle_graph(5)).count() == 5


def test_count_level_one_triangle():
    # 24 = 3 starts * 2 choices per step over 3 steps
    p = all_homs(build_gadget((1,)), k3())
    assert p.count() == 24
    assert p.count() == oracles.walk_count(k3(), 3)


def test_empty_profile_on_edgeless_target():
    g = WitnessedGraph.make(["a", "b"], [])
    p = all_homs(build_gadget((1,)), g)
    assert p.is_empty
    assert p.count() == 0
    for u in oracles.gadget_vertices_from_root(p.gadget.prefix):
        assert p.project(u) == ()
    homs, total = p.enumerate_homs(5)
    assert len(homs.homs) == 0 and total == 0


def test_count_level_two_single_edge():
    # the 11-edge path zigzags across the lone edge: 2 walks, one per start
    assert all_homs(build_gadget((1, 3)), single_edge()).count() == 2


def test_project_matches_walk_positions():
    g = cycle_graph(5)
    p = all_homs(build_gadget((1,)), g)
    walks = oracles.vertex_walks(g, 3)
    for j, u in enumerate(oracles.gadget_vertices_from_root(p.gadget.prefix)):
        assert set(p.project(u)) == {w[j] for w in walks}
    assert {w for i, w in enumerate(g.witnesses) if p.wmasks[0] >> i & 1} == set(g.witnesses)


def test_enumerate_is_lex_least():
    p = all_homs(build_gadget((1,)), k3())
    homs, total = p.enumerate_homs(5)
    assert total == 24 and len(homs.homs) == 5
    # least vertex path walks k0-k1-k0-k1; each hop uses the only witness w0
    assert homs.homs[0] == Hom(("k0", "k1", "k0", "k1"), ("w0", "w0", "w0"))
    assert list(homs.homs) == sorted(homs.homs)
    assert all(member(p, h) for h in homs.homs)

    none, total = p.enumerate_homs(0)
    assert len(none.homs) == 0 and total == 24
    # a cap past sys.maxsize takes every member
    assert p.enumerate_homs(10 ** 20) == p.enumerate_homs(24)
    with pytest.raises(ParseError):
        p.enumerate_homs(-1)


def test_enumerate_matches_backtracking_oracle():
    g = k3()
    gadget = build_gadget((1,))
    homs, total = all_homs(gadget, g).enumerate_homs(100)
    want = bruteforce.enumerate_homs_backtracking(gadget, g)
    assert total == len(want) == 24
    assert sorted(homs.homs) == sorted(want)


def test_is_tiny_full_square_profile():
    # every projection is the whole 4-cycle, which has walks of length 1,
    # so no position certifies tininess even though the target is bipartite
    p = all_homs(build_gadget((1,)), cycle_graph(4))
    assert not is_tiny(p)
    assert is_tiny(p).vertex is None


def test_is_tiny_cases():
    assert not is_tiny(all_homs(build_gadget((1,)), k3()))
    empty = all_homs(build_gadget((1,)), WitnessedGraph.make(["a", "b"], []))
    verdict = is_tiny(empty)
    assert verdict.tiny and verdict.vertex == oracles.gadget_vertices_from_root((1,))[0]
    # pinning into the bipartite component makes the projection odd-walk-free
    g = disjoint_union(cycle_graph(4), complete_graph(3))
    pinned = pin(all_homs(build_gadget(()), g), Hom(("a:c0",), ()))
    assert is_tiny(pinned)


def test_is_small_cases():
    assert is_small(bruteforce.explicit_homset(build_gadget(()), cycle_graph(4)))
    assert not is_small(bruteforce.explicit_homset(build_gadget(()), k3()))
    assert is_small(ExplicitHomSet(build_gadget(()), k3(), ()))


def test_square_full_set_is_small_but_not_tiny():
    g = cycle_graph(4)
    s = bruteforce.explicit_homset(build_gadget((1,)), g)
    assert is_small(s)
    assert not is_tiny(s)


def test_smallness_characterization_matches_cover_search():
    rng = random.Random(60)
    targets = [cycle_graph(4), k3(), single_edge(),
               disjoint_union(single_edge(), complete_graph(3))]
    for g in targets:
        for prefix in [(), (1,)]:
            gadget = build_gadget(prefix)
            full = bruteforce.enumerate_homs_backtracking(gadget, g)
            for _ in range(6):
                size = rng.randint(0, min(6, len(full)))
                subset = tuple(sorted(rng.sample(full, size)))
                s = ExplicitHomSet(gadget, g, subset)
                want = bruteforce.small_by_cover_search(s)
                assert is_small(s) == want == oracles.is_small_all_images(s)
                if bruteforce.tiny_by_definition(s):
                    assert want


def test_smallness_ideal_laws():
    # downward closed and closed under finite unions
    rng = random.Random(61)
    g = disjoint_union(single_edge(), complete_graph(3))
    gadget = build_gadget((1,))
    full = bruteforce.enumerate_homs_backtracking(gadget, g)
    smalls = []
    for _ in range(20):
        subset = tuple(sorted(rng.sample(full, rng.randint(0, 8))))
        s = ExplicitHomSet(gadget, g, subset)
        if is_small(s):
            smalls.append(subset)
            sub = tuple(sorted(rng.sample(subset, len(subset) // 2)))
            assert is_small(ExplicitHomSet(gadget, g, sub))
    for i in range(len(smalls) - 1):
        union = tuple(sorted(set(smalls[i]) | set(smalls[i + 1])))
        assert is_small(ExplicitHomSet(gadget, g, union))


def test_is_large_cases():
    verdict = is_large(all_homs(build_gadget(()), k3()))
    assert verdict.large and verdict.witness == Hom(("k0",), ())
    square = is_large(all_homs(build_gadget(()), cycle_graph(4)))
    assert not square.large and square.witness is None


def test_is_large_witness_avoids_bipartite_parts():
    g = disjoint_union(complete_graph(3), cycle_graph(4))
    verdict = is_large(all_homs(build_gadget((1,)), g))
    assert verdict.large
    assert all(img.startswith("a:") for img in verdict.witness.vertex_images)
    assert all(wid.startswith("a:") for wid in verdict.witness.witness_images)


def test_double_full_base_profile():
    p = all_homs(build_gadget(()), k3())
    d1 = double(p, 1)
    assert d1.gadget.prefix == (1,)
    assert d1.count() == all_homs(build_gadget((1,)), k3()).count() == 24


def test_double_pinned_five_cycle():
    g = cycle_graph(5)
    p = pin(all_homs(build_gadget(()), g), Hom(("c0",), ()))
    d3 = double(p, 3)
    # both copies sit at c0, the join walks 5 steps back to c0: one walk
    # per direction around the cycle
    assert d3.count() == 2
    assert d3.count() == oracles.closed_walks_at(g, "c0", 5)


def test_double_of_full_counts_longer_walks():
    for g in [k3(), cycle_graph(5)]:
        p = all_homs(build_gadget((1,)), g)
        d3 = double(p, 3)
        assert d3.gadget.edge_count == 11
        assert d3.count() == oracles.walk_count(g, 11)


def test_double_join_length_validation():
    p = all_homs(build_gadget(()), k3())
    for bad in [0, -1, "3", 1.5]:
        with pytest.raises(ParseError):
            double(p, bad)


def test_layout_slices_match_label_oracles():
    # double, glue_hom and copy_restriction read the copy-0 / join / reversed
    # copy-1 layout; the oracles look every copy parent up by its label
    rng = random.Random(54)
    nonempty = glued = 0
    for _ in range(40):
        g = random_graph(rng, 6, 0.5, multi=0.3)
        for prefix in [(), (1,), (1, 3), (3, 1, 5)]:
            full = all_homs(build_gadget(prefix), g)
            # drop one random vertex from some domains, so copy 1 is not
            # copy 0 read backwards
            p = restricted(
                full,
                [m & ~(1 << rng.randrange(len(g.vertices))) if rng.random() < 0.3
                 else m for m in full.vmasks],
                full.wmasks)
            nonempty += not p.is_empty
            small_homs = p.enumerate_homs(2)[0].homs
            for c in (1, 2, 3):
                big, vmasks, wmasks = oracles.double_masks(p, c)
                want = restricted(all_homs(big, g), vmasks, wmasks)
                got = double(p, c)
                assert got.gadget.prefix == big.prefix
                assert (got.vmasks, got.wmasks) == (want.vmasks, want.wmasks)
                for hom in got.enumerate_homs(3)[0].homs:
                    for bit in (0, 1):
                        r = copy_restriction(big, p.gadget, hom, bit)
                        assert (r.vertex_images, r.witness_images) == \
                            oracles.restriction_images(big, p.gadget, hom, bit)
                for phi0 in small_homs:
                    glue = phi0.vertex_images[-1]
                    walk = exact_walk(g, glue, glue, c + 2)
                    if walk is None:
                        continue
                    glued += 1
                    hom = glue_hom(p, phi0, c, walk)
                    assert (hom.vertex_images, hom.witness_images) == \
                        oracles.glue_images(p.gadget, phi0, c, walk)
    assert nonempty > 100 and glued > 100
    for n in (3, 5, 7):
        g = cycle_graph(n)
        t = decide(g, 5)
        levels = oracles.tower_levels(t)
        for level in range(5):
            small = build_gadget(t.prefix[:level])
            big = build_gadget(t.prefix[:level + 1])
            phi0, hom = levels[level], levels[level + 1]
            for bit in (0, 1):
                assert copy_restriction(big, small, hom, bit) == phi0
                assert oracles.restriction_images(big, small, hom, bit) == \
                    (phi0.vertex_images, phi0.witness_images)
            glue = phi0.vertex_images[-1]
            walk = exact_walk(g, glue, glue, t.prefix[level] + 2)
            p = pin(all_homs(small, g), phi0)
            assert glue_hom(p, phi0, t.prefix[level], walk) == hom
            assert oracles.glue_images(small, phi0, t.prefix[level], walk) == \
                (hom.vertex_images, hom.witness_images)
            big, vmasks, wmasks = oracles.double_masks(p, t.prefix[level])
            want = restricted(all_homs(big, g), vmasks, wmasks)
            got = double(p, t.prefix[level])
            assert (got.vmasks, got.wmasks) == (want.vmasks, want.wmasks)


def test_copy_restriction_rejects_foreign_levels():
    small = build_gadget((1,))
    hom = Hom((), ())  # rejected before any image is read
    with pytest.raises(ParseError):
        copy_restriction(build_gadget((1, 1)), small, hom, 2)
    with pytest.raises(PrefixMismatch):
        copy_restriction(build_gadget((3, 1)), small, hom, 0)
    with pytest.raises(PrefixMismatch):
        copy_restriction(build_gadget((1, 1, 1)), small, hom, 0)


def test_pin_round_trip():
    p = all_homs(build_gadget((1,)), k3())
    homs, _ = p.enumerate_homs(2)
    first, second = homs.homs
    pinned = pin(p, first)
    assert pinned.count() == 1
    only, total = pinned.enumerate_homs(2)
    assert total == 1 and only.homs == (first,)
    for j, u in enumerate(oracles.gadget_vertices_from_root(p.gadget.prefix)):
        assert pinned.project(u) == (first.vertex_images[j],)
    with pytest.raises(NotMember):
        pin(pinned, second)


def test_pin_rejects_foreign_hom():
    p = all_homs(build_gadget(()), k3())
    with pytest.raises(NotMember):
        pin(p, Hom(("c0",), ()))


def test_extend_witness_on_triangle():
    p = all_homs(build_gadget(()), k3())
    d, hom = extend_witness(p, 1)
    # odd girth 3 at k0 gives join length max(1, 3 - 2) = 1; the join is
    # laid along the least closed 3-walk k0-k1-k2-k0
    assert d == 1
    assert hom == Hom(("k0", "k1", "k2", "k0"), ("w0", "w2", "w1"))
    big = build_gadget((1,))
    validate_hom(big, k3(), hom)
    assert member(double(p, d), hom)
    phi0 = is_large(p).witness
    assert copy_restriction(big, p.gadget, hom, 0) == phi0
    assert copy_restriction(big, p.gadget, hom, 1) == phi0


def test_extend_witness_join_lengths():
    g = cycle_graph(5)
    p = pin(all_homs(build_gadget(()), g), Hom(("c0",), ()))
    d, hom = extend_witness(p, 1)
    # the shortest odd closed walk in the 5-cycle has length 5
    assert d == 3
    assert member(double(p, 3), hom)

    d, _ = extend_witness(all_homs(build_gadget(()), k3()), 4)
    # the bound 4 is even, so the join length rounds up to 5
    assert d == 5


def test_extend_witness_errors():
    with pytest.raises(NotLarge):
        extend_witness(all_homs(build_gadget(()), cycle_graph(4)), 1)
    p = all_homs(build_gadget(()), k3())
    for bad in [-1, "1", 1.0]:
        with pytest.raises(ParseError):
            extend_witness(p, bad)


def test_preserve_largeness_values():
    assert preserve_largeness(all_homs(build_gadget(()), k3()), 1) == 1
    assert preserve_largeness(all_homs(build_gadget(()), cycle_graph(5)), 1) == 3
    with pytest.raises(NotLarge):
        preserve_largeness(all_homs(build_gadget(()), cycle_graph(4)), 1)


def test_preserve_largeness_doubled_profile_is_large():
    p = all_homs(build_gadget(()), k3())
    d = preserve_largeness(p, 1)
    assert is_large(double(p, d))


def test_glue_hom_validation():
    g = k3()
    p = all_homs(build_gadget(()), g)
    phi0 = Hom(("k0",), ())
    good = Walk(("k0", "k1", "k2", "k0"), ("w0", "w2", "w1"))
    with pytest.raises(ParseError):
        glue_hom(p, phi0, 3, good)  # walk length must be join length + 2
    shifted = Walk(("k1", "k2", "k0", "k1"), ("w2", "w1", "w0"))
    with pytest.raises(ParseError):
        glue_hom(p, phi0, 1, shifted)  # not closed at the gluing image


def test_validate_hom_errors():
    g = k3()
    gadget = build_gadget((1,))
    good = Hom(("k0", "k1", "k0", "k1"), ("w0", "w0", "w0"))
    validate_hom(gadget, g, good)
    with pytest.raises(NotHomomorphism):
        validate_hom(gadget, g, Hom(("k0", "k1", "k0"), ("w0", "w0", "w0")))
    with pytest.raises(NotHomomorphism):
        validate_hom(gadget, g, Hom(("k0", "k1", "k0", "k1"), ("w0", "w0")))
    with pytest.raises(NotHomomorphism):
        validate_hom(gadget, g, Hom(("k0", "k1", "k0", "zz"), ("w0", "w0", "w0")))
    with pytest.raises(NotHomomorphism):
        validate_hom(gadget, g, Hom(("k0", "k1", "k0", "k1"), ("w0", "w0", "zz")))
    with pytest.raises(NotHomomorphism):
        # w1 joins k0-k2, not k0-k1
        validate_hom(gadget, g, Hom(("k0", "k1", "k0", "k1"), ("w0", "w1", "w0")))


def _validation_outcome(check, gadget, target, hom):
    try:
        check(gadget, target, hom)
    except NotHomomorphism as exc:
        return type(exc), str(exc)
    return None


def test_validate_hom_matches_per_edge_oracle():
    rng = random.Random(81)
    multi = WitnessedGraph.make(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("c", "d"), ("b", "c")])
    cases = [(k3(), ()), (k3(), (1,)), (k3(), (1, 3)), (cycle_graph(5), (3, 1)),
             (multi, ()), (multi, (1,)), (multi, (2, 1)), (path_graph(3), (1, 1))]
    tried = 0
    for g, prefix in cases:
        gadget = build_gadget(prefix)
        members, _ = all_homs(gadget, g).enumerate_homs(60)
        assert members.homs
        for hom in members.homs:
            validate_hom(gadget, g, hom)
            oracles.validate_hom_per_edge(gadget, g, hom)
        for hom in rng.sample(members.homs, min(8, len(members.homs))):
            vimgs, wimgs = hom.vertex_images, hom.witness_images
            i = rng.randrange(len(vimgs))
            bad = [Hom(vimgs[:i] + ("zz",) + vimgs[i + 1:], wimgs),
                   Hom(vimgs, wimgs[::-1])]
            if wimgs:
                j = rng.randrange(len(wimgs))
                pair = g.ends[wimgs[j]]
                wrong = [w for w in g.witnesses if g.ends[w] != pair]
                bad.append(Hom(vimgs, wimgs[:j] + ("zz",) + wimgs[j + 1:]))
                bad.append(Hom(vimgs, wimgs[:j] + (rng.choice(wrong),) + wimgs[j + 1:]))
            for corrupt in bad:
                want = _validation_outcome(oracles.validate_hom_per_edge, gadget, g, corrupt)
                assert _validation_outcome(validate_hom, gadget, g, corrupt) == want
                tried += want is not None
    # every corruption but a reversal of a palindromic witness tuple is caught
    assert tried > 100


def test_explicit_homset_rejects_duplicates():
    g = k3()
    gadget = build_gadget(())
    hom = Hom(("k0",), ())
    with pytest.raises(ParseError):
        ExplicitHomSet(gadget, g, (hom, hom))
    with pytest.raises(NotHomomorphism):
        ExplicitHomSet(gadget, g, (Hom(("zz",), ()),))


def test_profile_json_shape():
    p = all_homs(build_gadget((1,)), k3())
    assert p.gadget.prefix == (1,)
    assert set(p.gadget.labels) == {"p0.0", "p0", "p1", "p0.1"}
    assert [w for i, w in enumerate(p.target.witnesses)
            if p.wmasks[0] >> i & 1] == ["w0", "w1", "w2"]
    assert edge_label(p.gadget, 0) == "p0.0--p0"
    h = Hom(("k0", "k1", "k0", "k1"), ("w0", "w0", "w0"))
    hd = json.loads("".join(cli._json(homs_to_json_rows(p.gadget, [h]))))[0]
    assert hd == oracles.hom_json_dict(p.gadget.prefix, h)
    assert hd["vertexAssignments"]["p0"] == "k1"
    assert hd["witnessAssignments"]["p0--p1"] == "w0"


def test_profile_agrees_with_enumeration_on_small_graphs():
    prefixes = [(), (1,), (1, 1), (1, 1, 1)]
    rng = random.Random(62)
    # bipartite parts listed before the odd cycles, so the least member
    # of the full profile is not a largeness witness
    mixed = [disjoint_union(cycle_graph(4), complete_graph(3)),
             disjoint_union(path_graph(2), cycle_graph(5))]
    mixed += [mixed_multigraph(rng) for _ in range(6)]
    for g in list(all_graphs_upto(3)) + mixed:
        for prefix in prefixes:
            gadget = build_gadget(prefix)
            p = all_homs(gadget, g)
            total = p.count()
            assert total == oracles.walk_count(g, gadget.edge_count)
            if total > 3000:
                continue
            explicit = bruteforce.explicit_homset(gadget, g)
            assert total == len(explicit.homs)
            for u in oracles.gadget_vertices_from_root(prefix):
                assert p.project(u) == explicit.project(u)
            assert is_tiny(p).tiny == bruteforce.tiny_by_definition(explicit)
            nb = nonbipartite_vertices(g)
            large_by_scan = any(all(v in nb for v in h.vertex_images)
                                for h in explicit.homs)
            assert is_large(p).large == large_by_scan
            # the witness is the least large member, as the first member
            # the nb-restricted profile enumerates
            witness = is_large(p).witness
            if large_by_scan:
                assert witness == min(h for h in explicit.homs
                                      if all(v in nb for v in h.vertex_images))
                nbmask = sum(1 << g.vertex_index(v) for v in nb)
                cut = restricted(p, [m & nbmask for m in p.vmasks], p.wmasks)
                assert witness == cut.enumerate_homs(1)[0].homs[0]
            else:
                assert witness is None


def test_count_matches_explicit_members():
    # the count of full, narrowed, held, doubled and pinned profiles must be
    # exactly the explicit homs inside the masks
    def inside(masks, indices):
        return all(m >> i & 1 for m, i in zip(masks, indices))

    def members(p, explicit):
        g = p.target
        return sum(inside(p.vmasks, g.vertex_indices(h.vertex_images))
                   and inside(p.wmasks, g.witness_indices(h.witness_images))
                   for h in explicit.homs)

    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        g = mixed_multigraph(rng)
        n = len(g.vertices)
        lower = rng.choice(((), (1,), (2,)))
        gadget = build_gadget(lower + (rng.choice((1, 2, 3)),))
        small = all_homs(build_gadget(lower), g)
        full = all_homs(gadget, g)
        narrowed = restricted(full, [m & rng.randrange(1 << n) if rng.random() < 0.3 else m
                                     for m in full.vmasks], full.wmasks)
        at, v = rng.randrange(gadget.vertex_count), rng.randrange(n)
        held = restricted(full, [m & (1 << v) if i == at else m
                                 for i, m in enumerate(full.vmasks)], full.wmasks)
        doubled = double(restricted(small, [m & rng.randrange(1 << n) for m in small.vmasks],
                                    small.wmasks), gadget.prefix[-1])
        cases = [small, full, narrowed, held, doubled,
                 restricted(doubled, [m & (1 << v) if i == at else m
                                      for i, m in enumerate(doubled.vmasks)], doubled.wmasks)]
        if full.count():
            cases.append(pin(full, full.enumerate_homs(1)[0].homs[0]))
        explicit = {p.gadget: bruteforce.explicit_homset(p.gadget, g)
                    for p in (small, full) if oracles.walk_count(g, p.gadget.edge_count) <= 3000}
        for p in cases:
            total = p.count()
            if p is full or p is small:
                assert total == oracles.walk_count(g, p.gadget.edge_count)
            if p.gadget in explicit:
                assert total == members(p, explicit[p.gadget])
                checked += 1
    assert checked > 200


def mixed_multigraph(rng):
    """Odd cycles, some joined by an edge to a random bipartite part,
    isolated vertices and doubled witnesses."""
    names, pairs = [], []
    for part in range(rng.randint(1, 3)):
        kind = rng.choice(("odd", "bip", "joined", "iso"))
        if kind == "iso":
            names.append(f"i{part}")
            continue
        cyc = [f"c{part}.{i}" for i in range(rng.choice((3, 5)))]
        bip = [f"b{part}.{i}" for i in range(rng.randint(1, 4))]
        if kind != "bip":
            names += cyc
            pairs += [(cyc[i], cyc[i - 1]) for i in range(len(cyc))]
        if kind != "odd":
            names += bip
            pairs += [(u, v) for i, u in enumerate(bip) for v in bip[i + 1:]
                      if i % 2 != bip.index(v) % 2 and rng.random() < 0.7]
        if kind == "joined":
            pairs.append((cyc[0], bip[0]))
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2)) if pairs]
    return WitnessedGraph.make(names, pairs)


def test_is_tiny_matches_per_position_oracle():
    rng = random.Random(61)
    for _ in range(80):
        g = mixed_multigraph(rng)
        gadget = build_gadget(rng.choice(((), (1,), (1, 3), (3, 1))))
        full = all_homs(gadget, g)
        n = len(g.vertices)
        narrowed = restricted(
            full, [m & rng.choice((rng.randrange(1 << n), (1 << n) - 1))
                   for m in full.vmasks], full.wmasks)
        # one position held to one vertex: one colour class per bipartite
        # component at every position
        at, v = rng.randrange(gadget.vertex_count), rng.randrange(n)
        held = restricted(full, [m & (1 << v) if i == at else m
                                 for i, m in enumerate(full.vmasks)], full.wmasks)
        cases = [full, narrowed, held]
        if full.count():
            first = full.enumerate_homs(1)[0].homs[0]
            cases.append(pin(full, first))
        if full.count() <= 400:
            explicit = bruteforce.explicit_homset(gadget, g)
            k = rng.randint(0, len(explicit.homs))
            cases += [explicit,
                      ExplicitHomSet(gadget, g, tuple(rng.sample(explicit.homs, k))),
                      ExplicitHomSet(gadget, g, tuple(
                          h for h in explicit.homs if h.vertex_images[at] == g.vertices[v]))]
        for homs in cases:
            got = is_tiny(homs)
            assert (got.tiny, got.vertex) == oracles.is_tiny_per_position(homs)


def test_pin_masks_are_arc_consistent():
    # pin builds its singleton profile without a sweep: a sweep must leave
    # the masks as they are
    rng = random.Random(84)
    cases = []
    for _ in range(40):
        g = mixed_multigraph(rng)
        full = all_homs(build_gadget(rng.choice(((), (1,), (1, 3), (3, 1), (1, 1, 3)))), g)
        homs = full.enumerate_homs(50)[0].homs
        cases += [(full, hom) for hom in rng.sample(homs, min(3, len(homs)))]
    for g in (cycle_graph(5), complete_graph(4), disjoint_union(path_graph(3), cycle_graph(7))):
        t = decide(g, 4)
        cases += [(all_homs(build_gadget(t.prefix[:n]), g), hom)
                  for n, hom in enumerate(oracles.tower_levels(t))]
    for p, hom in cases:
        g = p.target
        pinned = pin(p, hom)
        swept = kernels.path_propagate(pinned.vmasks, pinned.wmasks, pinned._ends_idx(),
                                       len(g.vertices), len(g.witnesses))
        assert swept == (list(pinned.vmasks), list(pinned.wmasks))
        assert pinned.enumerate_homs(2) == (ExplicitHomSet(p.gadget, g, (hom,)), 1)


def normalized_profiles(rng, rounds):
    """Random normalized profiles over mixed multigraphs, with the mask of
    their target's non-bipartite vertices: full, cut to those components,
    narrowed, one position held, doubled and pinned.  Half the targets get
    a bipartite path that holds the least vertex ids."""
    for _ in range(rounds):
        g = mixed_multigraph(rng)
        if rng.random() < 0.5:
            g = disjoint_union(path_graph(rng.randint(2, 4)), g)
        n = len(g.vertices)
        nbmask = sum(1 << g.vertex_index(v) for v in nonbipartite_vertices(g))
        lower = rng.choice(((), (1,), (3,)))
        gadget = build_gadget(lower + (rng.choice((1, 3)),))
        full = all_homs(gadget, g)
        inside = restricted(full, [m & nbmask for m in full.vmasks], full.wmasks)
        at, v = rng.randrange(gadget.vertex_count), rng.randrange(n)
        small = all_homs(build_gadget(lower), g)
        cases = [full, inside,
                 restricted(full, [m & rng.randrange(1 << n) if rng.random() < 0.3 else m
                                   for m in full.vmasks], full.wmasks),
                 restricted(inside, [m & rng.randrange(1 << n) for m in inside.vmasks],
                            inside.wmasks),
                 restricted(full, [m & (1 << v) if i == at else m
                                   for i, m in enumerate(full.vmasks)], full.wmasks),
                 double(restricted(small, [m & rng.randrange(1 << n) for m in small.vmasks],
                                   small.wmasks), gadget.prefix[-1])]
        homs = full.enumerate_homs(20)[0].homs
        cases += [pin(full, hom) for hom in rng.sample(homs, min(2, len(homs)))]
        for p in cases:
            yield p, nbmask


def test_is_large_skip_path_matches_restricted_witness(monkeypatch):
    # every verdict and witness is the one a sweep of the cut profile
    # gives, and no case sweeps: a root inside the non-bipartite
    # components keeps p, a root across them cuts p by closed form
    calls = []
    sweep = kernels.path_propagate
    seen = {"not large": 0, "kept": 0, "cut": 0}
    for p, nbmask in normalized_profiles(random.Random(85), 200):
        want = oracles.large_witness_by_sweep(p)
        monkeypatch.setattr(kernels, "path_propagate",
                            lambda *a: calls.append(1) or sweep(*a))
        got = is_large(p)
        monkeypatch.undo()
        assert (got.large, got.witness) == (want is not None, want)
        assert calls == []
        seen["not large" if want is None else "cut" if p.vmasks[0] & ~nbmask
             else "kept"] += 1
    assert sum(seen.values()) >= 1000 and min(seen.values()) >= 100, seen


def test_one_root_decides_the_cut_and_the_components():
    # on a normalized profile every domain lies in the components of
    # position 0's, and the cut to the non-bipartite components by closed
    # form equals the sweep of the masked profile
    checked = 0
    for p, nbmask in normalized_profiles(random.Random(86), 60):
        g = p.target
        ends = p._ends_idx()
        nbw = sum(1 << i for i, w in enumerate(g.witnesses)
                  if set(g.ends[w]) <= nonbipartite_vertices(g))
        assert [w for w in range(len(ends)) if nbw >> w & 1] == \
            [w for w, (a, b) in enumerate(ends) if nbmask >> a & nbmask >> b & 1]
        swept = kernels.path_propagate([m & nbmask for m in p.vmasks], list(p.wmasks), ends,
                                       len(g.vertices), len(g.witnesses))
        assert swept == ([m & nbmask for m in p.vmasks], [m & nbw for m in p.wmasks])
        assert (not p.vmasks[0] & nbmask) == all(not m & nbmask for m in p.vmasks)
        assert (not p.vmasks[0] & ~nbmask) == all(not m & ~nbmask for m in p.vmasks)
        checked += 1
    assert checked >= 400


def test_a_sweep_empties_every_domain_or_none():
    rng = random.Random(87)
    emptied = 0
    for _ in range(2000):
        n, w, t = rng.randint(1, 5), rng.randint(0, 6), rng.randint(1, 8)
        ends = [tuple(rng.sample(range(n), 2)) if n > 1 else (0, 0) for _ in range(w)]
        vmasks, wmasks = kernels.path_propagate(
            [rng.randrange(1 << n) for _ in range(t)],
            [rng.randrange(1 << w) if w else 0 for _ in range(t - 1)], ends, n, w)
        if 0 in vmasks:
            assert vmasks + wmasks == [0] * (2 * t - 1)
            emptied += 1
        else:
            assert all(wmasks)
    assert 200 <= emptied <= 1800


def test_is_small_reads_the_root_as_every_image_did():
    rng = random.Random(88)
    sets = smalls = 0
    for _ in range(120):
        g = mixed_multigraph(rng)
        gadget = build_gadget(rng.choice(((), (1,))))
        every = bruteforce.explicit_homset(gadget, g).homs
        for _ in range(5):
            s = ExplicitHomSet(gadget, g, tuple(rng.sample(every, rng.randint(0, min(8, len(every))))))
            got = is_small(s)
            assert got == oracles.is_small_all_images(s)
            if len(s.homs) <= 4:
                assert got == bruteforce.small_by_cover_search(s)
            sets += 1
            smalls += got
    assert sets >= 500 and 100 <= smalls <= sets - 100, (sets, smalls)


def test_invalid_hom_named_without_materializing():
    prefix = (1, 3, 5) * 4
    g = single_edge()
    size = build_gadget(prefix).vertex_count
    images = ["u", "v"] * (size // 2) + ["u"] * (size % 2)
    # the image after edge j repeats the one before it, so edge j's witness
    # no longer joins its two images: the first fault is edge j
    j = size // 2 + 7
    images[j + 1] = images[j]
    hom = Hom(tuple(images), ("w0",) * (size - 1))

    def message():
        with pytest.raises(NotHomomorphism) as err:
            validate_hom(build_gadget(prefix), g, hom)
        return str(err.value)

    want = message()
    assert message() == want
    vertices = oracles.gadget_vertices_from_root(prefix)
    assert want.startswith(f"edge {vertices[j].label}--{vertices[j + 1].label}: ")


def test_profiles_and_gluing_materialize_no_gadget():
    g = cycle_graph(5)
    full = all_homs(build_gadget((1, 3)), g)
    assert full.count() == oracles.walk_count(g, full.gadget.edge_count)
    assert not is_tiny(full) and is_large(full)
    explicit, total = full.enumerate_homs(3)
    assert len(explicit.homs) == 3 and total == full.count()
    assert full.project(GadgetVertex(2, ())) == g.vertices
    p = pin(all_homs(build_gadget(()), g), Hom(("c0",), ()))
    for _ in range(4):
        d, hom = extend_witness(p, 1)
        p = HomProfile.pinned(build_gadget(p.gadget.prefix + (d,)), g, hom)
        assert p.count() == 1 and member(p, hom)
    assert [p.project(v) for v in oracles.gadget_vertices_from_root(p.gadget.prefix)] == [
        (img,) for img in hom.vertex_images]


def test_full_profile_reader_matches_the_profile():
    # FullProfile reads Hom(gadget, target) off the target alone; the
    # kernel's sweep of the all-ones masks (bruteforce.all_homs), with
    # is_tiny, is_large, count, project and enumerate_homs, is its oracle
    rng = random.Random(32)
    # paths, whose least walks from the far end descend before they turn
    files = [([], {}), (["a"], {}), (["a", "b", "c"], {})] + [
        (g.vertices, g.ends) for g in map(path_graph, range(2, 6))]
    for _ in range(420):
        g = (mixed_multigraph(rng) if rng.random() < 0.6 else
             random_graph(rng, rng.randint(1, 7), p=rng.random(), multi=0.4))
        # random ids in shuffled order, so that the ids sort otherwise than
        # the file lists them, parallel witnesses included
        pairs = [g.ends[w] for w in g.witnesses]
        rng.shuffle(pairs)
        ids = rng.sample(range(10, 10 + 10 * len(pairs)), len(pairs))
        files.append((g.vertices, {f"w{i}": p for i, p in zip(ids, pairs)}))
    seen, caps, verdicts = set(), set(), []
    for vertices, ends in files:
        g = WitnessedGraph(vertices, ends)
        gadget = build_gadget(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5))))
        full, p = FullProfile(gadget, g), all_homs(gadget, g)
        cap = rng.randint(0, 30)
        large = full.is_large()
        # the same images at every position, and every witness at every edge
        images = sum(1 << g.vertex_index(v) for v in full.images)
        assert p.vmasks == (images,) * gadget.vertex_count, (g, gadget)
        assert p.wmasks == ((1 << len(ends)) - 1,) * gadget.edge_count, (g, gadget)
        assert is_tiny(full) == is_tiny(p), (g, gadget)
        assert large == is_large(p), (g, gadget)
        assert full.count() == p.count() == oracles.walk_count(g, gadget.edge_count), (
            g, gadget)
        for pos in (0, rng.randrange(gadget.vertex_count), gadget.vertex_count - 1):
            u = gadget.vertex_at(pos)
            assert full.project(u) == p.project(u), (g, gadget, u)
        assert list(itertools.islice(full.homs(), cap)) == list(
            p.enumerate_homs(cap)[0].homs), (g, gadget, cap)
        if p.count() <= 400:   # every member, so that walks restart deep
            assert list(full.homs()) == list(p.enumerate_homs(400)[0].homs)
        caps.add(cap)
        verdicts.append(large.large)
        nb = nonbipartite_vertices(g)
        seen.add(("isolated", any(not g.neighbors(v) for v in g.vertices)))
        seen.add(("no witness", not ends))
        seen.add(("no witness above level 0", not ends and gadget.level > 0))
        seen.add(("kind", "bipartite" if not nb else
                  "mixed" if len(nb) < len(vertices) else "odd"))
        seen.add(("parallel", len(set(g.ends.values())) < len(ends)))
        seen.add(("ids out of file order", list(ends) != sorted(ends)))
        seen.add(("cut", large.large and full.images[0] not in nb))
        seen.add(("level", gadget.level))
    assert caps == set(range(31))
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
    assert seen >= {(kind, True) for kind in (
        "isolated", "no witness", "no witness above level 0", "parallel",
        "ids out of file order", "cut")}
    assert seen >= {("isolated", False), ("no witness", False), ("kind", "bipartite"),
                    ("kind", "mixed"), ("kind", "odd")}
    assert seen >= {("level", level) for level in range(6)}
