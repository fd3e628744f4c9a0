"""Seeded property-check suites for every module, at desk scale.

Each suite draws its own generator from the master seed (via sha256, so
suites stay independent of each other and of suite execution order) and
records failures instead of raising.  The oracle flag only adds
cross-checks against the brute-force reference algorithms; it never changes
what the primary checks compute.  Every suite that needs a gadget's vertex
list reads bruteforce.gadget_vertices, so the gadget suite compares the
closed forms with a path built by code that shares none of them.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from . import bruteforce
from .coloring import (bipartite_superset_coloring, check_homomorphism,
                       greedy_coloring, pullback_coloring, two_color_from_cover)
from .dichotomy import (Tower, decide, evaluate, parse_schedule,
                        unbounded_schedule_default, verify_tower)
from .equiv import (EquivalenceTower, path_exact_walk, path_walk_exists,
                    plan_equivalence, verify_equivalence)
from .errors import (CoverIncomplete, GapInsufficient, InvalidIndex,
                     NonOddPrefix, NotHomomorphism, NotMember,
                     OutOfTruncation, ParseError, PieceNotTiny)
from .gadget import (build_gadget, endpoint_label, endpoints, gadget_distance,
                     gadget_size, vertex_at, vertex_position)
from .generators import (all_graphs_upto, complete_graph, cycle_graph,
                         disjoint_union, path_graph, petersen_graph,
                         random_bipartite_graph, random_ep_bits, random_graph,
                         random_odd_prefix, single_edge)
from .graphs import Coloring
from .homset import (ExplicitHomSet, Hom, copy_restriction, extend_witness,
                     is_large, is_small, is_tiny)
from .limitgraph import (EP_ZERO, EpBits, LcVertex, adjacent, level_quotient,
                         neighbors, odd_sibling_obstruction, same_component)
from .parity import (bipartite_certificate, components, is_bipartite,
                     nonbipartite_vertices, phi_bound, phi_holds,
                     vertex_odd_girth)


class SuiteResult(NamedTuple):
    name: str
    trials: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"name": self.name, "trials": self.trials, "ok": self.ok,
                "failures": list(self.failures)}


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.trials = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.trials += 1
        if not ok:
            self.failures.append(message)

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.trials, tuple(self.failures))


def _suite_graph_core(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("graph-core")
    pool = list(all_graphs_upto(4))
    for _ in range(20):
        pool.append(random_graph(rng, rng.randint(5, 8), 0.4, multi=0.2))
    pool.append(petersen_graph())
    pool.append(disjoint_union(cycle_graph(5), single_edge()))

    for g in pool:
        verts = list(g.vertices)
        cap = 2 * len(verts) + 1
        subsets = [(v,) for v in verts[:3]] + [tuple(verts)]
        subsets.append(tuple(sorted(rng.sample(verts, rng.randint(1, len(verts))))))
        nb = nonbipartite_vertices(g)
        for a in subsets:
            verdict = phi_bound(g, a)
            for k in (0, 1, 4):
                s.check(phi_holds(g, a, k) == verdict.no_odd_walk,
                        f"odd-walk test must not depend on the bound (k={k}, set {a})")
            if oracle:
                lengths = bruteforce.odd_walk_lengths(g, a, cap)
                if verdict.no_odd_walk:
                    s.check(not lengths, f"odd walk missed from {a}")
                else:
                    s.check(bool(lengths) and lengths[0] == verdict.min_odd_length,
                            f"least odd walk length off for {a}")
                    s.check(bool(lengths)
                            and lengths == list(range(lengths[0], cap + 1, 2)),
                            f"padding gap in odd walk lengths from {a}")
            if verdict.no_odd_walk and a:
                closure, col = bipartite_superset_coloring(g, a)
                s.check(set(a) <= set(closure)
                        and all(set(g.neighbors(v)) <= set(closure) for v in closure),
                        f"closure must be the component closure of {a}")
                s.check(col.is_proper(g) and col.colors_used <= 2
                        and set(closure) <= set(col.domain),
                        f"closure coloring must properly 2-color {a}'s closure")
                s.check(not set(closure) & nb,
                        f"closure of odd-walk-free {a} meets an odd component")

        cert = bipartite_certificate(g)
        girths = [vertex_odd_girth(g, v) for v in verts]
        best = min((x for x in girths if x is not None), default=None)
        if isinstance(cert, Coloring):
            s.check(best is None, "2-coloring despite an odd closed walk")
            s.check(cert.covers(g) and cert.is_proper(g) and cert.colors_used <= 2,
                    "bipartite certificate coloring is not a proper 2-coloring")
        else:
            cert.validate(g)
            s.check(cert.is_closed and cert.is_odd and cert.length == best,
                    "certificate walk must be a minimum odd closed walk")

        col = greedy_coloring(g)
        s.check(col.covers(g) and col.is_proper(g)
                and col.colors_used <= g.max_neighbor_count() + 1,
                "greedy coloring must be proper within the degree bound")

    for _ in range(15):
        g = random_bipartite_graph(rng, rng.randint(4, 12), 0.5)
        cert = bipartite_certificate(g)
        pieces = []
        for comp in components(g):
            side0 = [v for v in comp if cert.of(v) == 0]
            pieces.append(tuple(rng.sample(side0, rng.randint(1, len(side0)))))
        rng.shuffle(pieces)
        col = two_color_from_cover(g, pieces)
        s.check(col.covers(g) and col.is_proper(g) and col.colors_used <= 2,
                "cover assembly must produce a proper 2-coloring")

    g5 = cycle_graph(5)
    try:
        two_color_from_cover(g5, [tuple(g5.vertices)])
        s.check(False, "piece with an odd walk accepted")
    except PieceNotTiny:
        s.check(True, "")
    gu = disjoint_union(cycle_graph(4), single_edge())
    try:
        two_color_from_cover(gu, [("a:c0",)])
        s.check(False, "incomplete cover accepted")
    except CoverIncomplete:
        s.check(True, "")

    p3 = path_graph(3)
    e = single_edge()
    fold = {"p0": "u", "p1": "v", "p2": "u"}
    col = pullback_coloring(p3, e, fold, greedy_coloring(e))
    s.check(col.covers(p3) and col.is_proper(p3),
            "pulled-back coloring must be proper")
    try:
        check_homomorphism(p3, e, {"p0": "u", "p1": "u", "p2": "v"})
        s.check(False, "non-homomorphism accepted")
    except NotHomomorphism:
        s.check(True, "")
    return s.result()


def _suite_gadget(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("gadget")
    prefixes = [(), (1,), (2,), (1, 3), (3, 1, 2)]
    for _ in range(10):
        prefixes.append(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 7))))
    for prefix in prefixes:
        g = build_gadget(prefix)
        # the path as built level by level, with none of the closed forms
        vertices = bruteforce.gadget_vertices(prefix)
        position = bruteforce.gadget_positions(prefix)
        want_v, want_e = 1, 0
        for c in prefix:
            want_v, want_e = 2 * want_v + c + 1, 2 * want_e + c + 2
        s.check(g.vertex_count == want_v and g.edge_count == want_e,
                f"size recursion off for {prefix}")
        s.check(len(set(vertices)) == g.vertex_count,
                f"duplicate vertex labels in {prefix}")
        s.check(gadget_size(prefix) == len(vertices),
                f"closed-form size off for {prefix}")
        s.check(all(vertex_position(prefix, v) == i and vertex_at(prefix, i) == v
                    for i, v in enumerate(vertices)),
                f"closed-form positions disagree with the built gadget {prefix}")
        lo, hi = endpoints(g)
        s.check(position[lo] == 0 and position[hi] == g.vertex_count - 1,
                f"endpoints must sit at the path ends for {prefix}")
        s.check(vertices[0] == endpoint_label(g.level, 0)
                and vertices[-1] == endpoint_label(g.level, 1),
                f"closed-form endpoint labels wrong for {prefix}")
        if prefix:
            small = build_gadget(prefix[:-1])
            small_vertices = bruteforce.gadget_vertices(prefix[:-1])
            c = prefix[-1]
            s.check([position[v.append(0)] for v in small_vertices]
                    == list(range(small.vertex_count)),
                    f"copy 0 must fill the left block in order for {prefix}")
            s.check([position[v.append(1)] for v in small_vertices]
                    == [g.copy_position(i, small.level, (1,))
                        for i in range(small.vertex_count)],
                    f"copy 1 must fill the right block mirrored for {prefix}")
            used = {v.append(bit) for v in small_vertices for bit in (0, 1)}
            join = [v for v in vertices if v not in used]
            s.check(len(join) == c + 1 and all(v.t == () for v in join)
                    and [position[v] for v in join]
                    == list(range(small.vertex_count, small.vertex_count + c + 1)),
                    f"join block malformed for {prefix}")
            e1 = endpoint_label(small.level, 1)
            samples = list(small_vertices)
            if len(samples) > 8:
                samples = [samples[i] for i in
                           sorted(rng.sample(range(len(samples)), 8))]
            for v in samples:
                got = gadget_distance(g, v.append(0), v.append(1))
                want = 2 * gadget_distance(small, v, e1) + c + 2
                s.check(got == want,
                        f"sibling distance formula off at {v.label} for {prefix}")

    odd_prefixes = [(1,), (3,), (1, 3), (5, 1, 3)]
    odd_prefixes += [random_odd_prefix(rng, rng.randint(1, 5), 9) for _ in range(6)]
    for prefix in odd_prefixes:
        rep = bruteforce.check_odd_distance_lemma(build_gadget(prefix))
        s.check(rep.ok and rep.pairs_checked > 0,
                f"even sibling distance in odd-prefix gadget {prefix}")
    try:
        bruteforce.check_odd_distance_lemma(build_gadget((2,)))
        s.check(False, "odd-distance check accepted an even prefix")
    except NonOddPrefix:
        s.check(True, "")
    return s.result()


def _suite_homset(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("homset")
    targets = [single_edge(), path_graph(3), cycle_graph(3), cycle_graph(4),
               cycle_graph(5), complete_graph(4)]
    for _ in range(4):
        targets.append(random_graph(rng, rng.randint(2, 5), 0.6, multi=0.3))
    prefixes = [(), (1,), (2,), (1, 1), (1, 3)]
    cap = 6000
    for g in targets:
        for prefix in prefixes:
            gadget = build_gadget(prefix)
            p = bruteforce.all_homs(gadget, g)
            n = p.count()
            if oracle:
                s.check(n == bruteforce.count_walks_matrix(g, gadget.edge_count),
                        f"count disagrees with the walk matrix ({prefix})")
            if n > cap:
                continue
            enum, total = p.enumerate_homs(cap)
            s.check(total == n and len(enum.homs) == n,
                    f"enumeration size mismatch ({prefix})")
            s.check(list(enum.homs) == sorted(enum.homs),
                    f"enumeration not in lex order ({prefix})")
            if oracle:
                brute = bruteforce.explicit_homset(gadget, g)
                s.check(enum.homs == brute.homs,
                        f"enumeration disagrees with backtracking ({prefix})")
                if n:
                    # position 0 held to its least vertex
                    low = p.vmasks[0] & -p.vmasks[0]
                    held = bruteforce.restricted(p, (low,) + p.vmasks[1:], p.wmasks)
                    first = g.vertices[low.bit_length() - 1]
                    s.check(held.count() == sum(h.vertex_images[0] == first
                                                for h in brute.homs),
                            f"held count disagrees with backtracking ({prefix})")
            probe = list(bruteforce.gadget_vertices(prefix))
            if len(probe) > 4:
                probe = [probe[0], probe[len(probe) // 2], probe[-1]]
            for v in probe:
                s.check(p.project(v) == enum.project(v),
                        f"projection at {v.label} disagrees with the explicit set")
            tv = is_tiny(p)
            s.check(bool(tv) == bool(is_tiny(enum)),
                    f"tininess differs between profile and explicit set ({prefix})")
            small = is_small(enum)
            s.check(is_large(p).large == (not small),
                    f"largeness must be failure of smallness ({prefix})")
            if tv:
                s.check(small, f"tiny set must be small ({prefix})")
            if oracle and n <= 60 and gadget.vertex_count <= 4:
                s.check(bool(tv) == bruteforce.tiny_by_definition(enum),
                        f"tininess disagrees with walk enumeration ({prefix})")
            if oracle and 0 < n <= 9:
                s.check(small == bruteforce.small_by_cover_search(enum),
                        f"smallness disagrees with cover search ({prefix})")

    mixed = disjoint_union(cycle_graph(5), single_edge())
    gadget1 = build_gadget((1,))
    enum, _ = bruteforce.all_homs(gadget1, mixed).enumerate_homs(10 ** 6)
    homs = list(enum.homs)
    for _ in range(10):
        asub = ExplicitHomSet(gadget1, mixed,
                              tuple(sorted(rng.sample(homs, rng.randint(1, 6)))))
        bsub = ExplicitHomSet(gadget1, mixed,
                              tuple(sorted(rng.sample(homs, rng.randint(1, 6)))))
        if is_small(asub):
            sub = ExplicitHomSet(gadget1, mixed, tuple(sorted(
                rng.sample(list(asub.homs), rng.randint(1, len(asub.homs))))))
            s.check(is_small(sub), "subset of a small set must be small")
            if is_small(bsub):
                both = ExplicitHomSet(gadget1, mixed,
                                      tuple(sorted(set(asub.homs) | set(bsub.homs))))
                s.check(is_small(both), "union of two small sets must be small")

    k3 = cycle_graph(3)
    s.check(bruteforce.double(bruteforce.all_homs(build_gadget(()), k3), 1).count()
            == bruteforce.all_homs(build_gadget((1,)), k3).count(),
            "doubling the full profile must stay full")
    c5 = cycle_graph(5)
    prof = bruteforce.all_homs(build_gadget((1,)), c5)
    first = prof.enumerate_homs(1)[0].homs[0]
    pinned = bruteforce.pin(prof, first)
    s.check(pinned.count() == 1 and pinned.enumerate_homs(2)[0].homs == (first,),
            "pinning must cut the profile to a singleton")
    try:
        bruteforce.pin(prof, Hom(("c0",) * 4, ("w0",) * 3))
        s.check(False, "pin accepted a non-member")
    except NotMember:
        s.check(True, "")

    for g in (k3, c5, petersen_graph()):
        root = min(nonbipartite_vertices(g))
        prof = bruteforce.pin(bruteforce.all_homs(build_gadget(()), g), Hom((root,), ()))
        for bound in (1, 2, 5):
            d, hom = extend_witness(prof, bound)
            s.check(d % 2 == 1 and d >= bound,
                    f"join length must be odd and >= {bound}")
            big = build_gadget(prof.gadget.prefix + (d,))
            witness = is_large(prof).witness
            s.check(copy_restriction(big, prof.gadget, hom, 0) == witness
                    and copy_restriction(big, prof.gadget, hom, 1) == witness,
                    "both copy restrictions must equal the largeness witness")
            s.check(bruteforce.member(bruteforce.double(prof, d), hom),
                    "glued homomorphism must lie in the doubled profile")
        d = bruteforce.preserve_largeness(prof, 3)
        s.check(d % 2 == 1 and d >= 3, "preserved join length out of range")

    prof = bruteforce.pin(bruteforce.all_homs(build_gadget(()), c5),
                          Hom((min(c5.vertices),), ()))
    for bound in (1, 1, 3):
        d, hom = extend_witness(prof, bound)
        prof = bruteforce.pin(bruteforce.double(prof, d), hom)
        s.check(is_large(prof).large, "pinned doubled profile lost largeness")
    s.check(prof.count() == 1, "pinned profile must stay a singleton")
    return s.result()


def _suite_dichotomy(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("dichotomy")
    sched = unbounded_schedule_default()
    s.check([sched(n) for n in range(5)] == [1, 1, 3, 5, 7],
            "default schedule values drifted")

    graphs = list(all_graphs_upto(4))[::5]
    graphs += [cycle_graph(5), complete_graph(3), petersen_graph(),
               disjoint_union(cycle_graph(4), cycle_graph(3))]
    for _ in range(8):
        graphs.append(random_graph(rng, rng.randint(2, 7), 0.4, multi=0.2))
    for g in graphs:
        out = decide(g, 3)
        if isinstance(out, Coloring):
            s.check(is_bipartite(g), "got a coloring for a non-bipartite graph")
            s.check(out.covers(g) and out.is_proper(g) and out.colors_used <= 2,
                    "decision coloring is not a proper 2-coloring")
            continue
        s.check(not is_bipartite(g), "got a tower for a bipartite graph")
        s.check(out.depth == 3 and len(out.top.vertex_images)
                == build_gadget(out.prefix).vertex_count,
                "tower shape off for the requested depth")
        rep = verify_tower(out, g)
        s.check(rep.ok, f"tower fails verification: {rep.violations[:1]}")
        s.check(all(out.prefix[n] % 2 == 1 and out.prefix[n] >= max(1, 2 * n - 1)
                    for n in range(3)),
                "join lengths must be odd and meet the schedule")
        s.check(out.top.vertex_images[0] == min(nonbipartite_vertices(g)),
                "root must pin the least non-bipartite vertex")
        for _ in range(6):
            m = rng.randint(0, out.depth - 1)
            k = 0 if m == 0 else rng.randint(0, out.prefix[m - 1])
            tb = tuple(rng.randint(0, 1)
                       for _ in range(rng.randint(0, out.depth - m - 1)))
            base = evaluate(out, m, k, tb)
            for b in (0, 1):
                s.check(evaluate(out, m, k, tb + (b,)) == base,
                        "appending a copy bit must not change the value")

    t = decide(complete_graph(3), 2, parse_schedule("1,3"))
    s.check(isinstance(t, Tower) and t.prefix == (1, 3),
            "triangle with explicit schedule 1,3 must yield join lengths 1,3")

    tower = decide(cycle_graph(5), 2)
    for args, exc in (((0, 1, ()), InvalidIndex),
                      ((3, 0, ()), OutOfTruncation),
                      ((1, tower.prefix[0] + 1, ()), InvalidIndex),
                      ((1, 0, (0, 0)), OutOfTruncation)):
        try:
            evaluate(tower, *args)
            s.check(False, f"evaluate accepted bad arguments {args}")
        except exc:
            s.check(True, "")
    top = tower.top
    other = "c1" if top.vertex_images[0] == "c0" else "c0"
    bad_top = Hom((other,) + top.vertex_images[1:], top.witness_images)
    bad = Tower(tower.prefix, bad_top, tower.schedule_values)
    s.check(not verify_tower(bad, cycle_graph(5)).ok,
            "verifier accepted a corrupted tower")
    return s.result()


def _suite_lc(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("lc")

    def rand_vertex(prefix) -> LcVertex:
        m = rng.randint(0, min(len(prefix), 3))
        k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
        return LcVertex(m, k, random_ep_bits(rng))

    prefix_pool = [(1,), (1, 3), (3, 1, 2), (1, 3, 5), (2, 2)]
    prefix_pool += [tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 8)))
                    for _ in range(5)]
    prefix_pool.append(random_odd_prefix(rng, 10, 7))
    for prefix in prefix_pool:
        n = len(prefix)
        verts = [rand_vertex(prefix) for _ in range(8)]
        verts.append(LcVertex(0, 0, EP_ZERO))
        for v in verts:
            nbrs = neighbors(v, prefix)
            s.check(len(set(nbrs)) == len(nbrs), f"duplicate neighbors of {v.label}")
            for u in nbrs:
                s.check(adjacent(v, u, prefix) and adjacent(u, v, prefix),
                        f"listed neighbor not adjacent: {v.label}, {u.label}")
                s.check(v in neighbors(u, prefix),
                        f"neighbor lists not symmetric: {v.label}, {u.label}")
                s.check(same_component(u, v),
                        f"neighbors in different components: {v.label}, {u.label}")
            if v.m >= 1:
                s.check(len(nbrs) == 2, f"join vertex degree must be 2: {v.label}")
            else:
                j = v.x.first_one()
                want = 1 + (1 if j is not None and j + 2 <= n else 0)
                s.check(len(nbrs) == want,
                        f"degree of copy-history vertex off: {v.label}")
            s.check(not adjacent(v, v, prefix), f"self-adjacency at {v.label}")
            if oracle:
                for u in nbrs:
                    s.check(bruteforce.projections_adjacent_everywhere(
                                v, u, prefix, n),
                            f"neighbor fails level-by-level check: {u.label}")
                others = [rand_vertex(prefix) for _ in range(3)]
                others.append(LcVertex(v.m, v.k, random_ep_bits(rng)))
                for w in others:
                    sym = adjacent(v, w, prefix)
                    brute = bruteforce.projections_adjacent_everywhere(
                        v, w, prefix, n)
                    if sym:
                        s.check(brute, f"adjacency overclaims: {v.label}, {w.label}")
                    elif brute:
                        nn = max(v.m, w.m)
                        ta = v.x.shift(nn - v.m)
                        tb = w.x.shift(nn - w.m)
                        s.check(ta != tb and ta.take(n - nn) == tb.take(n - nn),
                                f"adjacency underclaims within truncation: "
                                f"{v.label}, {w.label}")
                    else:
                        s.check(True, "")

        a = rand_vertex(prefix)
        s.check(same_component(a, a), f"component relation not reflexive at {a.label}")
        b = rand_vertex(prefix)
        s.check(same_component(a, b) == same_component(b, a),
                f"component relation not symmetric: {a.label}, {b.label}")
        x = random_ep_bits(rng)
        flipped = x.shift(1).prepend((1 - x.bit(0),))
        trio = (LcVertex(0, 0, x), LcVertex(0, 0, flipped),
                LcVertex(1, 0, x.shift(1)))
        for i in range(3):
            for j in range(3):
                s.check(same_component(trio[i], trio[j]),
                        "first-bit flips and join ascent must stay in one component")
        s.check(not same_component(LcVertex(0, 0, EpBits.constant(0)),
                                   LcVertex(0, 0, EpBits.constant(1))),
                "all-zero and all-one continuations must be separated")
        if oracle:
            for _ in range(6):
                va, vb = rand_vertex(prefix), rand_vertex(prefix)
                delta = vb.m - va.m
                wide = any(va.x.shift(j + delta) == vb.x.shift(j)
                           for j in range(max(0, -delta), 200))
                s.check(same_component(va, vb) == wide,
                        f"component scan window too small: {va.label}, {vb.label}")

    quotient_prefixes = [p for p in prefix_pool
                         if build_gadget(p).vertex_count <= 40][:5]
    quotient_prefixes.append((1, 3))
    for prefix in quotient_prefixes:
        q = level_quotient(prefix)
        g = q.gadget
        s.check(len(bruteforce.gadget_vertices(prefix)) == g.vertex_count,
                f"class count off for {prefix}")
        for i in range(g.vertex_count):
            for tail in (EP_ZERO, random_ep_bits(rng)):
                s.check(q.class_of(q.representative(i, tail)) == i,
                        f"representative round trip off at {i} for {prefix}")
        tail = random_ep_bits(rng)
        reps = [q.representative(i, tail) for i in range(g.vertex_count)]
        for i in range(len(reps) - 1):
            s.check(adjacent(reps[i], reps[i + 1], prefix),
                    f"consecutive classes not adjacent at {i} for {prefix}")
        for _ in range(10):
            i, j = rng.sample(range(g.vertex_count), 2)
            s.check(adjacent(reps[i], reps[j], prefix) == (abs(i - j) == 1),
                    f"class adjacency must mirror the path ({i}, {j}) for {prefix}")

    for prefix in [(1,), (1, 3), (3, 1, 5)]:
        g = build_gadget(prefix)
        for v in bruteforce.gadget_vertices(prefix):
            if v.t and v.t[-1] == 0:
                rep = odd_sibling_obstruction(prefix, v.k, v.t[:-1])
                s.check(rep.odd and rep.distance
                        == gadget_distance(g, rep.left, rep.right),
                        f"sibling obstruction not odd at {v.label} for {prefix}")
    try:
        odd_sibling_obstruction((2,), 0, ())
        s.check(False, "sibling obstruction accepted an even prefix")
    except NonOddPrefix:
        s.check(True, "")
    return s.result()


def _suite_equiv(rng: random.Random, oracle: bool) -> SuiteResult:
    s = _Suite("equiv")
    idents = [(1,), (3,), (1, 3), (3, 1, 5)]
    idents += [random_odd_prefix(rng, rng.randint(1, 3), 9) for _ in range(6)]
    for c in idents:
        t = plan_equivalence(c, c, len(c))
        rep = verify_equivalence(t)
        s.check(rep.ok, f"identity tower fails for {c}: {rep.violations[:1]}")
        s.check(t.level_map == tuple(range(len(c) + 1)),
                f"identity tower must map level to level for {c}")
        s.check(all(pair == ((0,), (1,)) for pair in t.suffixes),
                f"identity tower must append plain copy bits for {c}")
        s.check(all(t.maps[n] == tuple(range(build_gadget(c[:n]).vertex_count))
                    for n in range(len(c) + 1)),
                f"identity tower maps must be identities for {c}")

    t = plan_equivalence((3, 5), (1, 3, 5, 7), 2)
    s.check(verify_equivalence(t).ok, "cross-prefix tower fails verification")

    for _ in range(12):
        c = random_odd_prefix(rng, rng.randint(1, 3), 7)
        d = random_odd_prefix(rng, rng.randint(1, 5), 9)
        depth = rng.randint(1, len(c))
        try:
            t = plan_equivalence(c, d, depth)
        except GapInsufficient:
            s.check(True, "")
            continue
        rep = verify_equivalence(t)
        s.check(rep.ok, f"planned tower fails for c={c} d={d}: {rep.violations[:1]}")
        s.check(t.depth == depth and len(t.maps) == depth + 1,
                f"tower depth off for c={c} d={d}")

    t = plan_equivalence((1, 3), (1, 3), 2)
    top = list(t.maps[-1])
    top[0], top[-1] = top[-1], top[0]
    bad = EquivalenceTower(t.source_prefix, t.target_prefix, t.level_map,
                           t.suffixes, t.join_walks,
                           t.maps[:-1] + (tuple(top),))
    s.check(not verify_equivalence(bad).ok, "verifier accepted a corrupted tower")

    hsrc = build_gadget((1,))
    htgt = build_gadget((3,))
    src_vertices = bruteforce.gadget_vertices(hsrc.prefix)
    tgt_vertices = bruteforce.gadget_vertices(htgt.prefix)
    tgt_position = bruteforce.gadget_positions(htgt.prefix)
    last = hsrc.vertex_count - 1
    for p0 in range(htgt.vertex_count):
        for p1 in range(htgt.vertex_count):
            res = bruteforce.search_hom(
                hsrc, htgt, {src_vertices[0]: tgt_vertices[p0],
                             src_vertices[last]: tgt_vertices[p1]})
            want = path_walk_exists(abs(p0 - p1), last)
            s.check((res is not None) == want,
                    f"pinned search existence off at ({p0}, {p1})")
            if res is not None:
                pos = [tgt_position[v] for v in res]
                s.check(pos[0] == p0 and pos[-1] == p1
                        and all(abs(x - y) == 1 for x, y in zip(pos, pos[1:])),
                        f"pinned search returned a non-walk at ({p0}, {p1})")

    for _ in range(10):
        nv = rng.randint(2, 9)
        a, b = rng.randrange(nv), rng.randrange(nv)
        length = rng.randint(0, 12)
        if not path_walk_exists(abs(a - b), length):
            s.check(abs(a - b) > length or (abs(a - b) - length) % 2 != 0,
                    f"walk existence denied feasible ({a}, {b}, {length})")
            continue
        w = path_exact_walk(nv, a, b, length)
        s.check(len(w) == length + 1 and w[0] == a and w[-1] == b
                and all(abs(x - y) == 1 for x, y in zip(w, w[1:]))
                and all(0 <= x < nv for x in w),
                f"exact walk invalid for ({a}, {b}, {length})")
    return s.result()


_SUITES = (("graph-core", _suite_graph_core),
           ("gadget", _suite_gadget),
           ("homset", _suite_homset),
           ("dichotomy", _suite_dichotomy),
           ("lc", _suite_lc),
           ("equiv", _suite_equiv))


def suite_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _SUITES)


def _suite_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_checks(seed: int = 0, oracle: bool = False, only=None) -> dict:
    """Run the selected suites and return the JSON-ready report."""
    if only:
        unknown = sorted(set(only) - set(suite_names()))
        if unknown:
            raise ParseError(f"unknown suite names: {', '.join(unknown)}")
    results = []
    for name, fn in _SUITES:
        if only and name not in only:
            continue
        rng = random.Random(_suite_seed(seed, name))
        results.append(fn(rng, oracle))
    return {
        "formatVersion": 1,
        "seed": seed,
        "oracle": oracle,
        "suites": [r.to_json_dict() for r in results],
        "ok": all(r.ok for r in results),
    }
