"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single
[PASS]/[FAIL] line with a short summary before asserting.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import oracles
from oddwalk import bruteforce
from oddwalk.coloring import bipartite_superset_coloring, two_color_from_cover
from oddwalk.dichotomy import Tower, decide, verify_tower
from oddwalk.equiv import plan_equivalence, verify_equivalence
from oddwalk.errors import GapInsufficient, NotHomomorphism, OddwalkError
from oddwalk.gadget import build_gadget, endpoint_label, endpoints
from oddwalk.generators import (all_graphs_upto, complete_graph, cycle_graph,
                                path_graph, petersen_graph,
                                random_bipartite_graph, random_ep_bits,
                                random_graph, random_odd_prefix, single_edge)
from oddwalk.graphs import Coloring
from oddwalk.homset import extend_witness, is_large, is_tiny, validate_hom
from oddwalk.limitgraph import EP_ZERO, LcVertex, adjacent, neighbors
from oddwalk.parity import (is_bipartite, nonbipartite_vertices, phi_bound,
                            phi_holds)


def report(name: str, bad: list, details: str) -> None:
    ok = not bad
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: "
          + (details if ok else f"{len(bad)} violations; first: {bad[0]}"))
    assert ok, f"{name}: {bad[:3]}"


def test_gadget_recursion():
    rng = random.Random(101)
    bad = []
    ends = []
    start = time.perf_counter()
    for _ in range(50):
        prefix = random_odd_prefix(rng, rng.randint(0, 10))
        g = build_gadget(prefix)
        want_v, want_e = 1, 0
        for c in prefix:
            want_v, want_e = 2 * want_v + c + 1, 2 * want_e + c + 2
        if (g.vertex_count, g.edge_count) != (want_v, want_e):
            bad.append(f"size recursion off for {prefix}")
        lo, hi = endpoints(g)
        ends.append((prefix, lo, hi))
        if lo != endpoint_label(g.level, 0) or hi != endpoint_label(g.level, 1):
            bad.append(f"closed-form endpoint labels off for {prefix}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        bad.append(f"took {elapsed:.2f}s, budget 1s")
    # the budget is the program's; the path replayed from the root is the
    # oracle the endpoints are placed against
    for prefix, lo, hi in ends:
        position = oracles.gadget_positions_from_root(prefix)
        if position[lo] != 0 or position[hi] != len(position) - 1:
            bad.append(f"endpoints misplaced for {prefix}")
    report("gadget-recursion", bad,
           f"50 random prefixes up to level 10, sizes and endpoint labels "
           f"match the recursions, {elapsed:.2f}s")


def test_odd_distance_lemma():
    rng = random.Random(102)
    bad = []
    pairs = 0
    for depth in range(0, 9):
        for _ in range(2):
            prefix = random_odd_prefix(rng, depth)
            rep = bruteforce.check_odd_distance_lemma(build_gadget(prefix))
            pairs += rep.pairs_checked
            if rep.violations:
                bad.append(f"even sibling distance in {prefix}")
    report("odd-distance-lemma", bad,
           f"{pairs} sibling pairs across depths 0..8, every distance odd")


def test_phi_collapse():
    rng = random.Random(103)
    bad = []
    checks = 0

    def examine(g, a):
        nonlocal checks
        checks += 1
        cap = 2 * len(g.vertices) + 1
        verdict = phi_bound(g, a)
        lengths = oracles.odd_lengths(g, a, cap)
        if verdict.no_odd_walk:
            if lengths:
                bad.append(f"odd walk missed from {a}")
        elif not lengths or lengths[0] != verdict.min_odd_length:
            bad.append(f"least odd length off for {a}")
        elif lengths != list(range(lengths[0], cap + 1, 2)):
            bad.append(f"padding gap in lengths from {a}")
        for k in (0, 3, 100):
            if phi_holds(g, a, k) != verdict.no_odd_walk:
                bad.append(f"bounded form depends on k={k} for {a}")

    exhaustive = list(all_graphs_upto(5))
    for g in exhaustive:
        verts = list(g.vertices)
        examine(g, (verts[0],))
        examine(g, tuple(verts))
        examine(g, tuple(sorted(rng.sample(verts, rng.randint(1, len(verts))))))
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 10), 0.3, multi=0.2)
        verts = list(g.vertices)
        examine(g, (verts[0],))
        examine(g, tuple(sorted(rng.sample(verts, rng.randint(1, len(verts))))))
    report("phi-collapse", bad,
           f"{len(exhaustive)} exhaustive + 500 random graphs, {checks} "
           f"subset checks agree with walk enumeration, bound-independent")


def test_cover_coloring():
    rng = random.Random(104)
    bad = []
    closures = 0
    for g in all_graphs_upto(4):
        verts = list(g.vertices)
        subsets = [(v,) for v in verts[:2]]
        subsets.append(tuple(sorted(rng.sample(verts, rng.randint(1, len(verts))))))
        for a in subsets:
            if not phi_bound(g, a).no_odd_walk:
                continue
            closures += 1
            closure, col = bipartite_superset_coloring(g, a)
            if not set(a) <= set(closure):
                bad.append(f"closure misses {a}")
            if set(closure) != {u for comp in oracles.components(g)
                                if set(comp) & set(closure) for u in comp}:
                bad.append(f"closure of {a} not component-closed")
            colored = col.by_vertex
            clash = any(u in colored and v in colored
                        and colored[u] == colored[v]
                        for u, v in g.ends.values())
            if clash or col.colors_used > 2 or not set(closure) <= set(col.domain):
                bad.append(f"closure coloring bad for {a}")
    covers = 0
    for _ in range(200):
        g = random_bipartite_graph(rng, rng.randint(2, 10), 0.5)
        reps = [rng.choice(comp) for comp in oracles.components(g)]
        rng.shuffle(reps)
        cut = rng.randint(1, len(reps))
        pieces = [reps[:cut], reps[cut:]] if reps[cut:] else [reps[:cut]]
        col = two_color_from_cover(g, pieces)
        covers += 1
        if not (col.covers(g) and oracles.proper(g, col.by_vertex)):
            bad.append("cover coloring not proper")
    report("cover-coloring", bad,
           f"{closures} odd-walk-free closures component-closed and "
           f"2-colored, {covers} randomized cover colorings proper")


def test_largeness_characterization():
    base = build_gadget(())
    bad = []
    n = 0
    for g in all_graphs_upto(5):
        n += 1
        got = is_large(bruteforce.all_homs(base, g)).large
        if got != (not is_bipartite(g)):
            bad.append(f"largeness {got} on a graph with bipartite "
                       f"= {is_bipartite(g)}")
    report("largeness-characterization", bad,
           f"{n} graphs up to 5 vertices, full level-0 profile large "
           f"exactly on the non-bipartite ones")


def test_profile_oracle_equality():
    bad = []
    profiles = enumerated = 0
    graphs = list(all_graphs_upto(4))
    five = [g for g in all_graphs_upto(5) if len(g.vertices) == 5]
    graphs += five[::20]
    prefixes = [(), (1,), (2,), (1, 1), (1, 3), (1, 1, 1)]
    for g in graphs:
        for prefix in prefixes:
            gadget = build_gadget(prefix)
            p = bruteforce.all_homs(gadget, g)
            total = p.count()
            profiles += 1
            if total != oracles.walk_count(g, gadget.edge_count):
                bad.append(f"count off for {prefix}")
                continue
            if total > 2000:
                continue
            enumerated += 1
            ex = bruteforce.explicit_homset(gadget, g)
            if len(ex.homs) != total:
                bad.append(f"enumeration size off for {prefix}")
                continue
            for u in oracles.gadget_vertices_from_root(prefix):
                if p.project(u) != ex.project(u):
                    bad.append(f"projection off at {u.label} for {prefix}")
                    break
            if is_tiny(p).tiny != bruteforce.tiny_by_definition(ex):
                bad.append(f"tininess off for {prefix}")
            nb = nonbipartite_vertices(g)
            by_scan = any(all(v in nb for v in h.vertex_images)
                          for h in ex.homs)
            if is_large(p).large != by_scan:
                bad.append(f"largeness off for {prefix}")
    k3_count = bruteforce.all_homs(build_gadget((1,)), complete_graph(3)).count()
    if k3_count != 24:
        bad.append(f"triangle level-1 count {k3_count}, want 24")
    report("profile-oracle-equality", bad,
           f"{profiles} profiles match the walk matrix, {enumerated} "
           f"compared against full enumeration, triangle level-1 count 24")


def test_witness_extension():
    bad = []
    n = 0
    base = build_gadget(())
    for g in all_graphs_upto(5):
        if is_bipartite(g):
            continue
        n += 1
        p = bruteforce.all_homs(base, g)
        try:
            d, hom = extend_witness(p, 1)
        except OddwalkError as exc:
            bad.append(f"extension failed: {exc}")
            continue
        if d % 2 == 0 or d < 1:
            bad.append(f"join length {d} not odd")
        try:
            validate_hom(build_gadget((d,)), g, hom)
        except NotHomomorphism as exc:
            bad.append(f"glued output invalid: {exc}")
            continue
        if not bruteforce.member(bruteforce.double(p, d), hom):
            bad.append("glued output outside the doubled profile")
        if bruteforce.preserve_largeness(p, 1) != d:
            bad.append("largeness-preserving length differs")
        if not is_large(bruteforce.double(p, d)).large:
            bad.append("doubled profile lost largeness")
    d5 = bruteforce.preserve_largeness(bruteforce.all_homs(base, cycle_graph(5)), 1)
    if d5 != 3:
        bad.append(f"5-cycle join length {d5}, want 3")
    report("witness-extension", bad,
           f"{n} non-bipartite graphs up to 5 vertices extended with odd "
           f"join lengths and large doubled profiles, 5-cycle gives 3")


def test_dichotomy_soundness():
    bad = []
    start = time.perf_counter()
    towers = 0
    for g in [complete_graph(3), cycle_graph(5), petersen_graph()]:
        out = decide(g, 6)
        if not isinstance(out, Tower):
            bad.append("expected a tower on a non-bipartite graph")
            continue
        towers += 1
        rep = verify_tower(out, g)
        if not rep.ok:
            bad.append(f"tower verification: {rep.violations[0]}")
    colorings = 0
    for g in [cycle_graph(4), cycle_graph(6), path_graph(5), single_edge()]:
        out = decide(g, 6)
        if not isinstance(out, Coloring):
            bad.append("expected a coloring on a bipartite graph")
            continue
        colorings += 1
        if not (out.covers(g) and out.is_proper(g) and out.colors_used <= 2):
            bad.append("bipartite branch coloring not proper")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        bad.append(f"took {elapsed:.1f}s, budget 10s")
    report("dichotomy-soundness", bad,
           f"{towers} depth-6 towers verified, {colorings} proper "
           f"2-colorings, exactly one branch each, {elapsed:.2f}s")


def test_limit_adjacency():
    rng = random.Random(109)
    bad = []
    pairs = 0
    degrees = 0
    prefixes = [random_odd_prefix(rng, 12, 7) for _ in range(4)]
    for prefix in prefixes:
        zero = LcVertex(0, 0, EP_ZERO)
        if len(neighbors(zero, prefix)) != 1:
            bad.append("zero vertex degree is not 1")

        def rand_vertex():
            m = rng.randint(0, 2)
            k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
            return LcVertex(m, k, random_ep_bits(rng, 2, 2))

        for i in range(250):
            a = rand_vertex()
            if i % 4 == 0:
                b = rng.choice(neighbors(a, prefix))
            elif i % 4 == 1:
                b = LcVertex(a.m, a.k, random_ep_bits(rng, 2, 2))
            else:
                b = rand_vertex()
            pairs += 1
            got = adjacent(a, b, prefix)
            want = bruteforce.projections_adjacent_everywhere(a, b, prefix, 12)
            if got != want:
                bad.append(f"adjacency mismatch: {a.label} vs {b.label}")
        for _ in range(30):
            v = rand_vertex()
            if v.m == 0 and v.x.first_one() is None:
                continue
            degrees += 1
            if len(neighbors(v, prefix)) != 2:
                bad.append(f"degree is not 2 at {v.label}")
    report("limit-adjacency", bad,
           f"{pairs} vertex pairs agree with level-by-level construction to "
           f"depth 12, zero vertex degree 1, {degrees} sampled degrees 2")


def test_equivalence_towers():
    rng = random.Random(110)
    bad = []
    ident = 0
    for length in range(0, 7):
        for c in itertools.product((1, 3, 5), repeat=length):
            t = plan_equivalence(c, c, length)
            ident += 1
            if not verify_equivalence(t).ok:
                bad.append(f"identity tower fails for {c}")
            elif t.level_map != tuple(range(length + 1)):
                bad.append(f"identity tower level map off for {c}")
    cross = plan_equivalence((3, 5), (1, 3, 5, 7), 2)
    if not verify_equivalence(cross).ok:
        bad.append("tower from (3,5) into (1,3,5,7) fails verification")
    successes = 0
    for _ in range(30):
        c = random_odd_prefix(rng, rng.randint(1, 3), 7)
        d = random_odd_prefix(rng, rng.randint(1, 5), 9)
        try:
            t = plan_equivalence(c, d, rng.randint(1, len(c)))
        except GapInsufficient:
            continue
        successes += 1
        if not verify_equivalence(t).ok:
            bad.append(f"planned tower fails for {c} into {d}")
    report("equivalence-towers", bad,
           f"{ident} identity towers over values 1,3,5 up to length 6 "
           f"verified, cross-prefix plan verified, {successes} random "
           f"planner successes verified")


def test_determinism(tmp_path):
    bad = []
    pet = tmp_path / "petersen.json"
    pet.write_text(json.dumps(petersen_graph().to_json_dict()))

    def run(*args, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        return subprocess.run([sys.executable, "-m", "oddwalk.cli", *args],
                              capture_output=True, text=True, env=env)

    outs = [run("dichotomy", "--graph", str(pet), "--depth", "4",
                hashseed=hs) for hs in ("0", "1")]
    if any(p.returncode != 0 for p in outs):
        bad.append("dichotomy run failed")
    elif outs[0].stdout != outs[1].stdout:
        bad.append("dichotomy output differs across hash seeds")

    outs = [run("check", "--seed", "5", hashseed=hs) for hs in ("0", "1")]
    if any(p.returncode != 0 for p in outs):
        bad.append("check run failed")
    elif outs[0].stdout != outs[1].stdout:
        bad.append("check output differs across hash seeds")
    report("determinism", bad,
           "dichotomy and check outputs byte-identical across repeated "
           "runs under different interpreter hash seeds")
