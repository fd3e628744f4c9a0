"""Seeded inputs for the end-to-end benchmark: graph files and op lists.

A workload is a fixed list of groups.  A group is one input (a target graph
or a parameter prefix) plus the `oddwalk` commands a user would run on it.
Every group has VARIANTS concrete instances, each drawn from a generator
keyed by workload, group and variant index, so that every instance has a
golden digest in golden/<workload>.json.  The run seed picks one variant
per group.  Instances of one group share their shape (vertex and witness
counts, odd girth at the tower root, gadget size window), so the cost of a
pass barely depends on the seed while the bytes the program sees do.

This module is harness code: it never imports oddwalk, so a change to the
program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import deque
from pathlib import Path

VARIANTS = 8
WORKLOADS = ("towers", "profiles", "symbolic")


# -- abstract graphs --------------------------------------------------------
# An abstract graph is (n, pairs) on vertices 0..n-1; pairs may repeat
# (parallel witnesses) but never form loops.

def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return n, list(itertools.combinations(range(n), 2))


def petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, pairs


def grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return rows * cols, pairs


def hypercube(d):
    return 1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                    if not v >> b & 1]


def gnm(rng, n, m, multi=0):
    """Uniform simple graph with exactly m edges, then `multi` parallel copies."""
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    return n, pairs + rng.sample(pairs, multi)


def bipartite_gnm(rng, n, m, multi=0):
    """Uniform bipartite graph on parts of n//2 and n - n//2 vertices."""
    half = n // 2
    pairs = rng.sample([(a, b) for a in range(half) for b in range(half, n)], m)
    return n, pairs + rng.sample(pairs, multi)


def union(*parts):
    n, pairs = 0, []
    for pn, ppairs in parts:
        pairs += [(u + n, v + n) for u, v in ppairs]
        n += pn
    return n, pairs


def _adjacency(vertices, pairs):
    adj = {v: [] for v in vertices}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _parity_dist(adj, sources):
    dist = {(s, 0): 0 for s in sources}
    queue = deque(dist)
    while queue:
        v, p = queue.popleft()
        for u in adj[v]:
            if (u, 1 - p) not in dist:
                dist[(u, 1 - p)] = dist[(v, p)] + 1
                queue.append((u, 1 - p))
    return dist


def odd_components(vertices, pairs):
    """Vertices of the components that hold an odd closed walk."""
    adj = _adjacency(vertices, pairs)
    seen, odd = set(), set()
    for root in vertices:
        if root in seen:
            continue
        dist = _parity_dist(adj, [root])
        comp = {v for v, _ in dist}
        seen |= comp
        if any((v, 0) in dist and (v, 1) in dist for v in comp):
            odd |= comp
    return odd


def root_odd_girth(vertices, pairs):
    """Least odd closed walk at the least vertex of an odd component.

    That vertex is where `decide` pins its tower, and the odd girth there
    fixes every join length of the tower, hence its size.
    """
    odd = odd_components(vertices, pairs)
    if not odd:
        return None
    root = min(odd)
    return _parity_dist(_adjacency(vertices, pairs), [root])[(root, 1)]


# -- graph files ------------------------------------------------------------

class GraphFile:
    """A named, relabeled graph as the program will read it."""

    def __init__(self, rng, name, abstract, fmt="json"):
        n, pairs = abstract
        tag = rng.choice("abcdefghjkmnpqrstuvxyz")
        nums = rng.sample(range(10 * n + 10), n)
        self.vertices = [f"{tag}{x}" for x in nums]
        pairs = [(self.vertices[u], self.vertices[v]) for u, v in pairs]
        rng.shuffle(pairs)
        if fmt == "json":
            wids = [f"e{x}" for x in rng.sample(range(10 * len(pairs) + 10),
                                                 len(pairs))]
        else:
            # edge-list text: the program names witnesses w0, w1, ... by line
            wids = [f"w{i}" for i in range(len(pairs))]
        self.witnesses = {w: p for w, p in zip(wids, pairs)}
        self.name = f"{name}.{'json' if fmt == 'json' else 'txt'}"
        self.fmt = fmt
        self.odd = odd_components(self.vertices, pairs)

    @property
    def bipartite(self) -> bool:
        return not self.odd

    def root_girth(self):
        return root_odd_girth(self.vertices, list(self.witnesses.values()))

    def text(self) -> str:
        if self.fmt == "json":
            order = list(self.vertices)
            return json.dumps({
                "vertices": order,
                "witnesses": [{"id": w, "ends": list(p)}
                              for w, p in self.witnesses.items()]}) + "\n"
        lines = [f"{u} {v}" for u, v in self.witnesses.values()]
        used = {x for p in self.witnesses.values() for x in p}
        lines += [v for v in self.vertices if v not in used]
        return "\n".join(lines) + "\n"


# -- prefixes and gadget labels ----------------------------------------------

def gadget_size(prefix) -> int:
    v = 1
    for c in prefix:
        v = 2 * v + c + 1
    return v


def prefix_in_window(rng, level, lo, hi, values=(1, 3, 5)):
    while True:
        p = [rng.choice(values) for _ in range(level)]
        if lo <= gadget_size(p) <= hi:
            return p


def csv(prefix) -> str:
    return ",".join(map(str, prefix))


def random_gadget_label(rng, prefix) -> str:
    """A vertex of the level-len(prefix) gadget, as its label p<k>.<bits>."""
    n = len(prefix)
    m = rng.randint(0, n)
    k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
    bits = "".join(rng.choice("01") for _ in range(n - m))
    return f"p{k}" + (f".{bits}" if bits else "")


def random_lc_vertex(rng, prefix, m=None) -> str:
    """Limit-graph vertex m:k:prefix:period valid for the prefix."""
    if m is None:
        m = rng.randint(0, len(prefix))
    k = 0 if m == 0 else rng.randint(0, prefix[m - 1])
    head = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    return f"{m}:{k}:{head}:{period}"


# -- workloads ----------------------------------------------------------------
# A builder takes two generators: `shape` is the same for every variant of
# a group and draws what sets the cost (graph structure, prefixes, sizes);
# `rng` is the variant's own and draws labels, witness ids, file order and
# query arguments.  Both `oddwalk` output and digests change with the
# variant, the work done barely does.  A builder returns (files, ops); an
# op is (name, argv, check), where check is None or the facts the
# harness-side certificate check needs.

def _tower_op(g, depth):
    check = {"graph": g.name, "depth": depth, "bipartite": g.bipartite}
    return (f"d{depth}", ["dichotomy", "--graph", g.name, "--depth", str(depth)],
            check)


def _towers_groups():
    """Towers at depth 4-8, a third of them on bipartite inputs.

    Depth-d towers extend a level-(d-1) gadget; the measured ops keep that
    gadget below the size at which the seed's recursive enumeration hits
    the interpreter's recursion limit.  The inputs past it are the probes.
    """
    groups = []

    def tower(name, make, depth, girth=None, fmt="json"):
        def build(shape, rng):
            abstract = make(shape)
            g = GraphFile(rng, name, abstract, fmt)
            # decide pins the tower at the least label of an odd component,
            # and the odd girth there fixes every join length: relabel until
            # it is the group's
            while girth is not None and g.root_girth() != girth:
                g = GraphFile(rng, name, abstract, fmt)
            return [g], [_tower_op(g, depth)]
        groups.append((name, build))

    for n, depth in ((3, 6), (3, 8), (5, 5), (5, 7), (5, 8), (7, 4), (7, 6),
                     (7, 7), (9, 5), (9, 7), (11, 4), (11, 6), (13, 5),
                     (15, 4), (15, 6), (17, 5), (19, 4), (21, 5), (23, 4),
                     (25, 5), (27, 4), (29, 5), (31, 4), (31, 5)):
        tower(f"C{n}-d{depth}", lambda shape, n=n: cycle(n), depth,
              fmt="txt" if n % 4 == 1 else "json")
    for depth in (5, 7, 8):
        tower(f"petersen-d{depth}", lambda shape: petersen(), depth)
    for depth in (6, 8):
        tower(f"K4-d{depth}", lambda shape: complete(4), depth, fmt="txt")
    for n, m, multi, depth in ((10, 20, 3, 6), (14, 45, 7, 7), (20, 60, 10, 6),
                               (30, 110, 15, 5), (40, 150, 20, 7),
                               (60, 200, 20, 6)):
        tower(f"gnm{n}-{m}-d{depth}",
              lambda shape, n=n, m=m, multi=multi: gnm(shape, n, m, multi),
              depth, girth=3)
    tower("C5+bip20-d6",
          lambda shape: union(cycle(5), bipartite_gnm(shape, 20, 40)), 6)
    tower("C7+bip40-d5",
          lambda shape: union(bipartite_gnm(shape, 40, 80), cycle(7)), 5)
    tower("K4+C8-d7", lambda shape: union(cycle(8), complete(4)), 7)
    # bipartite third: coloring branch, parity BFS from every vertex
    for n, depth in ((4, 4), (8, 6), (16, 8), (32, 10), (64, 9)):
        tower(f"C{n}-d{depth}", lambda shape, n=n: cycle(n), depth,
              fmt="txt" if n % 16 else "json")
    for n, m, depth in ((20, 40, 5), (50, 100, 7), (80, 160, 4),
                        (120, 240, 10), (160, 320, 6), (200, 400, 8)):
        tower(f"bip{n}-{m}-d{depth}",
              lambda shape, n=n, m=m: bipartite_gnm(shape, n, m), depth)
    tower("grid8x8-d6", lambda shape: grid(8, 8), 6, fmt="txt")
    tower("Q5-d7", lambda shape: hypercube(5), 7)
    tower("C6+C10-d5", lambda shape: union(cycle(6), cycle(10)), 5)
    return groups


def _towers_probes():
    """The seed's RecursionError points: kept, counted, never measured."""
    groups = []
    for n in (5, 7, 9):
        def build(shape, rng, n=n):
            g = GraphFile(rng, f"probe-C{n}", cycle(n))
            return [g], [_tower_op(g, 9), _tower_op(g, 10)]
        groups.append((f"probe-C{n}", build))
    return groups


def _profiles_groups():
    """Unpinned profiles over seeded targets, levels 3-6, no towers.

    Targets sit on both sides of the compiled kernel's 64-vertex,
    64-witness limit; one is bipartite (tiny at once), one mixes an odd
    cycle with a bipartite part.
    """
    windows = {3: (24, 40), 4: (52, 84), 5: (110, 170), 6: (226, 340)}

    def prefix(shape, level):
        return prefix_in_window(shape, level, *windows[level], values=(1, 3, 5, 7))

    def target(name, make, levels, enum, fmt="json", even_set=False):
        def build(shape, rng):
            g = GraphFile(rng, name, make(shape), fmt)
            homset = ["homset", "--graph", g.name, "--c"]
            ops = [(f"homset-l{level}", homset + [csv(prefix(shape, level))], None)
                   for level in levels]
            p = prefix(shape, 4)
            labels = sorted({random_gadget_label(rng, p) for _ in range(3)})
            ops.append(("homset-project", homset + [csv(p)] + [
                arg for label in labels for arg in ("--project", label)], None))
            level, k = enum
            ops.append((f"homset-enum{k}", homset + [
                csv(prefix(shape, level)), "--enumerate", str(k)], None))
            even = sorted(set(g.vertices) - g.odd)
            pool = sorted(g.odd) or even
            vset = sorted(rng.sample(pool, 3))
            ops.append(("phi-cert", ["phi", "--graph", g.name, "--set", *vset,
                                     "--certificate"], None))
            if even_set:
                vset = sorted(rng.sample(even, 2))
                ops.append(("phi-cert-even",
                            ["phi", "--graph", g.name, "--set", *vset,
                             "--k", "3", "--certificate"], None))
            return [g], ops
        return (name, build)

    return [
        target("t16", lambda shape: gnm(shape, 16, 36, 4), (3, 5, 6), (4, 10)),
        target("t24", lambda shape: gnm(shape, 24, 50, 6), (3, 5, 6), (5, 8),
               fmt="txt"),
        target("t40", lambda shape: gnm(shape, 40, 56, 6), (4, 6), (3, 20)),
        target("u36", lambda shape: union(cycle(7),
                                          bipartite_gnm(shape, 29, 50, 6)),
               (3, 5), (4, 12), even_set=True),
        target("t60", lambda shape: gnm(shape, 60, 150, 15), (3, 5), (4, 10)),
        target("t90", lambda shape: gnm(shape, 90, 190, 20), (3, 6), (3, 6),
               fmt="txt"),
        target("t120", lambda shape: gnm(shape, 120, 230, 25), (3, 5), (4, 5)),
        target("b48", lambda shape: bipartite_gnm(shape, 48, 90, 8), (3, 6),
               (5, 15), even_set=True),
    ]


def _symbolic_groups():
    """Limit-graph queries, equivalence towers and gadget rendering.

    Queries in a group share one prefix, so later ones find the gadget the
    first one built in the program's gadget cache.
    """

    def lc_group(name, level, window, adjacent_levels, quotient_level,
                 n_queries):
        def build(shape, rng):
            p = prefix_in_window(shape, level, *window)
            c = csv(p)
            ops = []
            for i, m in enumerate(adjacent_levels):
                a = random_lc_vertex(rng, p, m)
                am, ak, ahead, aper = a.split(":")
                if i % 2 == 0 and int(ak) < p[m - 1]:
                    b = f"{am}:{int(ak) + 1}:{ahead}:{aper}"   # adjacent pair
                else:
                    b = random_lc_vertex(rng, p, rng.randint(0, m))
                ops.append((f"adjacent-l{m}", ["lc", "--c", c, "--adjacent", a, b],
                            None))
            t_len = rng.randint(1, 4)
            m = level - t_len - 1
            k = 0 if m == 0 else rng.randint(0, p[m - 1])
            bits = "".join(rng.choice("01") for _ in range(t_len))
            ops.append(("sibling", ["lc", "--c", c, "--sibling", f"{k}:{bits}"],
                        None))
            for i in range(n_queries):
                v = random_lc_vertex(rng, p)
                ops.append((f"neighbors{i}", ["lc", "--c", c, "--neighbors", v],
                            None))
                a, b = random_lc_vertex(rng, p), random_lc_vertex(rng, p)
                ops.append((f"same-component{i}",
                            ["lc", "--c", c, "--same-component", a, b], None))
                v = random_lc_vertex(rng, p, rng.randint(0, level))
                lvl = rng.randint(int(v.split(":")[0]), level)
                ops.append((f"project{i}", ["lc", "--c", c, "--project", v,
                                            "--level", str(lvl)], None))
            if quotient_level:
                ops.append((f"quotient-l{quotient_level}",
                            ["lc", "--c", csv(p[:quotient_level]), "--quotient"],
                            None))
            return [], ops
        return (name, build)

    def equiv_group(name, depths):
        def build(shape, rng):
            ops = []
            for depth in depths:
                # source gadget within 8% of the all-3 prefix's size; target
                # values never above the source's, so each level embeds one
                # level up and the planner's suffix search stays short; the
                # variant draws the two target levels the plan never reaches
                size = 5 * 2 ** depth - 4
                c = prefix_in_window(shape, depth, size * 0.92, size * 1.08)
                d = [shape.choice([x for x in (1, 3, 5) if x <= ci]) for ci in c]
                d += [rng.choice((1, 3, 5, 7)) for _ in range(2)]
                ops.append((f"equiv-d{depth}", ["equiv", "--c", csv(c), "--d",
                                                csv(d), "--depth", str(depth)],
                            None))
            # target prefix too short: the planner reports the gap
            c = [rng.choice((5, 7)) for _ in range(4)]
            ops.append(("equiv-gap", ["equiv", "--c", csv(c), "--d", "1",
                                      "--depth", "4"], None))
            return [], ops
        return (name, build)

    def gadget_group(name, shapes):
        def build(shape, rng):
            ops = []
            for level, lo, hi, fmt in shapes:
                p = prefix_in_window(rng, level, lo, hi)
                ops.append((f"gadget-l{level}-{fmt}",
                            ["gadget", "--c", csv(p), "--format", fmt], None))
            return [], ops
        return (name, build)

    return [
        lc_group("lc16", 16, (260_000, 265_000), (16,), 0, 2),
        lc_group("lc14", 14, (65_000, 67_000), (14, 13), 9, 2),
        lc_group("lc12", 12, (17_000, 19_000), (12, 10, 8), 10, 2),
        lc_group("lc10", 10, (4_300, 4_900), (10, 6), 8, 1),
        equiv_group("equiv", (3, 5, 6, 8, 9, 10)),
        gadget_group("gadget", ((6, 260, 270, "json"), (8, 1_080, 1_100, "json"),
                                (9, 2_200, 2_240, "dot"),
                                (10, 4_500, 4_560, "json"))),
    ]


def groups(workload):
    return {"towers": _towers_groups, "profiles": _profiles_groups,
            "symbolic": _symbolic_groups}[workload]()


def probe_groups(workload):
    return _towers_probes() if workload == "towers" else []


def _instance(workload, group_name, build, variant):
    shape = random.Random(f"{workload}/{group_name}")
    rng = random.Random(f"{workload}/{group_name}/{variant}")
    files, ops = build(shape, rng)
    return files, [{"id": f"{group_name}/{name}#{variant}", "argv": argv,
                    "check": check} for name, argv, check in ops]


def pick_variants(workload, seed):
    """The run seed's choice of one variant per group, probes included."""
    rng = random.Random(f"{workload}:{seed}")
    return {name: rng.randrange(VARIANTS)
            for name, _ in groups(workload) + probe_groups(workload)}


def build_corpus(workload, chosen):
    """Files, measured ops and probe ops for the chosen variants."""
    files, ops, probes = [], [], []
    for name, build in groups(workload):
        f, o = _instance(workload, name, build, chosen[name])
        files += f
        ops += o
    for name, build in probe_groups(workload):
        f, o = _instance(workload, name, build, chosen[name])
        files += f
        probes += o
    argvs = [tuple(op["argv"]) for op in ops]
    if len(set(argvs)) != len(argvs):
        raise ValueError(f"{workload}: a command repeats within a pass")
    return files, ops, probes


def write_corpus(workload, chosen, directory) -> None:
    """Write graph files and ops.json into an empty directory."""
    directory = Path(directory)
    directory.mkdir(parents=True)
    files, ops, probes = build_corpus(workload, chosen)
    for g in files:
        (directory / g.name).write_text(g.text(), encoding="utf-8")
    (directory / "ops.json").write_text(
        json.dumps({"workload": workload, "ops": ops, "probes": probes},
                   indent=1), encoding="utf-8")


def input_digest(op, directory) -> str:
    """sha256 over an op's argv and the bytes of every file it names."""
    h = hashlib.sha256(json.dumps(op["argv"]).encode())
    for arg in op["argv"]:
        path = Path(directory) / arg
        if arg.endswith((".json", ".txt")) and path.is_file():
            h.update(arg.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
