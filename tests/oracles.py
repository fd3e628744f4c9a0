"""Second-opinion reference computations for the tests.

Everything here works straight off the raw witness data with a different
algorithm than the package uses: neighborhood iteration instead of parity
BFS, integer matrix powers instead of path DP, a direct properness scan,
and lookups of copy parents by gadget label instead of path layout
slices.  Expected values in the tests come from these or from
hand-checked literals, never from the code under test.

Gadgets are lists here: gadget_vertices_from_root replays the path level
by level from the root, with none of the package's closed forms or label
recurrence, and every oracle that needs a vertex list or a position map
reads that.  Every JSON output that the package writes as rows from
labels (gadget, level quotient, homomorphism, tower and equivalence tower)
is rebuilt here as a dict from that list.

Some are the straightforward forms of code the package now runs a faster
way: gadgets replayed level by level from the root, homomorphism
validation one vertex and one edge at a time, the un-memoized two-sweep
propagation, tininess by one odd-walk BFS per gadget position, smallness
by every image of every member, largeness by a propagation sweep of the
profile cut to the non-bipartite components, components
and component 2-colorings by a BFS of their own, exact-length walks from
reach sets expanded step by step, every least walk (exact, along a path
and least-neighbour) stepped one step at a time where the package repeats
its loop (walks.greedy_walk), the tower driver as a composition of
profile operations, every tower level read off the top through the
vertex list, homomorphism, tower and equivalence-tower JSON with
labels read off built gadgets, the limit-graph component test by a wide
shift scan, the equivalence planner and verifier with GadgetVertex
images appended and compared label by label, and the CLI's argv read by
one top-level parser that hands the rest to a subcommand's parser.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from collections import deque

from oddwalk.bruteforce import all_homs, double, pin, restricted
from oddwalk.cli import _SUBCOMMANDS
from oddwalk.dichotomy import unbounded_schedule_default
from oddwalk.equiv import EquivalenceTower, EquivReport, path_walk_exists
from oddwalk.errors import (GapInsufficient, NotHomomorphism, OddwalkError,
                            ParseError)
from oddwalk.gadget import GadgetVertex, build_gadget, check_odd_prefix, is_natural
from oddwalk.graphs import Coloring, Walk, vertex_pair
from oddwalk.homset import Hom, extend_witness
from oddwalk.parity import (bipartite_certificate, nonbipartite_vertices,
                            parity_distances, phi_bound)


def adjacency(g) -> dict:
    """vertex -> sorted neighbor tuple, rebuilt from the ends map."""
    nbr = {v: set() for v in g.vertices}
    for u, v in g.ends.values():
        nbr[u].add(v)
        nbr[v].add(u)
    return {v: tuple(sorted(s)) for v, s in nbr.items()}


def components(g) -> tuple:
    """Connected components, each sorted, ordered by least member, by a
    BFS over adjacency(g) from each least unseen vertex."""
    nbr = adjacency(g)
    seen: set = set()
    comps = []
    for root in g.vertices:
        if root in seen:
            continue
        queue = deque([root])
        seen.add(root)
        comp = []
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in nbr[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _least_witness(g, u, v) -> str:
    """The least witness id joining u and v, read off the ends map."""
    return min(w for w, pair in g.ends.items() if pair == vertex_pair(u, v))


def exact_walk_by_reach_sets(g, start, end, length: int):
    """parity.exact_walk by reach sets: reach[r] holds the vertices that
    start a walk of exactly r steps to end, each set expanded in full from
    the one before; each step takes the least neighbour in the next set and
    the least witness joining the two."""
    nbr = adjacency(g)
    reach = [{end}]
    for _ in range(length):
        reach.append({y for x in reach[-1] for y in nbr[x]})
    if start not in reach[length]:
        return None
    verts = [start]
    wits = []
    for r in range(length - 1, -1, -1):
        cur = verts[-1]
        z = next(z for z in nbr[cur] if z in reach[r])
        wits.append(_least_witness(g, cur, z))
        verts.append(z)
    return Walk(tuple(verts), tuple(wits))


def exact_walk_per_step(g, start, end, length: int):
    """parity.exact_walk one step at a time, with end's parity table and
    no loop skip: each step takes the least neighbour z within r of end at
    parity r mod 2, r the steps left after it."""
    nbr = adjacency(g)
    dist = parity_distances(g, [end])
    if (dist.get((start, length % 2), length + 1) > length
            or (length and not nbr[end])):
        return None
    verts = [start]
    wits = []
    for r in range(length - 1, -1, -1):
        cur = verts[-1]
        z = next(z for z in nbr[cur] if dist.get((z, r % 2), r + 1) <= r)
        wits.append(_least_witness(g, cur, z))
        verts.append(z)
    return Walk(tuple(verts), tuple(wits))


def path_exact_walk_per_step(n_vertices: int, start: int, end: int,
                             length: int) -> list[int]:
    """equiv.path_exact_walk one step at a time, for a walk that exists:
    each step goes down when end is still within the steps left at their
    parity from there, else up."""
    walk = [start]
    for r in range(length - 1, -1, -1):
        cur = walk[-1]
        walk.append(next(p for p in (cur - 1, cur + 1) if 0 <= p < n_vertices
                         and abs(p - end) <= r and (r - abs(p - end)) % 2 == 0))
    return walk


def least_walk_per_step(g, start, steps: int) -> tuple[list, list]:
    """homset._least_walk one step at a time: to the least neighbour, along
    the least witness, with no loop skip."""
    nbr = adjacency(g)
    verts, wits = [start], []
    for _ in range(steps):
        z = nbr[verts[-1]][0]
        wits.append(_least_witness(g, verts[-1], z))
        verts.append(z)
    return verts, wits


def odd_lengths(g, a, cap: int) -> list[int]:
    """All odd walk lengths up to cap with both endpoints in the set."""
    nbr = adjacency(g)
    aset = set(a)
    out = []
    frontier = set(aset)
    for step in range(1, cap + 1):
        frontier = {u for v in frontier for u in nbr[v]}
        if step % 2 == 1 and frontier & aset:
            out.append(step)
    return out


def min_odd_length(g, a, cap: int):
    lengths = odd_lengths(g, a, cap)
    return lengths[0] if lengths else None


def witness_matrix(g) -> list[list[int]]:
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    mat = [[0] * n for _ in range(n)]
    for u, v in g.ends.values():
        mat[index[u]][index[v]] += 1
        mat[index[v]][index[u]] += 1
    return mat


def walk_count(g, length: int) -> int:
    """Walks of exactly this length, counting witness choices per step."""
    mat = witness_matrix(g)
    n = len(mat)
    vec = [1] * n
    for _ in range(length):
        vec = [sum(mat[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)


def closed_walks_at(g, v: str, length: int) -> int:
    mat = witness_matrix(g)
    n = len(mat)
    i0 = list(g.vertices).index(v)
    vec = [0] * n
    vec[i0] = 1
    for _ in range(length):
        vec = [sum(mat[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return vec[i0]


def proper(g, colors: dict) -> bool:
    """Direct properness scan over the ends map."""
    return all(colors[u] != colors[v] for u, v in g.ends.values())


def vertex_walks(g, length: int, start=None):
    """All vertex sequences of walks with the given number of steps."""
    nbr = adjacency(g)
    starts = [start] if start is not None else list(g.vertices)
    stack = [(s,) for s in starts]
    for _ in range(length):
        stack = [walk + (u,) for walk in stack for u in nbr[walk[-1]]]
    return stack


def all_subsets(items, max_size=None):
    items = list(items)
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from itertools.combinations(items, size)


def gadget_vertices_from_root(prefix) -> tuple:
    """The gadget's vertices in path order, every level replayed from the
    root: copy 0, the join, copy 1 reversed."""
    verts = (GadgetVertex(0, ()),)
    for c in prefix:
        copy0 = tuple(v.append(0) for v in verts)
        join = tuple(GadgetVertex(k, ()) for k in range(c + 1))
        copy1 = tuple(v.append(1) for v in reversed(verts))
        verts = copy0 + join + copy1
    return verts


def gadget_positions_from_root(prefix) -> dict:
    """vertex -> path position over gadget_vertices_from_root(prefix)."""
    return {v: i for i, v in enumerate(gadget_vertices_from_root(prefix))}


def gadget_json_dict(g) -> dict:
    """The JSON of `oddwalk gadget` as a dict, every field read off
    gadget_vertices_from_root: labels by GadgetVertex.label, birth levels
    from copy histories."""
    verts = gadget_vertices_from_root(g.prefix)
    n = len(g.prefix)
    return {
        "c": list(g.prefix),
        "oddPrefix": all(c % 2 == 1 for c in g.prefix),
        "vertexCount": len(verts),
        "edgeCount": len(verts) - 1,
        "sizeNote": ("single-vertex base recursion; an edge-based variant "
                     f"yields {len(verts) + 2 ** n} vertices"),
        "vertices": [{"label": v.label, "k": v.k, "t": "".join(map(str, v.t)),
                      "birthLevel": n - len(v.t)} for v in verts],
        "edges": [[a.label, b.label] for a, b in zip(verts, verts[1:])],
    }


def quotient_classes(prefix) -> tuple:
    """The level quotient's classes (m, k, t) in path order: each vertex of
    gadget_vertices_from_root with its birth level."""
    n = len(prefix)
    return tuple((n - len(v.t), v.k, v.t) for v in gadget_vertices_from_root(prefix))


def quotient_json_dict(q) -> dict:
    """The JSON of `oddwalk lc --quotient` as a dict, from quotient_classes."""
    classes = quotient_classes(q.prefix)
    return {"c": list(q.prefix),
            "classes": [{"m": m, "k": k, "bits": "".join(map(str, t))}
                        for m, k, t in classes],
            "edges": [[i, i + 1] for i in range(len(classes) - 1)]}


def validate_hom_per_edge(gadget, target, hom) -> None:
    """homset.validate_hom one vertex and one edge at a time: raises the
    NotHomomorphism that names the first fault."""
    if len(hom.vertex_images) != gadget.vertex_count:
        raise NotHomomorphism("wrong number of vertex images")
    if len(hom.witness_images) != gadget.edge_count:
        raise NotHomomorphism("wrong number of witness images")
    for img in hom.vertex_images:
        if not target.has_vertex(img):
            raise NotHomomorphism(f"image {img!r} is not a target vertex")
    for j, wid in enumerate(hom.witness_images):
        if wid not in target.ends:
            raise NotHomomorphism(f"unknown witness id {wid!r} at edge {j}")
        want = vertex_pair(hom.vertex_images[j], hom.vertex_images[j + 1])
        if target.ends[wid] != want:
            a, b = gadget_vertices_from_root(gadget.prefix)[j:j + 2]
            raise NotHomomorphism(
                f"edge {a.label}--{b.label}: witness {wid!r} joins "
                f"{target.ends[wid]}, images are {want}")


def _parent_position(parents, v):
    """Position of the vertex that v copies, in the level below, whose
    position map is `parents`."""
    return parents[GadgetVertex(v.k, v.t[:-1])]


def double_masks(p, join_length: int):
    """Label-based bruteforce.double: the level-(n+1) gadget and the masks it
    propagates.  Copy vertices take their parent's domain; join vertices and
    edges touching the join are unconstrained."""
    parents = gadget_positions_from_root(p.gadget.prefix)
    big = build_gadget(p.gadget.prefix + (join_length,))
    big_verts = gadget_vertices_from_root(big.prefix)
    allv = (1 << len(p.target.vertices)) - 1
    allw = (1 << len(p.target.witnesses)) - 1
    vmasks = [p.vmasks[_parent_position(parents, v)] if v.t else allv
              for v in big_verts]
    wmasks = []
    for u, v in zip(big_verts, big_verts[1:]):
        if u.t and v.t:
            j = min(_parent_position(parents, u), _parent_position(parents, v))
            wmasks.append(p.wmasks[j])
        else:
            wmasks.append(allw)
    return big, vmasks, wmasks


def glue_images(small, phi0, join_length: int, walk):
    """Label-based homset.glue_hom: (vertex images, witness images)."""
    big_verts = gadget_vertices_from_root(small.prefix + (join_length,))
    parents = gadget_positions_from_root(small.prefix)
    vimgs = [phi0.vertex_images[_parent_position(parents, v)] if v.t
             else walk.vertices[v.k + 1] for v in big_verts]
    wimgs = []
    for u, v in zip(big_verts, big_verts[1:]):
        if u.t and v.t:
            j = min(_parent_position(parents, u), _parent_position(parents, v))
            wimgs.append(phi0.witness_images[j])
        elif not u.t and not v.t:
            wimgs.append(walk.witnesses[u.k + 1])
        elif u.t:
            wimgs.append(walk.witnesses[0])
        else:
            wimgs.append(walk.witnesses[join_length + 1])
    return tuple(vimgs), tuple(wimgs)


def restriction_images(big, small, hom, bit: int):
    """Label-based homset.copy_restriction: (vertex images, witness images)."""
    big_pos = gadget_positions_from_root(big.prefix)
    pos = [big_pos[v.append(bit)] for v in gadget_vertices_from_root(small.prefix)]
    vimgs = tuple(hom.vertex_images[i] for i in pos)
    wimgs = tuple(hom.witness_images[min(a, b)] for a, b in zip(pos, pos[1:]))
    return vimgs, wimgs


def two_color_components(g, comps) -> Coloring:
    """Parity 2-coloring of the given bipartite components by BFS from each
    component's least vertex."""
    nbr = adjacency(g)
    colors: dict[str, int] = {}
    for comp in comps:
        root = min(comp)
        colors[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in nbr[x]:
                if y not in colors:
                    colors[y] = 1 - colors[x]
                    queue.append(y)
    return Coloring(colors)


def path_propagate_two_sweep(vmasks, wmasks, wit_ends):
    """kernels.path_propagate without the step memo: every step of the
    forward and the backward sweep decodes its witness mask afresh."""
    vmasks = list(vmasks)
    wmasks = list(wmasks)
    for i in range(len(wmasks)):
        left, allowed, keep = vmasks[i], 0, 0
        for w in range(len(wit_ends)):
            if wmasks[i] >> w & 1:
                a, b = wit_ends[w]
                if left >> a & 1:
                    allowed |= 1 << b
                if left >> b & 1:
                    allowed |= 1 << a
                if left >> a & 1 or left >> b & 1:
                    keep |= 1 << w
        wmasks[i] = keep
        vmasks[i + 1] &= allowed
    for i in range(len(wmasks) - 1, -1, -1):
        right, allowed = vmasks[i + 1], 0
        for w in range(len(wit_ends)):
            if wmasks[i] >> w & 1:
                a, b = wit_ends[w]
                if right >> a & 1:
                    allowed |= 1 << b
                if right >> b & 1:
                    allowed |= 1 << a
        vmasks[i] &= allowed
        left, keep = vmasks[i], 0
        for w in range(len(wit_ends)):
            if wmasks[i] >> w & 1:
                a, b = wit_ends[w]
                if (left >> a & 1 and right >> b & 1) or (left >> b & 1 and right >> a & 1):
                    keep |= 1 << w
        wmasks[i] = keep
    return vmasks, wmasks


def is_tiny_per_position(homs):
    """homset.is_tiny by one phi_bound BFS per gadget position:
    (tiny, first tiny gadget vertex or None)."""
    for u in gadget_vertices_from_root(homs.gadget.prefix):
        if phi_bound(homs.target, homs.project(u)).no_odd_walk:
            return True, u
    return False, None


def is_small_all_images(s) -> bool:
    """homset.is_small by every image of every member: no member lies
    wholly in the non-bipartite components."""
    nb = nonbipartite_vertices(s.target)
    for hom in s.homs:
        if all(img in nb for img in hom.vertex_images):
            return False
    return True


def large_witness_by_sweep(p):
    """homset.is_large's witness by a propagation sweep: the first member
    of p with every vertex mask cut to the non-bipartite components, or
    None when that cut is empty."""
    g = p.target
    nb = nonbipartite_vertices(g)
    nbmask = sum(1 << i for i, v in enumerate(g.vertices) if v in nb)
    homs = restricted(p, [m & nbmask for m in p.vmasks], p.wmasks).enumerate_homs(1)[0].homs
    return homs[0] if homs else None


def decide_via_profiles(g, depth: int, schedule=None):
    """dichotomy.decide as the composition it replaces: bipartite_certificate
    for the branch, then per level extend_witness and pin(double(...)).

    Returns the Coloring, or the tower as (prefix, levels, schedule values)
    with every level built from its own profile: compare a Tower with it
    through levels_form."""
    if schedule is None:
        schedule = unbounded_schedule_default()
    cert = bipartite_certificate(g)
    if isinstance(cert, Coloring):
        return cert
    root_value = min(nonbipartite_vertices(g))
    phi = Hom((root_value,), ())
    profile = pin(all_homs(build_gadget(()), g), phi)
    prefix, levels, bounds = [], [phi], []
    for n in range(depth):
        bound = schedule(n)
        d, phi = extend_witness(profile, bound)
        profile = pin(double(profile, d), phi)
        prefix.append(d)
        bounds.append(bound)
        levels.append(phi)
    return tuple(prefix), tuple(levels), tuple(bounds)


def tower_levels(t) -> tuple:
    """Each level of the tower as a Hom, read off its top through
    gadget_vertices_from_root: level n's vertex v sits in the top where v
    with len(prefix) - n trailing 0 bits does, and its edge a--b takes the
    witness of the top edge between those two positions."""
    top = gadget_positions_from_root(t.prefix)
    levels = []
    for n in range(len(t.prefix) + 1):
        zeros = (0,) * (len(t.prefix) - n)
        pos = [top[GadgetVertex(v.k, v.t + zeros)]
               for v in gadget_vertices_from_root(t.prefix[:n])]
        levels.append(Hom(
            tuple(t.top.vertex_images[i] for i in pos),
            tuple(t.top.witness_images[min(a, b)] for a, b in zip(pos, pos[1:]))))
    return tuple(levels)


def levels_form(result):
    """A decide result in decide_via_profiles's form: a Coloring as it is,
    a Tower as (prefix, tower_levels, schedule values)."""
    if isinstance(result, Coloring):
        return result
    return result.prefix, tower_levels(result), result.schedule_values


def hom_json_dict(prefix, hom) -> dict:
    """The JSON of one homomorphism over the gadget for the prefix, as
    `oddwalk homset` and each `oddwalk dichotomy` tower level write it:
    vertex labels and edge labels a--b read off gadget_vertices_from_root."""
    verts = gadget_vertices_from_root(prefix)
    return {
        "vertexAssignments": {v.label: img
                              for v, img in zip(verts, hom.vertex_images)},
        "witnessAssignments": {f"{a.label}--{b.label}": wid for a, b, wid
                               in zip(verts, verts[1:], hom.witness_images)},
    }


def tower_json_via_gadgets(t) -> dict:
    """The tower JSON of `oddwalk dichotomy` as a dict, each level of
    tower_levels by hom_json_dict."""
    return {"c": list(t.prefix),
            "levels": [hom_json_dict(t.prefix[:n], hom)
                       for n, hom in enumerate(tower_levels(t))],
            "schedule": list(t.schedule_values)}


def _equiv_json(t, image_label) -> dict:
    """The equivalence tower JSON of `oddwalk equiv` as a dict, with source
    labels read off built gadgets and image_label(n, image) naming each
    level-n image."""
    maps = [{v.label: image_label(n, img)
             for v, img in zip(gadget_vertices_from_root(t.source_prefix[:n]), images)}
            for n, images in enumerate(t.maps)]
    return {"c": list(t.source_prefix), "d": list(t.target_prefix),
            "levelMap": list(t.level_map),
            "suffixes": [["".join(map(str, s)) for s in pair] for pair in t.suffixes],
            "joinWalks": [list(w) for w in t.join_walks],
            "maps": maps}


def equiv_json_via_gadgets(t) -> dict:
    """_equiv_json with source and target labels read off built gadgets."""
    targets = [gadget_vertices_from_root(t.target_prefix[:m]) for m in t.level_map]
    return _equiv_json(t, lambda n, pos: targets[n][pos].label)


def _append_suffix(v, suffix):
    return GadgetVertex(v.k, v.t + suffix)


def plan_equivalence_via_vertices(c, d, depth: int):
    """equiv.plan_equivalence as it was with GadgetVertex images: every
    suffix pair at every target level up to len(d), images appended suffix
    by suffix.  Exponential in the target levels searched; small sizes only.
    Its maps hold GadgetVertex objects, not positions."""
    c, d = check_odd_prefix(c), check_odd_prefix(d)
    if not is_natural(depth):
        raise ParseError(f"depth must be a natural number, got {depth!r}")
    if depth > len(c):
        raise ParseError(f"depth {depth} exceeds source prefix length {len(c)}")
    level_map = [0]
    maps = [(GadgetVertex(0, ()),)]
    suffixes, walks = [], []
    for n in range(depth):
        length = c[n] + 2
        glue_img = maps[n][-1]
        found = None
        for mm in range(level_map[n], len(d) + 1):
            target = gadget_positions_from_root(d[:mm])
            slen = mm - level_map[n]
            for s0, s1 in itertools.product(itertools.product((0, 1), repeat=slen),
                                            repeat=2):
                a0 = target[_append_suffix(glue_img, s0)]
                a1 = target[_append_suffix(glue_img, s1)]
                if path_walk_exists(abs(a0 - a1), length):
                    found = (mm, s0, s1, a0, a1)
                    break
            if found:
                break
        if not found:
            raise GapInsufficient(
                f"target prefix {d} cannot absorb level {n} "
                f"(join length {length} from image {glue_img.label})")
        mm, s0, s1, a0, a1 = found
        target = gadget_vertices_from_root(d[:mm])
        walk = path_exact_walk_per_step(len(target), a0, a1, length)
        images = ([_append_suffix(img, s0) for img in maps[n]]
                  + [target[p] for p in walk[1:-1]]
                  + [_append_suffix(img, s1) for img in reversed(maps[n])])
        level_map.append(mm)
        suffixes.append((s0, s1))
        walks.append(tuple(walk))
        maps.append(tuple(images))
    return EquivalenceTower(c, d, tuple(level_map), tuple(suffixes),
                            tuple(walks), tuple(maps))


def verify_equivalence_via_vertices(t) -> EquivReport:
    """equiv.verify_equivalence as it was, for a tower whose maps hold
    GadgetVertex images: each image looked up in a built target gadget and
    each copy compared by label with its suffixed parent."""
    checks = 0
    bad = []
    depth = t.depth
    if not (len(t.maps) == depth + 1 and len(t.suffixes) == depth
            and len(t.join_walks) == depth):
        return EquivReport(1, ("inconsistent field lengths",))
    if t.level_map[0] != 0:
        bad.append("level map must start at 0")
    if any(a > b for a, b in zip(t.level_map, t.level_map[1:])):
        bad.append("level map must be nondecreasing")
    sources = []
    for n in range(depth + 1):
        images = t.maps[n]
        checks += 1
        sources.append(gadget_positions_from_root(t.source_prefix[:n]))
        if len(images) != len(sources[n]):
            bad.append(f"level {n}: wrong image count")
            continue
        target = gadget_positions_from_root(t.target_prefix[:t.level_map[n]])
        if not all(img in target for img in images):
            bad.append(f"level {n}: image not in target gadget")
            continue
        positions = [target[img] for img in images]
        for j in range(len(images) - 1):
            checks += 1
            if abs(positions[j] - positions[j + 1]) != 1:
                bad.append(f"level {n}, edge {j}: images {images[j].label}, "
                           f"{images[j + 1].label} not adjacent")
    for n in range(depth):
        small, big = sources[n], sources[n + 1]
        s0, s1 = t.suffixes[n]
        want_len = t.level_map[n + 1] - t.level_map[n]
        checks += 1
        if len(s0) != want_len or len(s1) != want_len:
            bad.append(f"level {n}: suffix lengths must be {want_len}")
            continue
        for v, i in small.items():
            for bit, suf in ((0, s0), (1, s1)):
                checks += 1
                got = t.maps[n + 1][big[v.append(bit)]]
                want = _append_suffix(t.maps[n][i], suf)
                if got != want:
                    bad.append(f"coherence broken at level {n + 1}, copy {bit}, "
                               f"vertex {v.label}: {got.label} vs {want.label}")
        walk = t.join_walks[n]
        checks += 1
        if len(walk) != t.source_prefix[n] + 3:
            bad.append(f"level {n}: join walk must have {t.source_prefix[n] + 3} stops")
            continue
        if any(abs(a - b) != 1 for a, b in zip(walk, walk[1:])):
            bad.append(f"level {n}: join walk is not a walk")
        target = gadget_vertices_from_root(t.target_prefix[:t.level_map[n + 1]])
        if not all(0 <= p < len(target) for p in walk):
            bad.append(f"level {n}: join walk leaves the target gadget")
            continue
        right = GadgetVertex(0, (0,) * (n - 1) + (1,)) if n else GadgetVertex(0, ())
        if (target[walk[0]] != t.maps[n + 1][big[right.append(0)]]
                or target[walk[-1]] != t.maps[n + 1][big[right.append(1)]]):
            bad.append(f"level {n}: join walk endpoints disagree with the maps")
        for k in range(t.source_prefix[n] + 1):
            checks += 1
            if t.maps[n + 1][big[GadgetVertex(k, ())]] != target[walk[k + 1]]:
                bad.append(f"level {n}: join vertex p{k} off the recorded walk")
    return EquivReport(checks, tuple(bad))


def equiv_json_via_vertices(t) -> dict:
    """_equiv_json for a tower whose maps hold GadgetVertex images: each
    image formatted by its own label."""
    return _equiv_json(t, lambda n, img: img.label)


def same_component_wide_scan(a, b) -> bool:
    """limitgraph.same_component by scanning relative shifts over the lcm
    of both period lengths, without assuming that canonical periods are
    primitive."""
    delta = b.m - a.m
    window = max(len(b.x.prefix), len(a.x.prefix) - delta, 0)
    window += math.lcm(len(a.x.period), len(b.x.period))
    for j in range(max(0, -delta), window + 1):
        if a.x.shift(j + delta) == b.x.shift(j):
            return True
    return False


def parse_through_top_level_parser(argv):
    """argv read by one top-level parser: it lists every subcommand, the
    subcommand named by the first item that is not an option gets its
    arguments, and argparse's sub-parser action hands that subcommand's
    parser the rest.  Usage errors and help exit as argparse makes them."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="oddwalk",
        description="Finite workbench for the odd-walk coloring dichotomy.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(subparser)
    return parser.parse_args(argv)


def main_through_top_level_parser(argv) -> int:
    """cli.main with every argv read by parse_through_top_level_parser.  The
    command then runs, and an OddwalkError is one error line and exit 2."""
    args = parse_through_top_level_parser(argv)
    try:
        return args.fn(args)
    except OddwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
