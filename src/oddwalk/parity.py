"""Odd-walk machinery via the parity double cover.

The double cover lives on pairs (vertex, parity); an edge flips the parity
bit.  Minimum odd/even walk lengths between vertex sets are plain BFS
distances there, which is the basis for the odd-walk property tests, the
bipartiteness certificate, and exact-length walk construction.

Because walks may repeat vertices and witnesses, an odd walk of length m can
be padded to any odd length >= m by bouncing on its first edge.  The
operations here rely on that padding fact; the test suite checks it against
brute-force walk enumeration rather than assuming it.

A graph is immutable, so the facts of one graph are computed once and kept
on it (WitnessedGraph.memo): parity_classes, nonbipartite_vertices, the
vertex_odd_girth of each vertex asked about, and each exact_walk.  A tower
on a connected target thus runs two parity BFS in all, whatever its depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParseError
from .gadget import is_natural
from .graphs import Coloring, Walk, WitnessedGraph


@dataclass(frozen=True)
class PhiVerdict:
    """Outcome of the odd-walk test for a vertex set.

    min_odd_length is None when no odd walk has both endpoints in the set;
    otherwise it is the least odd length, and walks of every greater odd
    length exist too (padding), so no finite bound is obeyed.
    """

    min_odd_length: int | None = None

    @property
    def no_odd_walk(self) -> bool:
        return self.min_odd_length is None

    @property
    def kind(self) -> str:
        return "NoOddWalk" if self.no_odd_walk else "Unbounded"

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if not self.no_odd_walk:
            out["minOddLength"] = self.min_odd_length
        return out


def parity_distances(g: WitnessedGraph, sources) -> dict[tuple[str, int], int]:
    """Multi-source BFS distances in the parity double cover.

    Returns the least walk length from any source to each (vertex, parity)
    pair, parity 0 at the sources.
    """
    dist: dict[tuple[str, int], int] = {}
    queue: deque[tuple[str, int]] = deque()
    for s in sorted(set(sources)):
        dist[(s, 0)] = 0
        queue.append((s, 0))
    while queue:
        v, p = queue.popleft()
        d = dist[(v, p)]
        for u in g.neighbors(v):
            key = (u, 1 - p)
            if key not in dist:
                dist[key] = d + 1
                queue.append(key)
    return dist


def phi_bound(g: WitnessedGraph, a) -> PhiVerdict:
    """Least odd length of a walk with both endpoints in the set, if any."""
    aset = sorted(set(a))
    g.require_vertices(aset)
    if not aset:
        return PhiVerdict(None)
    dist = parity_distances(g, aset)
    best = None
    for v in aset:
        d = dist.get((v, 1))
        if d is not None and (best is None or d < best):
            best = d
    return PhiVerdict(best)


def phi_holds(g: WitnessedGraph, a, k: int) -> bool:
    """True iff every odd walk with endpoints in the set has length <= 2k-1.

    With walk padding this is independent of k: it holds iff no odd walk
    with endpoints in the set exists at all.
    """
    if not is_natural(k):
        raise ParseError(f"k must be a natural number, got {k!r}")
    return phi_bound(g, a).no_odd_walk


def vertex_odd_girth(g: WitnessedGraph, v: str) -> int | None:
    """Least odd length of a closed walk at v, or None; one BFS per graph
    and vertex."""
    g.require_vertices([v])
    return g.memo(("odd girth", v), lambda: parity_distances(g, [v]).get((v, 1)))


def is_bipartite(g: WitnessedGraph) -> bool:
    return not nonbipartite_vertices(g)


def nonbipartite_vertices(g: WitnessedGraph) -> frozenset:
    """Union of all connected components containing an odd closed walk."""
    return g.memo("nonbipartite", lambda: frozenset(
        v for v, cls in parity_classes(g).items() if cls is None))


def parity_classes(g: WitnessedGraph) -> dict:
    """Every vertex's parity class, from one parity BFS per component.

    A vertex on a component with an odd closed walk maps to None (the BFS
    reaches it at both parities); any other vertex maps to (root, colour),
    where root is the least vertex of its component and colour the parity
    of its distance from root.  The table is computed once per graph and
    shared, so callers must not mutate it.
    """
    return g.memo("parity classes", lambda: _parity_classes(g))


def _parity_classes(g: WitnessedGraph) -> dict:
    classes: dict = {}
    for root in g.vertices:
        if root in classes:
            continue
        dist = parity_distances(g, [root])
        for v, p in dist:
            classes[v] = None if (v, 1 - p) in dist else (root, p)
    return classes


def no_odd_walk_in(classes: dict, a) -> bool:
    """phi_bound(g, a).no_odd_walk, read off g's parity_classes.

    True iff no vertex of the set lies on a non-bipartite component and no
    two vertices of one component have different colours.
    """
    colour_of: dict = {}
    for v in a:
        cls = classes[v]
        if cls is None or colour_of.setdefault(cls[0], cls[1]) != cls[1]:
            return False
    return True


def exact_reach(g: WitnessedGraph, end: str, length: int) -> list[set]:
    """reach[r] = vertices that start some walk to `end` of length exactly r."""
    g.require_vertices([end])
    reach: list[set] = [{end}]
    for _ in range(length):
        prev = reach[-1]
        cur = {y for x in prev for y in g.neighbors(x)}
        reach.append(cur)
    return reach


def exact_walk(g: WitnessedGraph, start: str, end: str, length: int) -> Walk | None:
    """Lexicographically least walk of exactly the given length, or None.

    Walks are compared by their vertex sequence, then by witness choices.
    Each is found once per graph, so the levels of one tower share it.
    """
    g.require_vertices([start, end])
    if not is_natural(length):
        raise ParseError("walk length must be nonnegative")
    return g.memo(("exact walk", start, end, length),
                  lambda: _exact_walk(g, start, end, length))


def _exact_walk(g: WitnessedGraph, start: str, end: str, length: int) -> Walk | None:
    reach = exact_reach(g, end, length)
    if start not in reach[length]:
        return None
    verts = [start]
    wits = []
    cur = start
    for r in range(length, 0, -1):
        for z in g.neighbors(cur):
            if z in reach[r - 1]:
                wits.append(g.witnesses_between(cur, z)[0])
                verts.append(z)
                cur = z
                break
        else:
            raise AssertionError("reach sets promised a continuation")
    return Walk(tuple(verts), tuple(wits))


def min_odd_closed_walk(g: WitnessedGraph) -> Walk | None:
    """Minimum-length odd closed walk, lexicographically least; None if bipartite.

    Only a vertex of a non-bipartite component (parity class None) lies on
    an odd closed walk, so only those vertices get a BFS of their own.
    """
    return _min_odd_closed_walk(g, parity_classes(g))


def _min_odd_closed_walk(g: WitnessedGraph, classes: dict) -> Walk | None:
    """min_odd_closed_walk from g's parity_classes."""
    best_len = None
    best_v = None
    for v in g.vertices:
        if classes[v] is not None:
            continue
        d = vertex_odd_girth(g, v)
        if best_len is None or d < best_len:
            best_len = d
            best_v = v
    if best_len is None:
        return None
    return exact_walk(g, best_v, best_v, best_len)


def bipartite_certificate(g: WitnessedGraph):
    """Proper 2-coloring if g has no odd closed walk, else a minimum one.

    Returns either a Coloring covering all vertices or a Walk.  The
    coloring is read off parity_classes: each vertex takes the parity of
    its distance from the least vertex of its component.
    """
    classes = parity_classes(g)
    if any(cls is None for cls in classes.values()):
        return _min_odd_closed_walk(g, classes)
    return Coloring({v: cls[1] for v, cls in classes.items()})
