"""Odd-walk machinery via the parity double cover.

The double cover lives on pairs (vertex, parity); an edge flips the parity
bit.  Minimum odd/even walk lengths between vertex sets are plain BFS
distances there, which is the basis for the odd-walk property tests, the
bipartiteness certificate, the component partition and exact-length walk
construction.  parity_distances is the package's one graph traversal;
everything else here reads from it.

Because walks may repeat vertices and witnesses, a walk of length m >= 1
can be padded to any length m + 2j by bouncing on its first edge.  The
operations here rely on that padding fact; the test suite checks it against
brute-force walk enumeration rather than assuming it.

A graph is immutable, so the facts of one graph are computed once and kept
on it (WitnessedGraph.memo): parity_classes, nonbipartite_vertices, the
parity table of each vertex asked about (vertex_odd_girth reads it at its
vertex, exact_walk at its end), each phi_bound verdict and each exact_walk.
A tower on a connected target thus runs two parity BFS in all, whatever its
depth.
"""

from __future__ import annotations

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

    Returns the least walk length from any source to each reachable
    (vertex, parity) pair, parity 0 at the sources.  A pair at distance r
    has parity r mod 2, so layer r is the neighbours of layer r-1 not yet
    seen at that parity.  Sources are taken in sorted order and neighbours
    in ascending order, so the table's order depends on no set.
    """
    layer = sorted(set(sources))
    dist = {(s, 0): 0 for s in layer}
    r = 0
    while layer:
        r += 1
        p = r % 2
        nxt = []
        for v in layer:
            for u in g.neighbors(v):
                if (u, p) not in dist:
                    dist[(u, p)] = r
                    nxt.append(u)
        layer = nxt
    return dist


def _vertex_table(g: WitnessedGraph, v: str) -> dict[tuple[str, int], int]:
    """parity_distances from v alone, computed once per graph and vertex."""
    return g.memo(("parity table", v), lambda: parity_distances(g, [v]))


def phi_bound(g: WitnessedGraph, a) -> PhiVerdict:
    """Least odd length of a walk with both endpoints in the set, if any;
    found once per graph and set."""
    aset = tuple(sorted(set(a)))
    g.require_vertices(aset)
    return g.memo(("phi", aset), lambda: _phi_bound(g, aset))


def _phi_bound(g: WitnessedGraph, aset: tuple) -> PhiVerdict:
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
    """Least odd length of a closed walk at v, or None; read off v's parity
    table."""
    g.require_vertices([v])
    return _vertex_table(g, v).get((v, 1))


def is_bipartite(g: WitnessedGraph) -> bool:
    return not nonbipartite_vertices(g)


def nonbipartite_vertices(g: WitnessedGraph) -> frozenset:
    """Union of all connected components containing an odd closed walk."""
    return g.memo("nonbipartite", lambda: frozenset(
        v for v, (_, colour) in parity_classes(g).items() if colour is None))


def parity_classes(g: WitnessedGraph) -> dict:
    """Every vertex's (root, colour), from one parity BFS per component.

    root is the least vertex of the vertex's component.  colour is the
    parity of the vertex's distance from root, or None on a component with
    an odd closed walk (the BFS reaches the vertex at both parities).  The
    table is computed once per graph and shared, so callers must not
    mutate it.
    """
    return g.memo("parity classes", lambda: _parity_classes(g))


def _parity_classes(g: WitnessedGraph) -> dict:
    classes: dict = {}
    for root in g.vertices:
        if root in classes:
            continue
        dist = parity_distances(g, [root])
        for v, p in dist:
            classes[v] = (root, None if (v, 1 - p) in dist else p)
    return classes


def components(g: WitnessedGraph) -> tuple[tuple[str, ...], ...]:
    """Connected components, each sorted, ordered by least member; read
    off parity_classes."""
    classes = parity_classes(g)
    by_root: dict = {}
    for v in g.vertices:
        by_root.setdefault(classes[v][0], []).append(v)
    return tuple(map(tuple, by_root.values()))


def no_odd_walk_in(classes: dict, a) -> bool:
    """phi_bound(g, a).no_odd_walk, read off g's parity_classes.

    True iff no vertex of the set lies on a non-bipartite component and no
    two vertices of one component have different colours.
    """
    colour_of: dict = {}
    for v in a:
        root, colour = classes[v]
        if colour is None or colour_of.setdefault(root, colour) != colour:
            return False
    return True


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


def exact_walk_within(g: WitnessedGraph, a, length: int) -> Walk | None:
    """exact_walk for the first pair (u, v) of the sorted set that has a
    walk, or None.  Walks reverse, so u's own parity table finds v: only
    the tables of the starts tried and of the end found are built."""
    aset = sorted(set(a))
    g.require_vertices(aset)
    if not is_natural(length):
        raise ParseError("walk length must be nonnegative")
    for u in aset:
        dist = _vertex_table(g, u)
        for v in aset:
            if (dist.get((v, length % 2), length + 1) <= length
                    and (not length or g.neighbors(v))):
                return exact_walk(g, u, v, length)
    return None


def _exact_walk(g: WitnessedGraph, start: str, end: str, length: int) -> Walk | None:
    # A walk of exactly r steps leads from z to end iff a walk of length
    # r - 2j does (padding): iff z is within r of end at parity r mod 2,
    # and end has a neighbour to bounce on when r > 0.
    dist = _vertex_table(g, end)
    if (dist.get((start, length % 2), length + 1) > length
            or (length and not g.neighbors(end))):
        return None
    verts = [start]
    wits = []
    for r in range(length - 1, -1, -1):
        cur = verts[-1]
        z = next((z for z in g.neighbors(cur)
                  if dist.get((z, r % 2), r + 1) <= r), None)
        if z is None:
            raise AssertionError("parity table promised a continuation")
        wits.append(g.witnesses_between(cur, z)[0])
        verts.append(z)
    return Walk(tuple(verts), tuple(wits))


def min_odd_closed_walk(g: WitnessedGraph) -> Walk | None:
    """Minimum-length odd closed walk, lexicographically least; None if bipartite.

    Only a vertex of a non-bipartite component (colour None) lies on
    an odd closed walk, so only those vertices get a BFS of their own.
    """
    return _min_odd_closed_walk(g, parity_classes(g))


def _min_odd_closed_walk(g: WitnessedGraph, classes: dict) -> Walk | None:
    """min_odd_closed_walk from g's parity_classes."""
    best_len = None
    best_v = None
    for v in g.vertices:
        if classes[v][1] is not None:
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
    if any(colour is None for _, colour in classes.values()):
        return _min_odd_closed_walk(g, classes)
    return Coloring({v: colour for v, (_, colour) in classes.items()})
