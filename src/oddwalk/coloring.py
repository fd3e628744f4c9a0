"""Coloring constructions on witnessed graphs.

Includes the component-closure machinery that turns odd-walk-free vertex sets
into 2-colorable invariant supersets, the piecewise 2-coloring assembled from
a cover by such sets, a greedy bounded coloring, and coloring pullback along
graph homomorphisms.  Closures and 2-colorings are read off
parity.parity_classes: a component is the set of vertices sharing a root,
and a bipartite component is coloured by each vertex's parity class.
"""

from __future__ import annotations

from .errors import CoverIncomplete, NotHomomorphism, PhiFails, PieceNotTiny
from .graphs import Coloring, WitnessedGraph
from .parity import no_odd_walk_in, parity_classes, phi_bound


def invariant_closure(g: WitnessedGraph, a) -> tuple[str, ...]:
    """Union of all connected components meeting the set, sorted."""
    aset = set(a)
    g.require_vertices(aset)
    classes = parity_classes(g)
    roots = {classes[v][0] for v in aset}
    return tuple(v for v in g.vertices if classes[v][0] in roots)


def bipartite_superset_coloring(g: WitnessedGraph, a) -> tuple[tuple[str, ...], Coloring]:
    """Component closure of an odd-walk-free set with a proper 2-coloring.

    If some member of the set sat in a non-bipartite component it would have
    an odd closed walk through it, so odd-walk-freeness makes every touched
    component bipartite and the parity coloring proper.  Both come from
    parity_classes: the closure is every vertex whose class shares a
    member's root, coloured by its class parity.
    """
    aset = sorted(set(a))
    g.require_vertices(aset)
    classes = parity_classes(g)
    if not no_odd_walk_in(classes, aset):
        raise PhiFails(
            f"set admits an odd walk of length {phi_bound(g, aset).min_odd_length}")
    closure = invariant_closure(g, aset)
    return closure, Coloring({v: classes[v][1] for v in closure})


def two_color_from_cover(g: WitnessedGraph, pieces) -> Coloring:
    """Proper 2-coloring assembled from odd-walk-free pieces.

    The component closures of the pieces must jointly cover the graph; each
    vertex then takes its parity colour from parity_classes, as it would
    from the bipartite_superset_coloring of any piece whose closure holds it.
    """
    pieces = [tuple(sorted(set(p))) for p in pieces]
    classes = parity_classes(g)
    roots = set()
    for i, piece in enumerate(pieces):
        g.require_vertices(piece)
        if not no_odd_walk_in(classes, piece):
            raise PieceNotTiny(f"piece {i} admits an odd walk of length "
                               f"{phi_bound(g, piece).min_odd_length}")
        roots.update(classes[v][0] for v in piece)
    missing = [v for v in g.vertices if classes[v][0] not in roots]
    if missing:
        raise CoverIncomplete(
            f"closures miss vertices: {', '.join(map(repr, missing))}")
    return Coloring({v: classes[v][1] for v in g.vertices})


def greedy_coloring(g: WitnessedGraph) -> Coloring:
    """First-fit coloring in ascending id order; uses at most maxdegree+1 colors."""
    colors: dict[str, int] = {}
    for v in g.vertices:
        taken = {colors[u] for u in g.neighbors(v) if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors)


def check_homomorphism(h: WitnessedGraph, g: WitnessedGraph, vmap: dict) -> None:
    """Raise NotHomomorphism unless vmap sends every edge of h to an edge of g."""
    for v in h.vertices:
        if v not in vmap:
            raise NotHomomorphism(f"map is undefined at {v!r}")
        if not g.has_vertex(vmap[v]):
            raise NotHomomorphism(f"image {vmap[v]!r} of {v!r} is not a vertex")
    for w in h.witnesses:
        u, v = h.ends[w]
        if not g.adjacent(vmap[u], vmap[v]):
            raise NotHomomorphism(
                f"edge {w!r} maps to non-adjacent pair "
                f"({vmap[u]!r}, {vmap[v]!r})")


def pullback_coloring(h: WitnessedGraph, g: WitnessedGraph, vmap: dict,
                      col: Coloring) -> Coloring:
    """Compose a proper coloring of the target with a homomorphism into it."""
    check_homomorphism(h, g, vmap)
    return Coloring({v: col.of(vmap[v]) for v in h.vertices})
