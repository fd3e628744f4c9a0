"""Homomorphism sets from path gadgets into witnessed graphs.

A homomorphism assigns a target vertex to every gadget vertex and a target
witness to every gadget edge, with the witness ends matching the endpoint
images.  Sets of homomorphisms come in two representations: HomProfile (per
position vertex domains, per edge witness domains; exact on paths via arc
consistency) and ExplicitHomSet (a plain list, used as an oracle form).

On top of these sit the odd-walk smallness notions (tiny, small, large),
each read off the projection at position 0 (a member's images lie in one
component): in this finite model the sigma-ideal of small sets is decided
at the root.  Then comes the gluing construction that extends a pinned
homomorphism one level up along an odd closed walk.

validate_hom is one set pass over the edges against the target's oriented
steps; it walks a hom edge by edge only to name the fault of an invalid
one.  Pinning and the membership mask test read the target's index tables
for all positions at once (vertex_indices, witness_indices).

Every profile is built normalized by closed form (full, pinned and the cut
in is_large); nothing here sweeps.  The propagation sweep and the doubling
chain on top of it (restricted, member, double, pin, preserve_largeness)
live in bruteforce, where they are the oracle for these closed forms.  A
homomorphism is written as JSON only by the row writers
(render.homs_to_json_rows, render.tower_to_json_rows).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import and_, itemgetter, mul
from typing import NamedTuple

from .errors import NotHomomorphism, NotLarge, OddwalkError, ParseError
from .gadget import (GadgetVertex, PathGadget, build_gadget, check_next_level,
                     endpoint_label, require_natural)
from .graphs import Walk, WitnessedGraph, vertex_pair
from .parity import (exact_walk, no_odd_walk_in, nonbipartite_vertices,
                     parity_classes, vertex_odd_girth)


class Hom(NamedTuple):
    """One homomorphism: images by gadget path position and edge index."""

    vertex_images: tuple[str, ...]
    witness_images: tuple[str, ...]


def edge_label(gadget: PathGadget, j: int) -> str:
    """The label a--b of edge j, by closed form (no vertex list)."""
    return f"{gadget.vertex_at(j).label}--{gadget.vertex_at(j + 1).label}"


def validate_hom(gadget: PathGadget, target: WitnessedGraph, hom: Hom) -> None:
    """Raise NotHomomorphism unless hom is a valid witnessed homomorphism.

    A valid hom passes one set pass: every edge's (witness, image, image)
    is an oriented step of the target (and on a one-vertex gadget the image
    is a target vertex).  Only a failing hom is walked edge by edge, to
    name the first fault.
    """
    images = hom.vertex_images
    if (len(images) == gadget.vertex_count
            and len(hom.witness_images) == gadget.edge_count
            and (all(map(target.steps.__contains__,
                         zip(hom.witness_images, images, images[1:])))
                 if len(images) > 1 else target.has_vertex(images[0]))):
        return
    _explain_invalid(gadget, target, hom)


def _explain_invalid(gadget: PathGadget, target: WitnessedGraph, hom: Hom) -> None:
    """Raise NotHomomorphism for the first fault of hom, edge by edge."""
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
            raise NotHomomorphism(
                f"edge {edge_label(gadget, j)}: witness {wid!r} joins "
                f"{target.ends[wid]}, images are {want}")


def copy_restriction(big: PathGadget, small: PathGadget, hom: Hom, bit: int) -> Hom:
    """Restriction of a level-(n+1) homomorphism to copy `bit` of level n.

    Copy 0 is the head of the level-(n+1) path and copy 1 its tail reversed.
    """
    check_next_level(small, big, bit)
    vimgs, wimgs = hom.vertex_images, hom.witness_images
    if bit:
        vimgs, wimgs = vimgs[::-1], wimgs[::-1]
    return Hom(vimgs[:small.vertex_count], wimgs[:small.edge_count])


class TinyVerdict(NamedTuple):
    tiny: bool
    vertex: GadgetVertex | None = None

    def __bool__(self) -> bool:
        return self.tiny


class LargeVerdict(NamedTuple):
    large: bool
    witness: Hom | None = None

    def __bool__(self) -> bool:
        return self.large


class HomProfile:
    """Subset of Hom(gadget, target) given by per-position domains.

    Denotes every homomorphism whose vertex image at each position lies in
    that position's domain and whose witness at each edge lies in the edge's
    domain.  The constructor stores the masks as given, and they must be
    normalized (arc-consistent): that makes projections exact because the
    gadget is a path, and leaves every domain empty or none.  full, pinned
    and the cut in is_large build such masks by closed form;
    bruteforce.restricted builds them by a propagation sweep.
    """

    __slots__ = ("gadget", "target", "vmasks", "wmasks", "_count")

    def __init__(self, gadget: PathGadget, target: WitnessedGraph, vmasks, wmasks):
        self.gadget = gadget
        self.target = target
        self.vmasks = tuple(vmasks)
        self.wmasks = tuple(wmasks)
        self._count = None

    # -- construction ------------------------------------------------------

    @classmethod
    def full(cls, gadget: PathGadget, target: WitnessedGraph) -> "HomProfile":
        """The profile of every homomorphism, built normalized (no sweep).

        At level 0 there is no edge and every target vertex is an image.
        Above it, let N be the vertices that have a witness.  A vertex in N
        has a neighbour in N (the other end of its witness), so from the
        all-ones masks a sweep removes exactly the isolated vertices: every
        position keeps N and every edge keeps every witness, both of whose
        ends lie in N.  With no witness N is empty, and so is every mask.
        """
        if not gadget.edge_count:
            return cls(gadget, target, [(1 << len(target.vertices)) - 1], [])
        ends_idx = _end_indices(target)
        witnessed = sum(map(_bit, set(itertools.chain.from_iterable(ends_idx))))
        allw = (1 << len(ends_idx)) - 1
        return cls(gadget, target,
                   [witnessed] * gadget.vertex_count,
                   [allw] * gadget.edge_count)

    @classmethod
    def pinned(cls, gadget: PathGadget, target: WitnessedGraph,
               hom: Hom) -> "HomProfile":
        """The singleton profile denoting exactly {hom}, without a sweep.

        hom must be a valid homomorphism (validate_hom): each witness
        singleton then joins its two endpoint singletons, so the singleton
        masks are already arc-consistent.
        """
        return cls(gadget, target,
                   list(map(_bit, target.vertex_indices(hom.vertex_images))),
                   list(map(_bit, target.witness_indices(hom.witness_images))))

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vmasks[0]

    def _vertex_ids(self, mask: int) -> tuple[str, ...]:
        vs = self.target.vertices
        return tuple(vs[i] for i in range(len(vs)) if mask >> i & 1)

    def project(self, u: GadgetVertex) -> tuple[str, ...]:
        """Exact vertex projection: the images of u over the denoted set."""
        return self._vertex_ids(self.vmasks[self.gadget.require_vertex(u)])

    def count(self) -> int:
        """Exact size of the denoted set (big integers, path DP met in the
        middle).

        Let E be the edge count, h = E // 2, and F_k(x) the number of
        partial homs on positions 0..k with image x at k.  A member is a
        partial hom on 0..h and one on h..E that agree at h, so the count
        is the sum over x of F_h(x) * R(x), where R(x) counts the partial
        homs on h..E with image x at h.  R is F over the reversed masks,
        taken E - h edges from position E.

        When the masks read the same from both ends, the reversed masks are
        the masks, so R = F_{E-h}: the forward sweep to h, continued one
        edge further when E is odd.  Every full profile and every doubled
        profile (bruteforce.double) reads so (level n+1 is copy 0, the join,
        then copy 1 reversed), and normalization keeps it (arc consistency
        has one greatest fixed point, and reversing the path maps fixed
        points to fixed points), so their counts sweep about E/2 edges, not
        E.

        Computed once per profile; later calls return the stored total.
        """
        if self._count is not None:
            return self._count
        total = 0
        if not self.is_empty:
            vm, wm = self.vmasks, self.wmasks
            h = len(wm) // 2
            rest = len(wm) - h
            ends_idx = self._ends_idx()
            tables: dict = {}    # (witness mask, right mask) -> _preds
            ids = range(len(self.target.vertices))
            head = _sweep([vm[0] >> x & 1 for x in ids],
                          zip(wm[:h], vm[1:]), tables, ends_idx)
            if vm == vm[::-1] and wm == wm[::-1]:
                tail = _sweep(head, zip(wm[h:rest], vm[h + 1:]), tables, ends_idx)
            else:
                vm, wm = vm[::-1], wm[::-1]
                tail = _sweep([vm[0] >> x & 1 for x in ids],
                              zip(wm[:rest], vm[1:]), tables, ends_idx)
            total = sum(map(mul, head, tail))
        self._count = total
        return total

    def _ends_idx(self) -> tuple[tuple[int, int], ...]:
        return _end_indices(self.target)

    # -- enumeration -------------------------------------------------------

    def _vertex_paths(self):
        """Yield index tuples of vertex assignments in ascending lex order."""
        ends_idx = self._ends_idx()
        t = self.gadget.vertex_count
        acc: list[int] = []
        # (witness mask, right mask) -> {vertex: sorted next vertices}
        successors: dict = {}

        def rec(pos: int):
            if pos == t:
                yield tuple(acc)
                return
            if pos == 0:
                options = _bits(self.vmasks[0])
            else:
                key = (self.wmasks[pos - 1], self.vmasks[pos])
                succ = successors.get(key)
                if succ is None:
                    succ = successors[key] = {}
                    for a, b in _arcs(key[0], key[1], ends_idx):
                        succ.setdefault(a, set()).add(b)
                    for a in succ:
                        succ[a] = sorted(succ[a])
                options = succ.get(acc[-1], ())
            for choice in options:
                acc.append(choice)
                yield from rec(pos + 1)
                acc.pop()

        yield from rec(0)

    def _homs(self):
        """Yield the denoted homomorphisms in (vertex images, witness
        images) lex order."""
        ws = self.target.witnesses
        vs = self.target.vertices
        # witness ends (a, b), a < b as in target.ends -> ascending indices
        by_pair: dict = {}
        for w, ends in enumerate(self._ends_idx()):
            by_pair.setdefault(ends, []).append(w)

        @lru_cache(maxsize=None)
        def options(key) -> tuple[str, ...]:
            """(witness mask, a, b) -> the ids of the witnesses in the mask
            joining target vertices a and b, ascending."""
            wmask, a, b = key
            return tuple(ws[w] for w in by_pair[(a, b) if a < b else (b, a)]
                         if wmask >> w & 1)

        for vpath in self._vertex_paths():
            vimgs = tuple(map(vs.__getitem__, vpath))
            for combo in itertools.product(*map(
                    options, zip(self.wmasks, vpath, vpath[1:]))):
                yield Hom(vimgs, combo)

    def enumerate_homs(self, cap: int) -> tuple["ExplicitHomSet", int]:
        """First `cap` homomorphisms in (vertex images, witness images) lex
        order, plus the exact total count of the denoted set."""
        require_natural(cap, "cap")
        total = self.count()
        homs = tuple(itertools.islice(self._homs(), cap)) if total else ()
        return ExplicitHomSet(self.gadget, self.target, homs), total

    # -- membership --------------------------------------------------------

    def _admits(self, hom: Hom) -> bool:
        """The mask half of membership: every image lies in its domain.

        hom must already be a valid homomorphism over this gadget and target.
        """
        t = self.target
        return (all(map(and_, self.vmasks,
                        map(_bit, t.vertex_indices(hom.vertex_images))))
                and all(map(and_, self.wmasks,
                            map(_bit, t.witness_indices(hom.witness_images)))))

    def __repr__(self) -> str:
        state = "empty" if self.is_empty else "nonempty"
        return (f"HomProfile(level={self.gadget.level}, "
                f"target={len(self.target.vertices)}v, {state})")


_bit = (1).__lshift__   # i -> 1 << i


def _end_indices(t: WitnessedGraph) -> tuple[tuple[int, int], ...]:
    """Per witness index of t, its endpoint vertex indices (a, b); built
    once per graph, one index lookup per column of ends."""
    def build():
        pairs = tuple(map(t.ends.__getitem__, t.witnesses))
        return tuple(zip(t.vertex_indices(map(itemgetter(0), pairs)),
                         t.vertex_indices(map(itemgetter(1), pairs))))
    return t.memo("witness ends", build)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _arcs(wmask: int, right: int, ends_idx) -> list[tuple[int, int]]:
    """Steps (a, b) across one edge: a witness in wmask joins a and b, and
    b is in the right mask.  Listed in witness order."""
    out = []
    while wmask:
        low = wmask & -wmask
        wmask ^= low
        a, b = ends_idx[low.bit_length() - 1]
        if right >> b & 1:
            out.append((a, b))
        if right >> a & 1:
            out.append((b, a))
    return out


def _preds(wmask: int, right: int, ends_idx) -> tuple:
    """(b, predecessors of b) across one edge, from _arcs; a predecessor
    joined to b by several witnesses in wmask is listed once per witness."""
    preds: dict[int, list[int]] = {}
    for a, b in _arcs(wmask, right, ends_idx):
        preds.setdefault(b, []).append(a)
    return tuple((b, tuple(ps)) for b, ps in preds.items())


def _sweep(counts: list[int], keys, tables: dict, ends_idx) -> list[int]:
    """Walk counts by target vertex, carried across one edge per
    (witness mask, right mask) key; tables memoizes _preds by key."""
    for key in keys:
        table = tables.get(key)
        if table is None:
            table = tables[key] = _preds(key[0], key[1], ends_idx)
        get = counts.__getitem__
        counts = [0] * len(counts)
        for b, ps in table:
            counts[b] = sum(map(get, ps))
    return counts


class _ExplicitFields(NamedTuple):
    gadget: PathGadget
    target: WitnessedGraph
    homs: tuple[Hom, ...]


class ExplicitHomSet(_ExplicitFields):
    """A literal list of homomorphisms over one gadget and target.

    The constructor and _make, and so _replace, validate every hom and
    refuse a duplicate.
    """

    __slots__ = ()

    def __new__(cls, gadget, target, homs):
        seen = set()
        for hom in homs:
            validate_hom(gadget, target, hom)
            if hom in seen:
                raise ParseError("duplicate homomorphism in explicit set")
            seen.add(hom)
        return super().__new__(cls, gadget, target, homs)

    @classmethod
    def _make(cls, iterable) -> "ExplicitHomSet":
        return cls(*iterable)

    def project(self, u: GadgetVertex) -> tuple[str, ...]:
        pos = self.gadget.require_vertex(u)
        return tuple(sorted({hom.vertex_images[pos] for hom in self.homs}))


def all_homs(gadget: PathGadget, target: WitnessedGraph) -> HomProfile:
    """The full (normalized) profile of every homomorphism."""
    return HomProfile.full(gadget, target)


def is_tiny(homs) -> TinyVerdict:
    """Some position's projection admits no odd walk; position 0 is tested.

    Accepts a HomProfile or an ExplicitHomSet.  One position decides every
    other: along the path each step sends every image to a neighbour, in
    the same component and, on a bipartite component, in the other colour
    class.  So the projection at position i lies in the bipartite
    components, one colour class per component, exactly when the
    projection at position 0 does (an empty set is tiny everywhere).  The
    verdict names position 0 or no vertex.
    """
    root = endpoint_label(homs.gadget.level, 0)
    if no_odd_walk_in(parity_classes(homs.target), homs.project(root)):
        return TinyVerdict(True, root)
    return TinyVerdict(False, None)


def is_small(s: ExplicitHomSet) -> bool:
    """True iff the set is a finite union of tiny sets.

    Characterization: every member sends some gadget vertex into a bipartite
    component (each such singleton is tiny, and singletons cover the set),
    so position 0 decides: its projection misses the other components.
    """
    root = endpoint_label(s.gadget.level, 0)
    return nonbipartite_vertices(s.target).isdisjoint(s.project(root))


def is_large(p: HomProfile) -> LargeVerdict:
    """True iff some member avoids the 2-colorable components entirely.

    Position 0 decides, as for is_small: a normalized path profile is
    backtrack-free.  The witness is the lexicographically least such
    member, the first one the member generator yields from p cut to the
    non-bipartite components; nothing is counted or swept.  Each support of
    a vertex is a neighbour in its component, so the cut is a closed form
    that stays normalized, and is p itself when position 0 lies inside
    those components (a pinned tower level, say).
    """
    nbmask = sum(map(_bit, p.target.vertex_indices(nonbipartite_vertices(p.target))))
    if not p.vmasks[0] & nbmask:
        return LargeVerdict(False, None)
    if p.vmasks[0] & ~nbmask:
        # a witness's ends share a component, so one end places it
        nbw = sum(_bit(w) for w, (a, _) in enumerate(p._ends_idx()) if nbmask >> a & 1)
        p = HomProfile(p.gadget, p.target, [m & nbmask for m in p.vmasks],
                       [m & nbw for m in p.wmasks])
    # a for loop, not next(), so that no frame is added above the
    # per-position recursion of _vertex_paths
    for hom in p._homs():
        break
    validate_hom(p.gadget, p.target, hom)
    return LargeVerdict(True, hom)


def glue_hom(p: HomProfile, phi0: Hom, join_length: int, walk: Walk) -> Hom:
    """Level-(n+1) homomorphism with both copies equal to phi0 and the join
    path laid along the given closed walk at phi0's gluing image."""
    big = build_gadget(p.gadget.prefix + (join_length,))
    if walk.length != join_length + 2:
        raise ParseError("walk length must be the join length plus 2")
    glue_value = phi0.vertex_images[-1]
    if walk.vertices[0] != glue_value or walk.vertices[-1] != glue_value:
        raise ParseError("walk must be closed at the gluing image")
    # copy 0, the walk's inner vertices on the join, copy 1 reversed
    vimgs = phi0.vertex_images + walk.vertices[1:-1] + phi0.vertex_images[::-1]
    wimgs = phi0.witness_images + walk.witnesses + phi0.witness_images[::-1]
    hom = Hom(vimgs, wimgs)
    validate_hom(big, p.target, hom)
    return hom


def extend_witness(p: HomProfile, n_bound: int) -> tuple[int, Hom]:
    """Pick a largeness witness and glue two copies of it one level up.

    Returns the chosen odd join length d >= n_bound and a level-(n+1)
    homomorphism whose copy restrictions both equal the witness: a member
    of the doubled profile, which denotes the members whose copy
    restrictions lie in p (bruteforce.double builds it by a sweep).  The
    join length is the least odd value >= max(n_bound, m - 2) where m is
    the least odd closed-walk length at the witness's gluing image; the
    join is laid along the lexicographically least closed walk of length
    d + 2.

    That membership is checked here, without building the doubled
    profile: glue_hom has validated the glued homomorphism, so each copy
    restriction, a sub-path of it, is valid too and only p's masks are
    tested.  A caller that pins the result may therefore build the pinned
    profile directly (HomProfile.pinned).
    """
    require_natural(n_bound, "bound")
    verdict = is_large(p)
    if not verdict.large:
        raise NotLarge("profile has no member avoiding 2-colorable components")
    phi0 = verdict.witness
    glue_value = phi0.vertex_images[-1]
    min_closed = vertex_odd_girth(p.target, glue_value)
    if min_closed is None:
        raise OddwalkError("largeness witness has no odd closed walk")
    d = max(n_bound, min_closed - 2)
    if d % 2 == 0:
        d += 1
    walk = exact_walk(p.target, glue_value, glue_value, d + 2)
    if walk is None:
        raise OddwalkError("no closed walk of the scheduled length")
    hom = glue_hom(p, phi0, d, walk)
    big = build_gadget(p.gadget.prefix + (d,))
    if not all(p._admits(copy_restriction(big, p.gadget, hom, bit)) for bit in (0, 1)):
        raise OddwalkError("glued homomorphism fell outside the doubled profile")
    return d, hom

