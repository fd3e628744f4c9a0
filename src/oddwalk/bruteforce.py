"""Brute-force reference algorithms.

Everything here recomputes quantities of the main modules by a different
method (set iteration instead of double-cover BFS, backtracking instead of
profile propagation, matrix powers instead of path DP, subset search instead
of the component characterization, level-by-level gadget construction
instead of symbolic adjacency and closed-form positions, exhaustive search
instead of the equivalence planner).  The check harness and the test suite
use these as oracles; production code never calls them.

The gadget's vertex list lives here and only here in the package:
gadget_vertices doubles it level by level from the root, and
gadget_positions inverts it, with none of the closed forms
(PathGadget.require_vertex, vertex_at, copy_map) or the label recurrence
(level_labels) that they check.

So does the propagation sweep (kernels.path_propagate) and the doubling
chain of the key lemma built on it: restricted sweeps any masks to a
normalized profile, member tests a homomorphism against one, double builds
the next level's profile from its two copies, pin cuts a profile to one
member, and preserve_largeness checks that a doubled profile stays large.
They are the oracle for the closed forms the commands use:
HomProfile.full, HomProfile.pinned and the cut in homset.is_large.  The
kernel is read through its module attribute, so a test can wrap it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .equiv import path_walk_exists
from .errors import NotHomomorphism, NotMember, OddwalkError, ParseError
from .gadget import (GadgetVertex, PathGadget, build_gadget, check_odd_prefix,
                     check_prefix, is_natural)
from .graphs import WitnessedGraph
from .homset import (ExplicitHomSet, Hom, HomProfile, extend_witness, is_large,
                     validate_hom)
from .limitgraph import LcVertex, project_level


def gadget_vertices(prefix) -> tuple[GadgetVertex, ...]:
    """The gadget's vertices in path order, doubled level by level from the
    root: copy 0 with bit 0 appended, the join, then copy 1 reversed with
    bit 1 appended."""
    vertices = (GadgetVertex(0, ()),)
    for c in check_prefix(prefix):
        vertices = (*(v.append(0) for v in vertices),
                    *(GadgetVertex(k, ()) for k in range(c + 1)),
                    *(v.append(1) for v in reversed(vertices)))
    return vertices


def gadget_positions(prefix) -> dict:
    """The map vertex -> path position over gadget_vertices(prefix)."""
    return {v: i for i, v in enumerate(gadget_vertices(prefix))}


class SiblingReport(NamedTuple):
    """Distances between all last-bit sibling pairs in one gadget."""

    pairs_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def sibling_pairs(g: PathGadget):
    """All pairs (v^(0), v^(1)) present in the gadget, by position of the 0-copy."""
    for v in gadget_vertices(g.prefix):
        if v.t and v.t[-1] == 0:
            yield v, GadgetVertex(v.k, v.t[:-1] + (1,))


def check_odd_distance_lemma(g: PathGadget) -> SiblingReport:
    """Verify every last-bit sibling pair sits at odd distance."""
    check_odd_prefix(g.prefix)
    position = gadget_positions(g.prefix)
    checked = 0
    bad = []
    for a, b in sibling_pairs(g):
        checked += 1
        d = abs(position[a] - position[b])
        if d % 2 == 0:
            bad.append(f"{a.label} and {b.label} at even distance {d}")
    return SiblingReport(checked, tuple(bad))


def restricted(p: HomProfile, vmasks, wmasks) -> HomProfile:
    """The profile over p's gadget and target with these domains, swept
    arc-consistent by the propagation kernel (the denoted set is the
    homomorphisms whose images lie in the given domains)."""
    return _swept(p.gadget, p, vmasks, wmasks)


def _swept(gadget: PathGadget, p: HomProfile, vmasks, wmasks) -> HomProfile:
    """The profile over gadget and p's target from one kernel sweep of
    these masks."""
    t = p.target
    vmasks, wmasks = kernels.path_propagate(list(vmasks), list(wmasks), p._ends_idx(),
                                            len(t.vertices), len(t.witnesses))
    return HomProfile(gadget, t, vmasks, wmasks)


def member(p: HomProfile, hom: Hom) -> bool:
    """hom is a valid homomorphism whose images lie in p's domains."""
    try:
        validate_hom(p.gadget, p.target, hom)
    except NotHomomorphism:
        return False
    return p._admits(hom)


def double(p: HomProfile, join_length: int) -> HomProfile:
    """Profile one level up whose copy restrictions both lie in p.

    The two copies inherit p's domains; the fresh join path of join_length+2
    edges is unconstrained.
    """
    if not (is_natural(join_length) and join_length >= 1):
        raise ParseError(f"join length must be an integer >= 1, got {join_length!r}")
    big = build_gadget(p.gadget.prefix + (join_length,))
    allv = (1 << len(p.target.vertices)) - 1
    allw = (1 << len(p.target.witnesses)) - 1
    # level n+1 is copy 0, the join_length+1 join vertices, copy 1 reversed
    vmasks = p.vmasks + (allv,) * (join_length + 1) + p.vmasks[::-1]
    wmasks = p.wmasks + (allw,) * (join_length + 2) + p.wmasks[::-1]
    return _swept(big, p, vmasks, wmasks)


def pin(p: HomProfile, hom: Hom) -> HomProfile:
    """The singleton profile denoting exactly {hom}.

    A member is a valid homomorphism, so its singleton masks are not swept
    again (HomProfile.pinned).
    """
    if not member(p, hom):
        raise NotMember("homomorphism is not in the profile's denotation")
    return HomProfile.pinned(p.gadget, p.target, hom)


def preserve_largeness(p: HomProfile, n_bound: int) -> int:
    """Odd join length >= n_bound whose doubled profile is again large.

    Uses the gluing construction's join length; the glued homomorphism stays
    inside the non-2-colorable components, so the doubled profile is large.
    The largeness of the result is re-checked, not assumed.
    """
    d, _ = extend_witness(p, n_bound)
    if not is_large(double(p, d)).large:
        raise OddwalkError("doubled profile unexpectedly lost largeness")
    return d


def odd_walk_lengths(g: WitnessedGraph, a, max_len: int) -> list[int]:
    """All odd lengths up to max_len of walks with both endpoints in the set,
    by iterating neighborhoods level by level."""
    aset = {v for v in a}
    lengths = []
    frontier = set(aset)
    for step in range(1, max_len + 1):
        frontier = {u for v in frontier for u in g.neighbors(v)}
        if step % 2 == 1 and frontier & aset:
            lengths.append(step)
    return lengths


def min_odd_walk_length(g: WitnessedGraph, a, max_len: int) -> int | None:
    lengths = odd_walk_lengths(g, a, max_len)
    return lengths[0] if lengths else None


def count_walks_matrix(g: WitnessedGraph, length: int) -> int:
    """Total walks of the given length, counting witness choices, via powers
    of the witness-multiplicity matrix with exact integers."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    mat = [[0] * n for _ in range(n)]
    for w in g.witnesses:
        u, v = g.ends[w]
        mat[index[u]][index[v]] += 1
        mat[index[v]][index[u]] += 1
    vec = [1] * n
    for _ in range(length):
        vec = [sum(mat[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)


def enumerate_homs_backtracking(gadget: PathGadget, target: WitnessedGraph,
                                cap: int | None = None) -> list[Hom]:
    """All homomorphisms in lex order by direct search over adjacency."""
    out: list[Hom] = []
    t = gadget.vertex_count
    vpath: list[str] = []

    def witness_products() -> bool:
        options = [target.witnesses_between(vpath[j], vpath[j + 1])
                   for j in range(t - 1)]
        for combo in itertools.product(*options):
            out.append(Hom(tuple(vpath), tuple(combo)))
            if cap is not None and len(out) >= cap:
                return True
        return False

    def rec(pos: int) -> bool:
        if pos == t:
            return witness_products()
        options = target.vertices if pos == 0 else target.neighbors(vpath[-1])
        for v in options:
            vpath.append(v)
            if rec(pos + 1):
                return True
            vpath.pop()
        return False

    rec(0)
    return out


def explicit_homset(gadget: PathGadget, target: WitnessedGraph,
                    cap: int | None = None) -> ExplicitHomSet:
    return ExplicitHomSet(gadget, target,
                          tuple(enumerate_homs_backtracking(gadget, target, cap)))


def tiny_by_definition(s: ExplicitHomSet, max_len: int | None = None) -> bool:
    """Some position's projection admits no odd walk, by walk enumeration."""
    g = s.target
    limit = max_len if max_len is not None else 2 * len(g.vertices) + 1
    for u in gadget_vertices(s.gadget.prefix):
        if min_odd_walk_length(g, s.project(u), limit) is None:
            return True
    return False


def small_by_cover_search(s: ExplicitHomSet) -> bool:
    """Definitional smallness: every member lies in some tiny subset.

    Scans subsets in increasing size per member; a union of such subsets is
    then a tiny cover.  Exponential, only for small explicit sets.
    """
    homs = list(s.homs)
    for hom in homs:
        rest = [h for h in homs if h != hom]
        found = False
        for size in range(0, len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                candidate = ExplicitHomSet(s.gadget, s.target, (hom,) + extra)
                if tiny_by_definition(candidate):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def projections_adjacent_everywhere(a: LcVertex, b: LcVertex, prefix,
                                    up_to: int) -> bool:
    """Adjacency of the level-n projections for every n from max(m_a, m_b)
    to up_to, built gadget by gadget."""
    start = max(a.m, b.m)
    for n in range(start, up_to + 1):
        position = _memo_positions(tuple(prefix[:n]))
        pa = position[project_level(a, n, prefix)]
        pb = position[project_level(b, n, prefix)]
        if abs(pa - pb) != 1:
            return False
    return True


@lru_cache(maxsize=16)
def _memo_positions(prefix: tuple[int, ...]) -> dict:
    """gadget_positions kept between calls of this oracle, which asks for
    the same few position maps thousands of times."""
    return gadget_positions(prefix)


def search_hom(h: PathGadget, g: PathGadget, constraints: dict | None = None):
    """Lexicographically least homomorphism between path gadgets extending
    the partial vertex map, or None if none exists.

    Exhaustive depth-first search ordered by target position, pruned by the
    distance/parity feasibility of every pinned later position, with an
    explicit stack of per-position choice iterators.
    """
    constraints = dict(constraints or {})
    pinned: dict[int, int] = {}
    for src, img in constraints.items():
        pinned[h.require_vertex(src)] = g.require_vertex(img)
    t = h.vertex_count
    order = sorted(pinned)

    def feasible(pos: int, at: int) -> bool:
        for j in order:
            if j >= pos:
                if not path_walk_exists(abs(at - pinned[j]), j - pos):
                    return False
        return True

    assignment: list[int] = []

    def choices(pos: int):
        prev = assignment[-1] if pos else None
        if pos in pinned:
            options = (pinned[pos],)
        elif prev is None:
            options = range(g.vertex_count)
        else:
            options = (prev - 1, prev + 1)
        return (q for q in options
                if (prev is None or abs(q - prev) == 1)
                and 0 <= q < g.vertex_count and feasible(pos, q))

    # stack[i] yields the remaining choices for position i, so the search
    # depth is bounded by memory, not by the interpreter's recursion limit
    stack = [choices(0)]
    while stack:
        q = next(stack[-1], None)
        if q is None:
            stack.pop()
            if assignment:
                assignment.pop()
            continue
        assignment.append(q)
        if len(assignment) == t:
            vertices = gadget_vertices(g.prefix)
            return tuple(vertices[q] for q in assignment)
        stack.append(choices(len(assignment)))
    return None
