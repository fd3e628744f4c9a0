"""Two-coloring versus homomorphism-tower dichotomy driver.

For a bipartite input the driver returns a proper 2-coloring.  Otherwise it
grows a tower: pin a root homomorphism at the least vertex lying on an odd
closed walk, then repeatedly choose an odd join length meeting the caller's
schedule, glue two copies of the current pinned homomorphism along a closed
walk of that length plus two, and pin the result.  Pinning stands in for the
shrinking-closure step of the infinite construction: in a finite model a
diameter below one already forces singletons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidIndex, OutOfTruncation, ParseError
from .gadget import GadgetVertex, ascii_int, build_gadget, is_natural
from .graphs import Coloring, WitnessedGraph
from .homset import (Hom, HomProfile, all_homs, copy_restriction, edge_label,
                     extend_witness, pin, validate_hom)
from .parity import nonbipartite_vertices, parity_classes


@dataclass(frozen=True)
class Tower:
    """Coherent pinned homomorphisms, one per gadget level.

    levels[n] is over the gadget with prefix[:n]; its copy restrictions at
    level n+1 both recover levels[n].  schedule_values records the lower
    bounds the join lengths had to meet.
    """

    prefix: tuple[int, ...]
    levels: tuple[Hom, ...]
    schedule_values: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.prefix)


def unbounded_schedule_default():
    """The default lower-bound schedule: 1, 1, 3, 5, 7, ..."""
    return lambda n: max(1, 2 * n - 1)


def parse_schedule(text: str):
    """Schedule spec: "default" or an explicit comma-separated list of
    ASCII integers (ascii_int), spaces allowed around each."""
    body = text.strip()
    if body == "default":
        return unbounded_schedule_default()
    vals = [ascii_int(part.strip()) for part in body.split(",")]
    if None in vals:
        raise ParseError(f"bad schedule {text!r}; expected default or e.g. 1,3,5")
    if any(v < 0 for v in vals):
        raise ParseError("schedule values must be nonnegative")

    def sched(n: int) -> int:
        if n >= len(vals):
            raise ParseError(f"schedule list too short for level {n}")
        return vals[n]

    return sched


def decide(g: WitnessedGraph, depth: int, schedule=None):
    """Proper 2-coloring if g is bipartite, else a Tower of the given depth.

    Exactly one branch occurs.  Returns a Coloring or a Tower.  The target
    is classified once: a bipartite target is coloured by the parity of
    each vertex's distance from the least vertex of its component, and
    otherwise the root is the least vertex on an odd closed walk.

    No profile is swept.  The root pins the full level-0 profile, which
    HomProfile.full builds normalized, and each later level is pinned
    straight from the glued homomorphism: extend_witness has checked that
    it lies in double(profile, d), and pinning that doubled profile would
    keep exactly this singleton, so the doubled profile is never built.
    """
    if not is_natural(depth):
        raise ParseError(f"depth must be a natural number, got {depth!r}")
    if schedule is None:
        schedule = unbounded_schedule_default()
    classes = parity_classes(g)
    odd = [v for v in g.vertices if classes[v][1] is None]
    if not odd:
        return Coloring({v: classes[v][1] for v in g.vertices})
    phi = Hom((odd[0],), ())
    profile = pin(all_homs(build_gadget(()), g), phi)
    prefix: list[int] = []
    levels = [phi]
    bounds: list[int] = []
    for n in range(depth):
        bound = schedule(n)
        if not is_natural(bound):
            raise ParseError(f"schedule({n}) must be a natural number, got {bound!r}")
        d, phi = extend_witness(profile, bound)
        prefix.append(d)
        profile = HomProfile.pinned(build_gadget(tuple(prefix)), g, phi)
        bounds.append(bound)
        levels.append(phi)
    return Tower(tuple(prefix), tuple(levels), tuple(bounds))


def evaluate(t: Tower, m: int, k: int, tbits) -> str:
    """Finite limit-map evaluation: the pinned image of (k, tbits) at level
    m + len(tbits).  Coherence makes the value stable under appending bits
    and raising the level together."""
    tbits = tuple(tbits)
    if not all(b in (0, 1) for b in tbits):
        raise ParseError(f"tbits must be 0/1, got {tbits!r}")
    if not (is_natural(m) and is_natural(k)):
        raise InvalidIndex("m and k must be nonnegative")
    if m == 0:
        if k != 0:
            raise InvalidIndex(f"birth level 0 forces k = 0, got k = {k}")
    else:
        if m - 1 >= len(t.prefix):
            raise OutOfTruncation(
                f"birth level {m} beyond tower depth {t.depth}")
        if k > t.prefix[m - 1]:
            raise InvalidIndex(f"k = {k} exceeds c({m - 1}) = {t.prefix[m - 1]}")
    level = m + len(tbits)
    if level > t.depth:
        raise OutOfTruncation(f"level {level} beyond tower depth {t.depth}")
    position = build_gadget(t.prefix[:level]).require_vertex(GadgetVertex(k, tbits))
    return t.levels[level].vertex_images[position]


@dataclass(frozen=True)
class TowerReport:
    """Verification outcome; all violations are listed, none raised."""

    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": self.checks,
                "violations": list(self.violations)}


def verify_tower(t: Tower, g: WitnessedGraph) -> TowerReport:
    """Re-check every Tower invariant against the target graph.

    Covers: homomorphism validity per level, odd join lengths meeting the
    schedule, the largeness precondition (all pinned values avoid
    2-colorable components), and coherence of consecutive levels: both
    copy restrictions of level n+1 (copy 0 is its first V(n) vertex and
    E(n) witness images, copy 1 its last ones reversed) equal level n,
    vertex images and witness images alike.  Positions and edges are named
    by closed form, and only to report a fault.
    """
    checks = 0
    bad: list[str] = []
    if len(t.levels) != t.depth + 1:
        bad.append(f"expected {t.depth + 1} levels, got {len(t.levels)}")
        return TowerReport(1, tuple(bad))
    for n, c in enumerate(t.prefix):
        checks += 1
        if c % 2 == 0 or c < 1:
            bad.append(f"c({n}) = {c} is not odd")
        if n < len(t.schedule_values) and c < t.schedule_values[n]:
            bad.append(f"c({n}) = {c} below schedule bound {t.schedule_values[n]}")
    gadgets = [build_gadget(t.prefix[:n]) for n in range(t.depth + 1)]
    shape_ok = True
    for n, hom in enumerate(t.levels):
        checks += 1
        expect = gadgets[n]
        if (len(hom.vertex_images) != expect.vertex_count
                or len(hom.witness_images) != expect.edge_count):
            bad.append(f"level {n}: wrong assignment shape")
            shape_ok = False
            continue
        try:
            validate_hom(expect, g, hom)
        except Exception as exc:
            bad.append(f"level {n}: {exc}")
    if not shape_ok:
        return TowerReport(checks, tuple(bad))
    nb = nonbipartite_vertices(g)
    for n, hom in enumerate(t.levels):
        checks += 1
        outside = sorted(set(hom.vertex_images) - nb)
        if outside:
            bad.append(
                f"level {n}: largeness precondition fails, images "
                f"{', '.join(map(repr, outside))} lie in 2-colorable components")
    for n in range(t.depth):
        small, want = gadgets[n], t.levels[n]
        for bit in (0, 1):
            checks += small.vertex_count + small.edge_count
            got = copy_restriction(gadgets[n + 1], small, t.levels[n + 1], bit)
            if got == want:
                continue
            where = f"coherence broken at level {n + 1}, copy {bit}"
            for i, (got_v, want_v) in enumerate(zip(got.vertex_images,
                                                    want.vertex_images)):
                if got_v != want_v:
                    bad.append(f"{where}, vertex {small.vertex_at(i).label}: "
                               f"{got_v!r} vs {want_v!r}")
            for j, (got_w, want_w) in enumerate(zip(got.witness_images,
                                                    want.witness_images)):
                if got_w != want_w:
                    bad.append(f"{where}, edge {edge_label(small, j)}: "
                               f"{got_w!r} vs {want_w!r}")
    return TowerReport(checks, tuple(bad))
