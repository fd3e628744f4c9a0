"""Two-coloring versus homomorphism-tower dichotomy driver.

For a bipartite input the driver returns a proper 2-coloring.  Otherwise it
grows a tower: pin a root homomorphism at the least vertex lying on an odd
closed walk, then repeatedly choose an odd join length meeting the caller's
schedule, glue two copies of the current pinned homomorphism along a closed
walk of that length plus two, and pin the result.  Pinning stands in for the
shrinking-closure step of the infinite construction: in a finite model a
diameter below one already forces singletons.

Each pinned level is the copy-0 restriction of the next, and copy 0 keeps
path positions, so a Tower holds only its top: level n is the top's first
V(n) vertex and E(n) witness images, and every reader takes it from there.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidIndex, OutOfTruncation, ParseError
from .gadget import (GadgetVertex, ascii_int, build_gadget, is_natural,
                     require_natural)
from .graphs import Coloring, WitnessedGraph
from .homset import (Hom, HomProfile, all_homs, edge_label, extend_witness,
                     pin, validate_hom)
from .parity import nonbipartite_vertices, parity_classes


class Tower(NamedTuple):
    """Coherent pinned homomorphisms, one per gadget level, held as the top.

    top is over the gadget with the whole prefix; level n, over prefix[:n],
    is its first V(n) vertex and E(n) witness images.  schedule_values
    records the lower bounds the join lengths had to meet.
    """

    prefix: tuple[int, ...]
    top: Hom
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
    require_natural(depth, "depth")
    if schedule is None:
        schedule = unbounded_schedule_default()
    classes = parity_classes(g)
    odd = [v for v in g.vertices if classes[v][1] is None]
    if not odd:
        return Coloring({v: classes[v][1] for v in g.vertices})
    phi = Hom((odd[0],), ())
    profile = pin(all_homs(build_gadget(()), g), phi)
    prefix: list[int] = []
    bounds: list[int] = []
    for n in range(depth):
        bound = schedule(n)
        require_natural(bound, f"schedule({n})")
        d, phi = extend_witness(profile, bound)
        prefix.append(d)
        profile = HomProfile.pinned(build_gadget(tuple(prefix)), g, phi)
        bounds.append(bound)
    return Tower(tuple(prefix), phi, tuple(bounds))


def evaluate(t: Tower, m: int, k: int, tbits) -> str:
    """Finite limit-map evaluation: the top's image of (k, tbits) at level
    m + len(tbits), where it keeps its position.  Coherence makes the value
    stable under appending bits and raising the level together."""
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
    return t.top.vertex_images[position]


class TowerReport(NamedTuple):
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

    Covers: odd join lengths meeting the schedule, the top's shape and
    homomorphism validity, the largeness precondition (all pinned values
    avoid 2-colorable components), and copy-1 coherence: level n+1's last
    V(n) vertex and E(n) witness images, reversed, equal level n.  Each
    level is a head of the top, so the top's checks cover every level and
    copy 0 needs none.  Faults are named by closed form.
    """
    checks = 0
    bad: list[str] = []
    for n, c in enumerate(t.prefix):
        checks += 1
        if c % 2 == 0 or c < 1:
            bad.append(f"c({n}) = {c} is not odd")
        if n < len(t.schedule_values) and c < t.schedule_values[n]:
            bad.append(f"c({n}) = {c} below schedule bound {t.schedule_values[n]}")
    gadget = build_gadget(t.prefix)
    vimgs, wimgs = t.top.vertex_images, t.top.witness_images
    checks += 1
    if len(vimgs) != gadget.vertex_count or len(wimgs) != gadget.edge_count:
        bad.append(f"level {t.depth}: wrong assignment shape")
        return TowerReport(checks, tuple(bad))
    try:
        validate_hom(gadget, g, t.top)
    except Exception as exc:
        bad.append(f"level {t.depth}: {exc}")
    checks += 1
    outside = sorted(set(vimgs) - nonbipartite_vertices(g))
    if outside:
        bad.append(f"level {t.depth}: largeness precondition fails, images "
                   f"{', '.join(map(repr, outside))} lie in 2-colorable components")
    for n, (size, end) in enumerate(zip(gadget.sizes, gadget.sizes[1:])):
        checks += 2 * size - 1
        copy_v = vimgs[end - 1:end - size - 1:-1]
        copy_w = wimgs[end - 2:end - size - 1:-1]
        if copy_v == vimgs[:size] and copy_w == wimgs[:size - 1]:
            continue
        small = build_gadget(t.prefix[:n])
        where = f"coherence broken at level {n + 1}, copy 1"
        for i, (got, want) in enumerate(zip(copy_v, vimgs)):
            if got != want:
                bad.append(f"{where}, vertex {small.vertex_at(i).label}: "
                           f"{got!r} vs {want!r}")
        for j, (got, want) in enumerate(zip(copy_w, wimgs)):
            if got != want:
                bad.append(f"{where}, edge {edge_label(small, j)}: "
                           f"{got!r} vs {want!r}")
    return TowerReport(checks, tuple(bad))
