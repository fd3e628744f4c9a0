"""Coherent homomorphism families between two gadget hierarchies.

The planner maps the level-n gadget for prefix c into some level-m(n) gadget
for prefix d, one level at a time: both copies of the source are sent
through the previous map followed by a per-copy suffix of copy bits, and the
fresh source join path is laid along a walk in the target of the right
length.  Such a walk exists iff the two suffixed images sit at distance at
most c(n)+2 with the right parity.  A copy bit keeps a path position or
mirrors it, so a suffix is one affine map p -> +-p + offset, which lifts a
whole copy block (PathGadget.copy_map).  The planner sweeps up the target
levels carrying only the positions the gluing image can reach within c(n)+2
of either end (one further out never comes back), and stops where the
first position joins its own mirror; no other pair joins first
(_first_join).  The join is laid along path_exact_walk, a step rule over
walks.greedy_walk (down while the end stays in reach, else up), which past
the path's vertex count reads only the parity of the steps left: O(V)
steps for a join of any length, and MemoryError at once for one of
sys.maxsize steps or more.  The verifier re-checks everything edge by edge.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from typing import NamedTuple

from .errors import GapInsufficient, ParseError
from .gadget import build_gadget, check_odd_prefix, is_natural, require_natural
from .walks import greedy_walk


def path_walk_exists(distance: int, length: int) -> bool:
    """A walk of the given length between path vertices at the given distance
    exists iff the length is at least the distance and has its parity."""
    return length >= distance and (length - distance) % 2 == 0


def path_exact_walk(n_vertices: int, start: int, end: int, length: int) -> list[int]:
    """Lexicographically least position walk of exact length along a path:
    down a step while end stays in reach, else up.  Past the path's vertex
    count only the parity of the steps left is read, as greedy_walk asks."""
    if not path_walk_exists(abs(start - end), length) or (length and n_vertices < 2):
        raise ParseError("no walk of that length exists")
    return greedy_walk(start, length, lambda p, r: (
        p - 1 if p and path_walk_exists(abs(p - 1 - end), r - 1) else p + 1,
        None), n_vertices)[0]


class EquivalenceTower(NamedTuple):
    """Planned maps h_n from source levels into target levels.

    maps[n] lists, by source path position, the path positions of the
    images in the target gadget at level level_map[n].  suffixes[n] are the
    copy-bit strings (s0, s1) appended when passing from level n to n+1;
    join_walks[n] is the target position walk carrying the level-n source
    join path.
    """

    source_prefix: tuple[int, ...]
    target_prefix: tuple[int, ...]
    level_map: tuple[int, ...]
    suffixes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    join_walks: tuple[tuple[int, ...], ...]
    maps: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.level_map) - 1


def _first_join(target, glue: int, start: int, length: int):
    """The least (mm, s0, s1) whose suffixed gluing images a0, a1 at target
    level mm are joined by a walk of the given length, as
    (mm, s0, s1, a0, a1); None when no level of the target joins them.

    reach maps each position the image can reach at the current level,
    within length of an end, to the suffix reaching it.  At the least
    joining level L + 1 only one position x joins, with its own mirror, so
    the pair is (s + (0,), s + (1,)) for the s reaching x.  Proof: the
    length l and top_j = V(j+1) - 1 are odd.  Suffixes that last differ at
    level j put their images top_j - x' - y' apart, x' and y' their level-j
    images, and later equal bits keep that distance.  So a pair that joins
    first last differs at L, and its level-L images x, y have x + y even
    and both lie within l of the right end, so |x - y| < l.  If x != y,
    their suffixes last differ at some j < L, where top_j - x' - y' =
    |x - y| is even, so z = max(x', y') has top_j - 2z < l, odd: z, held
    by the sweep, joined its own mirror at j + 1 < L + 1.  Two joining
    positions x, x' fail the same way: |x - x'| < l, and their suffixes or
    such a z join at a level below.
    """
    reach = {glue: ()}
    for level in range(start, len(target.prefix)):
        top = target.sizes[level + 1] - 1
        for x, s in reach.items():  # x and its mirror are top - 2x apart
            if path_walk_exists(top - 2 * x, length):
                return level + 1, s + (0,), s + (1,), x, top - x
        # p and its mirror are as near an end; further than length stays so
        reach = {q: s + (bit,) for p, s in reach.items()
                 if min(p, top - p) <= length
                 for bit, q in ((0, p), (1, top - p))}
    return None


def _lift(target, level: int, bits, images) -> tuple[int, ...]:
    """The level-`level` positions, in order, with `bits` appended: one
    affine map (PathGadget.copy_map) applied in C."""
    sign, offset = target.copy_map(level, bits)
    return tuple(map(offset.__add__ if sign > 0 else offset.__sub__, images))


def plan_equivalence(c, d, depth: int) -> EquivalenceTower:
    """Greedy construction of an equivalence tower of the given depth.

    Raises GapInsufficient when the target prefix is too short to absorb
    the requested levels; a longer target prefix may still succeed.

    Level n+1 takes the least-length suffix pair whose gluing images join:
    (s + (0,), s + (1,)) for the one position that first joins its own
    mirror, found by one sweep up the target levels from level_map[n] that
    keeps at most 2 (c[n] + 3) positions per level (_first_join), so in
    O(len(d) c[n]) per source level.  Each copy block is then lifted by one
    affine map per suffix (_lift).
    """
    c = check_odd_prefix(c)
    d = check_odd_prefix(d)
    require_natural(depth, "depth")
    if depth > len(c):
        raise ParseError(f"depth {depth} exceeds source prefix length {len(c)}")
    target = build_gadget(d)
    level_map = [0]
    maps: list[tuple[int, ...]] = [(0,)]
    suffixes = []
    walks = []
    for n in range(depth):
        length = c[n] + 2
        start = level_map[n]
        glue = maps[n][-1]
        found = _first_join(target, glue, start, length)
        if not found:
            glue_label = build_gadget(d[:start]).vertex_at(glue).label
            raise GapInsufficient(
                f"target prefix {d} cannot absorb level {n} "
                f"(join length {length} from image {glue_label})")
        mm, s0, s1, a0, a1 = found
        walk = path_exact_walk(target.sizes[mm], a0, a1, length)
        level_map.append(mm)
        suffixes.append((s0, s1))
        walks.append(tuple(walk))
        # level n+1 of the source: copy 0, then the join, then copy 1 mirrored
        maps.append(_lift(target, start, s0, maps[n]) + tuple(walk[1:-1])
                    + _lift(target, start, s1, reversed(maps[n])))
    return EquivalenceTower(c, d, tuple(level_map), tuple(suffixes),
                            tuple(walks), tuple(maps))


class EquivReport(NamedTuple):
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": self.checks,
                "violations": list(self.violations)}


def verify_equivalence(t: EquivalenceTower) -> EquivReport:
    """Re-check every map, coherence, and join walk of a tower, on target
    path positions; labels are built only to name a fault."""
    checks = 0
    bad: list[str] = []
    depth = t.depth
    if not (len(t.maps) == depth + 1 and len(t.suffixes) == depth
            and len(t.join_walks) == depth):
        return EquivReport(1, ("inconsistent field lengths",))
    if t.level_map[0] != 0:
        bad.append("level map must start at 0")
    if any(a > b for a, b in zip(t.level_map, t.level_map[1:])):
        bad.append("level map must be nondecreasing")
    if max(t.level_map) > len(t.target_prefix):
        bad.append("level map must stay within the target prefix")
    target = build_gadget(t.target_prefix)
    levels = [build_gadget(t.target_prefix[:m]) for m in t.level_map]
    sizes = build_gadget(t.source_prefix[:depth]).sizes
    placed = True
    for n, images in enumerate(t.maps):
        checks += 1
        size = levels[n].vertex_count
        # one C-level pass each for range and adjacency; only a failing
        # level is walked image by image, to name its first fault
        outside = () if (set(map(type, images)) == {int} and min(images) >= 0
                         and max(images) < size) else [
            p for p in images if not (is_natural(p) and p < size)]
        if len(images) != sizes[n] or outside:
            placed = False
            bad.append(f"level {n}: wrong image count" if len(images) != sizes[n]
                       else f"level {n}: image {outside[0]!r} not in target gadget")
            continue
        checks += len(images) - 1
        if not {1, -1}.issuperset(map(sub, images[1:], images)):
            for j, (a, b) in enumerate(zip(images, images[1:])):
                if abs(a - b) != 1:
                    bad.append(f"level {n}, edge {j}: images "
                               f"{levels[n].vertex_at(a).label}, "
                               f"{levels[n].vertex_at(b).label} not adjacent")
    if not placed:
        return EquivReport(checks, tuple(bad))
    for n in range(depth):
        small = sizes[n]
        s0, s1 = t.suffixes[n]
        start = t.level_map[n]
        want_len = t.level_map[n + 1] - start
        checks += 1
        if len(s0) != want_len or len(s1) != want_len:
            bad.append(f"level {n}: suffix lengths must be {want_len}")
            continue
        if not {0, 1}.issuperset(s0 + s1):
            bad.append(f"level {n}: suffixes must be copy bits")
            continue
        upper = t.maps[n + 1]
        checks += 2 * small
        # copy 0 is the head of level n+1, copy 1 its tail reversed
        got = (upper[:small], upper[:-small - 1:-1])
        want = (_lift(target, start, s0, t.maps[n]),
                _lift(target, start, s1, t.maps[n]))
        if got != want:
            at = levels[n + 1].vertex_at
            for i, bit in product(range(small), (0, 1)):
                if got[bit][i] != want[bit][i]:
                    v = build_gadget(t.source_prefix[:n]).vertex_at(i)
                    bad.append(f"coherence broken at level {n + 1}, copy {bit}, "
                               f"vertex {v.label}: {at(got[bit][i]).label} "
                               f"vs {at(want[bit][i]).label}")
        walk = t.join_walks[n]
        checks += 1
        if len(walk) != t.source_prefix[n] + 3:
            bad.append(f"level {n}: join walk must have {t.source_prefix[n] + 3} stops")
            continue
        if any(abs(a - b) != 1 for a, b in zip(walk, walk[1:])):
            bad.append(f"level {n}: join walk is not a walk")
        if not all(is_natural(p) and p < levels[n + 1].vertex_count for p in walk):
            bad.append(f"level {n}: join walk leaves the target gadget")
            continue
        # images of the copy-0 and copy-1 relabelings of the right endpoint
        if walk[0] != upper[small - 1] or walk[-1] != upper[-small]:
            bad.append(f"level {n}: join walk endpoints disagree with the maps")
        for k in range(t.source_prefix[n] + 1):
            checks += 1
            if upper[small + k] != walk[k + 1]:
                bad.append(f"level {n}: join vertex p{k} off the recorded walk")
    return EquivReport(checks, tuple(bad))
