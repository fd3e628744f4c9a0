"""Coherent homomorphism families between two gadget hierarchies.

The planner maps the level-n gadget for prefix c into some level-m(n) gadget
for prefix d, one level at a time: both copies of the source are sent
through the previous map followed by a per-copy suffix of copy bits, and the
fresh source join path is laid along a walk in the target of the right
length.  Such a walk exists iff the two suffixed images sit at distance at
most c(n)+2 with the right parity, so the planner greedily advances the
target level until some suffix pair satisfies that, and the verifier
re-checks everything edge by edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GapInsufficient, ParseError, UnknownVertex
from .gadget import (GadgetVertex, build_gadget, check_odd_prefix, is_natural,
                     level_labels)


def path_walk_exists(distance: int, length: int) -> bool:
    """A walk of the given length between path vertices at the given distance
    exists iff the length is at least the distance and has its parity."""
    return length >= distance and (length - distance) % 2 == 0


def path_exact_walk(n_vertices: int, start: int, end: int, length: int) -> list[int]:
    """Lexicographically least position walk of exact length along a path."""
    if not path_walk_exists(abs(start - end), length):
        raise ParseError("no walk of that length exists")
    walk = [start]
    cur = start
    for r in range(length, 0, -1):
        for nxt in (cur - 1, cur + 1):
            if 0 <= nxt < n_vertices and path_walk_exists(abs(nxt - end), r - 1):
                walk.append(nxt)
                cur = nxt
                break
        else:
            raise AssertionError("parity feasibility promised a step")
    return walk


@dataclass(frozen=True)
class EquivalenceTower:
    """Planned maps h_n from source levels into target levels.

    maps[n] lists target vertices by source path position.  suffixes[n] are
    the copy-bit strings (s0, s1) appended when passing from level n to
    n+1; join_walks[n] is the target position walk carrying the level-n
    source join path.
    """

    source_prefix: tuple[int, ...]
    target_prefix: tuple[int, ...]
    level_map: tuple[int, ...]
    suffixes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    join_walks: tuple[tuple[int, ...], ...]
    maps: tuple[tuple[GadgetVertex, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.level_map) - 1

    def to_json_dict(self) -> dict:
        return {
            "c": list(self.source_prefix),
            "d": list(self.target_prefix),
            "levelMap": list(self.level_map),
            "suffixes": [["".join(map(str, s)) for s in pair]
                         for pair in self.suffixes],
            "joinWalks": [list(w) for w in self.join_walks],
            "maps": [{src: img.label for src, img in zip(labels, images)}
                     for labels, images in zip(
                         level_labels(self.source_prefix[:self.depth]), self.maps)],
        }


def _append_suffix(v: GadgetVertex, suffix: tuple[int, ...]) -> GadgetVertex:
    return GadgetVertex(v.k, v.t + suffix)


def plan_equivalence(c, d, depth: int) -> EquivalenceTower:
    """Greedy construction of an equivalence tower of the given depth.

    Raises GapInsufficient when the target prefix is too short to absorb
    the requested levels; a longer target prefix may still succeed.
    """
    c = check_odd_prefix(c)
    d = check_odd_prefix(d)
    if not is_natural(depth):
        raise ParseError(f"depth must be a natural number, got {depth!r}")
    if depth > len(c):
        raise ParseError(f"depth {depth} exceeds source prefix length {len(c)}")
    level_map = [0]
    maps: list[tuple[GadgetVertex, ...]] = [(GadgetVertex(0, ()),)]
    suffixes = []
    walks = []
    for n in range(depth):
        length = c[n] + 2
        glue_img = maps[n][-1]
        found = None
        for mm in range(level_map[n], len(d) + 1):
            target = build_gadget(d[:mm])
            slen = mm - level_map[n]
            for s0, s1 in itertools.product(itertools.product((0, 1), repeat=slen),
                                            repeat=2):
                a0 = target.require_vertex(_append_suffix(glue_img, s0))
                a1 = target.require_vertex(_append_suffix(glue_img, s1))
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
        walk = path_exact_walk(target.vertex_count, a0, a1, length)
        # level n+1 of the source: copy 0, then the join, then copy 1 mirrored
        images = ([_append_suffix(img, s0) for img in maps[n]]
                  + [target.vertex_at(p) for p in walk[1:-1]]
                  + [_append_suffix(img, s1) for img in reversed(maps[n])])
        level_map.append(mm)
        suffixes.append((s0, s1))
        walks.append(tuple(walk))
        maps.append(tuple(images))
    return EquivalenceTower(c, d, tuple(level_map), tuple(suffixes),
                            tuple(walks), tuple(maps))


@dataclass(frozen=True)
class EquivReport:
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": self.checks,
                "violations": list(self.violations)}


def verify_equivalence(t: EquivalenceTower) -> EquivReport:
    """Re-check every map, coherence, and join walk of a tower."""
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
    sources = []
    for n in range(depth + 1):
        images = t.maps[n]
        checks += 1
        sources.append(build_gadget(t.source_prefix[:n]))
        if len(images) != sources[n].vertex_count:
            bad.append(f"level {n}: wrong image count")
            continue
        target = build_gadget(t.target_prefix[:t.level_map[n]])
        positions = []
        for img in images:
            try:
                positions.append(target.require_vertex(img))
            except UnknownVertex:
                bad.append(f"level {n}: image {img.label} not in target gadget")
                break
        else:
            for j in range(len(images) - 1):
                checks += 1
                if abs(positions[j] - positions[j + 1]) != 1:
                    bad.append(
                        f"level {n}, edge {j}: images {images[j].label}, "
                        f"{images[j + 1].label} not adjacent")
    for n in range(depth):
        # source positions: copy 0 keeps position i of level n, copy 1 sends
        # it to big - 1 - i, and join vertex k sits at small + k
        small = sources[n].vertex_count
        big = sources[n + 1].vertex_count
        s0, s1 = t.suffixes[n]
        want_len = t.level_map[n + 1] - t.level_map[n]
        checks += 1
        if len(s0) != want_len or len(s1) != want_len:
            bad.append(f"level {n}: suffix lengths must be {want_len}")
            continue
        for i in range(small):
            for got_pos, bit, suf in ((i, 0, s0), (big - 1 - i, 1, s1)):
                checks += 1
                got = t.maps[n + 1][got_pos]
                want = _append_suffix(t.maps[n][i], suf)
                if got != want:
                    v = sources[n].vertex_at(i)
                    bad.append(
                        f"coherence broken at level {n + 1}, copy {bit}, "
                        f"vertex {v.label}: {got.label} vs {want.label}")
        walk = t.join_walks[n]
        checks += 1
        if len(walk) != t.source_prefix[n] + 3:
            bad.append(f"level {n}: join walk must have {t.source_prefix[n] + 3} stops")
            continue
        if any(abs(a - b) != 1 for a, b in zip(walk, walk[1:])):
            bad.append(f"level {n}: join walk is not a walk")
        target = build_gadget(t.target_prefix[:t.level_map[n + 1]])
        if not all(is_natural(p) and p < target.vertex_count for p in walk):
            bad.append(f"level {n}: join walk leaves the target gadget")
            continue
        # images of the copy-0 and copy-1 relabelings of the right endpoint
        left = t.maps[n + 1][small - 1]
        right = t.maps[n + 1][big - small]
        if (target.vertex_at(walk[0]) != left
                or target.vertex_at(walk[-1]) != right):
            bad.append(f"level {n}: join walk endpoints disagree with the maps")
        for k in range(t.source_prefix[n] + 1):
            checks += 1
            got = t.maps[n + 1][small + k]
            if got != target.vertex_at(walk[k + 1]):
                bad.append(f"level {n}: join vertex p{k} off the recorded walk")
    return EquivReport(checks, tuple(bad))
