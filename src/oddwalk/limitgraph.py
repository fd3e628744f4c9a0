"""Symbolic truncation of the limit graph over a parameter sequence.

Vertices are triples (m, k, x): birth level m, join index k, and an infinite
binary continuation x restricted to eventually periodic sequences, the exact
decidable fragment.  A vertex projects to the level-n gadget vertex with
label (k, first n-m bits of x); two vertices are adjacent iff their
projections are adjacent at level max(m_a, m_b) and the correspondingly
shifted tails agree forever.  That characterization is validated against
brute-force gadget construction (bruteforce.projections_adjacent_everywhere
and the test oracles) rather than assumed.

Every query here reads gadget positions by closed form, and no vertex list
is built.  A LevelQuotient numbers the depth-n classes by path position;
its JSON is render.quotient_to_json_rows, written from the doubling
(gadget.births).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidVertex, LevelOutOfRange, ParseError, UnknownVertex
from .gadget import (GadgetVertex, PathGadget, ascii_int, build_gadget,
                     check_odd_prefix, check_prefix, endpoint_label)


class _EpFields(NamedTuple):
    prefix: tuple[int, ...]
    period: tuple[int, ...]


class EpBits(_EpFields):
    """Eventually periodic binary sequence in canonical form.

    Canonical means the period is primitive and the prefix is shortest:
    a shared last bit of prefix and period is absorbed by rotating the
    period.  Two values denote the same sequence iff they are equal.  The
    constructor and _make, and so _replace, return the canonical form.
    """

    __slots__ = ()

    def __new__(cls, prefix, period):
        pre, per = tuple(prefix), tuple(period)
        if not per:
            raise ParseError("period must be nonempty")
        for b in pre + per:
            if b not in (0, 1):
                raise ParseError(f"bits must be 0 or 1, got {b!r}")
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per == per[:d] * (len(per) // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        return super().__new__(cls, pre, per)

    @classmethod
    def _make(cls, iterable) -> "EpBits":
        return cls(*iterable)

    @classmethod
    def from_strings(cls, prefix: str, period: str) -> "EpBits":
        pre, per = prefix.strip(), period.strip()
        if not all(ch.isascii() and ch.isdigit() for ch in pre + per):
            raise ParseError(f"bad bit strings {prefix!r}, {period!r}")
        return cls(tuple(map(int, pre)), tuple(map(int, per)))

    @classmethod
    def constant(cls, bit: int) -> "EpBits":
        return cls((), (bit,))

    def bit(self, i: int) -> int:
        if i < 0:
            raise ParseError("bit index must be nonnegative")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def take(self, n: int) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(n))

    def shift(self, j: int) -> "EpBits":
        """The tail after dropping the first j bits."""
        if j < 0:
            raise ParseError("shift must be nonnegative")
        if j <= len(self.prefix):
            return EpBits(self.prefix[j:], self.period)
        r = (j - len(self.prefix)) % len(self.period)
        return EpBits((), self.period[r:] + self.period[:r])

    def prepend(self, bits) -> "EpBits":
        return EpBits(tuple(bits) + self.prefix, self.period)

    def first_one(self) -> int | None:
        """Index of the first 1 bit, or None for the all-zero sequence."""
        for i, b in enumerate(self.prefix):
            if b:
                return i
        for i, b in enumerate(self.period):
            if b:
                return len(self.prefix) + i
        return None

    def sort_key(self) -> tuple:
        return (self.prefix, self.period)

    def to_json_dict(self) -> dict:
        return {"prefix": "".join(map(str, self.prefix)),
                "period": "".join(map(str, self.period))}

    def __str__(self) -> str:
        pre = "".join(map(str, self.prefix))
        per = "".join(map(str, self.period))
        return f"{pre}({per})"


EP_ZERO = EpBits((), (0,))


class LcVertex(NamedTuple):
    """Limit-graph vertex (m, k, x)."""

    m: int
    k: int
    x: EpBits

    @property
    def label(self) -> str:
        return f"({self.m},{self.k},{self.x})"

    def sort_key(self) -> tuple:
        return (self.m, self.k) + self.x.sort_key()

    def to_json_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "x": self.x.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data) -> "LcVertex":
        """The vertex to_json_dict writes; m and k must be JSON integers."""
        try:
            m, k, x = data["m"], data["k"], data["x"]
            for name, value in (("m", m), ("k", k)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ParseError(f"bad limit-graph vertex: {name} must be "
                                     f"an integer, got {value!r}")
            return cls(m, k, EpBits.from_strings(x.get("prefix", ""), x["period"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"bad limit-graph vertex: {exc}") from None

    @classmethod
    def from_text(cls, text: str) -> "LcVertex":
        """Compact form m:k:prefix:period, e.g. 0:0::0 or 1:2:01:10."""
        parts = text.split(":")
        if len(parts) != 4:
            raise ParseError(f"vertex must look like m:k:prefix:period, got {text!r}")
        m, k = ascii_int(parts[0]), ascii_int(parts[1])
        if m is None or k is None:
            raise ParseError(f"bad m or k in {text!r}")
        return cls(m, k, EpBits.from_strings(parts[2], parts[3]))


def validate_vertex(v: LcVertex, prefix) -> tuple[int, ...]:
    """The checked prefix; InvalidVertex unless v is a vertex over it."""
    prefix = check_prefix(prefix)
    _check_vertex(v, prefix)
    return prefix


def _check_vertex(v: LcVertex, prefix: tuple[int, ...]) -> None:
    """validate_vertex over an already checked prefix."""
    for value in (v.m, v.k):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidVertex(f"{v.label}: m and k must be integers")
    if v.m < 0 or v.k < 0:
        raise InvalidVertex(f"{v.label}: m and k must be nonnegative")
    if v.m == 0:
        if v.k != 0:
            raise InvalidVertex(f"{v.label}: birth level 0 forces k = 0")
    else:
        if v.m - 1 >= len(prefix):
            raise InvalidVertex(
                f"{v.label}: birth level {v.m} beyond prefix of length {len(prefix)}")
        if v.k > prefix[v.m - 1]:
            raise InvalidVertex(
                f"{v.label}: k = {v.k} exceeds c({v.m - 1}) = {prefix[v.m - 1]}")


def project_level(v: LcVertex, n: int, prefix) -> GadgetVertex:
    """The level-n gadget vertex (k, first n-m bits of x)."""
    prefix = validate_vertex(v, prefix)
    if not (v.m <= n <= len(prefix)):
        raise LevelOutOfRange(
            f"level {n} outside [{v.m}, {len(prefix)}] for {v.label}")
    return GadgetVertex(v.k, v.x.take(n - v.m))


def adjacent(a: LcVertex, b: LcVertex, prefix) -> bool:
    """Projections adjacent at level max(m_a, m_b) and tails equal onward."""
    prefix = validate_vertex(a, prefix)
    _check_vertex(b, prefix)
    n = max(a.m, b.m)
    if n == 0:
        return False
    # the prefix is checked once, above, and both projections are to
    # level n >= m, as project_level would check
    g = PathGadget(prefix[:n])
    pa = g.require_vertex(GadgetVertex(a.k, a.x.take(n - a.m)))
    pb = g.require_vertex(GadgetVertex(b.k, b.x.take(n - b.m)))
    if abs(pa - pb) != 1:
        return False
    return a.x.shift(n - a.m) == b.x.shift(n - b.m)


def neighbors(v: LcVertex, prefix) -> tuple[LcVertex, ...]:
    """Exact neighbors among vertices with birth level within the prefix.

    Join-path vertices see their index neighbors at the same birth level
    plus, at the ends of the join, the copied right-endpoint vertex they
    attach to.  A birth-level-0 vertex attaches upward at level 1
    unconditionally and additionally at level j+2 when its continuation
    starts with j zeros followed by a one.
    """
    prefix = validate_vertex(v, prefix)
    out: list[LcVertex] = []
    if v.m >= 1:
        c = prefix[v.m - 1]
        for kk in (v.k - 1, v.k + 1):
            if 0 <= kk <= c:
                out.append(LcVertex(v.m, kk, v.x))
        # the join ends attach to copy 0 and copy 1 of the right endpoint
        e1 = endpoint_label(v.m - 1, 1).t
        if v.k == 0:
            out.append(LcVertex(0, 0, v.x.prepend(e1 + (0,))))
        if v.k == c:
            out.append(LcVertex(0, 0, v.x.prepend(e1 + (1,))))
    else:
        if len(prefix) >= 1:
            i = v.x.bit(0)
            out.append(LcVertex(1, 0 if i == 0 else prefix[0], v.x.shift(1)))
        j = v.x.first_one()
        if j is not None and j + 2 <= len(prefix):
            i = v.x.bit(j + 1)
            out.append(LcVertex(j + 2, 0 if i == 0 else prefix[j + 1], v.x.shift(j + 2)))
    return tuple(sorted(out, key=LcVertex.sort_key))


def same_component(a: LcVertex, b: LcVertex, prefix=None) -> bool:
    """True iff finite head strings t0, t1 with |t0| - |t1| = m_b - m_a turn
    both continuations into a common tail.

    Canonical periods are primitive, so tails can only coincide when the
    period lengths are equal; otherwise relative shifts are scanned up to
    one period past both prefixes.  The answer never depends on the
    parameter values themselves.
    """
    if prefix is not None:
        validate_vertex(a, prefix)
        validate_vertex(b, prefix)
    if len(a.x.period) != len(b.x.period):
        return False
    delta = b.m - a.m
    window = max(len(b.x.prefix), len(a.x.prefix) - delta, 0)
    window += len(a.x.period)
    for j in range(max(0, -delta), window + 1):
        if a.x.shift(j + delta) == b.x.shift(j):
            return True
    return False


class LevelQuotient(NamedTuple):
    """Bijection between depth-n vertex classes and the level-n gadget.

    The class of (m, k, x) is (m, k, first n-m bits of x); classes are
    numbered by gadget path position, so the quotient edges are exactly the
    consecutive pairs.
    """

    prefix: tuple[int, ...]
    gadget: PathGadget

    def class_of(self, v: LcVertex) -> int:
        """Position of v's class, i.e. of its level-n projection."""
        n = len(self.prefix)
        return self.gadget.require_vertex(project_level(v, n, self.prefix))

    def representative(self, position: int, tail: EpBits = EP_ZERO) -> LcVertex:
        """A member of the class at the given position, default tail zeros.

        Raises UnknownVertex for a position off the level-n path or not an
        int.
        """
        gv = self.gadget.vertex_at(position)
        n = len(self.prefix)
        return LcVertex(n - len(gv.t), gv.k, tail.prepend(gv.t))


def level_quotient(prefix) -> LevelQuotient:
    prefix = check_prefix(prefix)
    return LevelQuotient(prefix, build_gadget(prefix))


class SiblingObstruction(NamedTuple):
    """Odd-distance report for one sibling pair in the level quotient."""

    left: GadgetVertex
    right: GadgetVertex
    distance: int

    @property
    def odd(self) -> bool:
        return self.distance % 2 == 1

    def to_json_dict(self) -> dict:
        return {"left": self.left.label, "right": self.right.label,
                "distance": self.distance, "odd": self.odd}


def odd_sibling_obstruction(prefix, k: int, t) -> SiblingObstruction:
    """Distance between the two last-bit siblings over (k, t) at the top level.

    An odd distance for every such pair is what rules out a 2-coloring that
    is stable under the copy maps.
    """
    g = build_gadget(check_odd_prefix(prefix))
    t = tuple(t)
    left = GadgetVertex(k, t + (0,))
    right = GadgetVertex(k, t + (1,))
    positions = []
    for gv in (left, right):
        try:
            positions.append(g.require_vertex(gv))
        except UnknownVertex:
            raise UnknownVertex(
                f"{gv.label} is not a level-{g.level} vertex") from None
    return SiblingObstruction(left, right, abs(positions[0] - positions[1]))
