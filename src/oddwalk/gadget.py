"""Recursive path gadgets.

Level 0 is a single root vertex.  Level n+1 joins two relabeled copies of
level n (append bit 0 / bit 1 to every copy history) by a fresh path of
c(n)+2 edges through c(n)+1 new join vertices.  The result is always a
simple path; vertices are identified by their structured label (join index
k, copy-history bits t), and positions along the path are derived.

Sizes and positions have a closed form.  The level-L gadget has V(L)
vertices, with V(0) = 1 and V(L+1) = 2 V(L) + c(L) + 1: copy 0 fills
positions [0, V(L)) in order, the join fills [V(L), V(L) + c(L)], and copy 1
fills the rest mirrored.  So vertex (k, t) born at level m = n - len(t)
starts at V(m-1) + k (at 0 when m = 0), and each copy bit b appended at
level L keeps the position when b = 0 and maps it to V(L+1) - 1 - pos when
b = 1, so a bit string is one affine map pos -> sign * pos + offset:
PathGadget.copy_map, the one home of this mirror rule.  require_vertex ends
with it, in O(level), and vertex_at is its inverse.
So between modules a gadget vertex travels as its path position; a
GadgetVertex is made only to name one.

A PathGadget is its prefix and sizes and holds nothing else: counts,
vertex lookups and endpoints never build the path, and no vertex list is
built here at all.  A whole gadget is listed by the doubling from the root
(level n+1 is level n with bit 0 appended, the join, then level n reversed
with bit 1 appended), in one of two forms, and each writer reads the one
it needs.  level_labels lists every level's labels, each from the previous
level's, and labels(prefix) is its last level.  births runs the same
doubling on a text made once per vertex at its birth (level m, join index
k) and its copy bits, and yields the top level as it is made, for the
writers that read a vertex's parts; label_head is the text that spells a
label's head there.  GadgetVertex.label formats a single vertex, for
messages and queries.  The vertex lists the closed forms are checked
against are built by the independent checkers (bruteforce and the test
oracles), with none of these closed forms or the label recurrence.

The prefix rules live here once: check_prefix (integers >= 1),
check_odd_prefix (every value odd) and check_next_level (one gadget is the
next level of another).
"""

from __future__ import annotations

import sys
from itertools import compress
from typing import NamedTuple

from .errors import NonOddPrefix, ParseError, PrefixMismatch, UnknownVertex


class GadgetVertex(NamedTuple):
    """Structured label (k, t): join index at birth, then copy-history bits.

    A named tuple equal to the plain tuple (k, t), so vertices are created,
    hashed, compared and ordered in C.
    """

    k: int
    t: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if not self.t:
            return f"p{self.k}"
        return f"p{self.k}." + "".join(str(b) for b in self.t)

    @classmethod
    def from_label(cls, text: str) -> "GadgetVertex":
        """Parse a canonical label, the form .label writes: p, the join
        index in ASCII digits, then '.' and the history bits if any."""
        body = text.strip()
        if not body.startswith("p"):
            raise ParseError(f"vertex label must look like p2 or p0.011, got {text!r}")
        head, _, bits = body[1:].partition(".")
        k = ascii_int(head)
        if k is None:
            raise ParseError(f"bad join index in label {text!r}")
        if k < 0:
            raise ParseError(f"negative join index in label {text!r}")
        if not all(ch in "01" for ch in bits):
            raise ParseError(f"bad history bits in label {text!r}")
        v = cls(k, tuple(int(ch) for ch in bits))
        if v.label != body:
            raise ParseError(f"label {text!r} is not in canonical form {v.label!r}")
        return v

    def append(self, bit: int) -> "GadgetVertex":
        return GadgetVertex(self.k, self.t + (bit,))

    def __str__(self) -> str:
        return self.label


# the copy bits; a set test, so that checking a label's history runs in C
_BITS = frozenset((0, 1))


def ascii_int(text: str) -> int | None:
    """The integer written in text as ASCII digits after an optional '-',
    else None.  Unlike int(), no sign '+', no spaces, no '_' separators and
    no other script's digits."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def is_natural(value) -> bool:
    """An int >= 0 and not a bool: a count, index or length."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def require_natural(value, name: str) -> None:
    """Raise ParseError unless value is_natural, naming it by name."""
    if not is_natural(value):
        raise ParseError(f"{name} must be a natural number, got {value!r}")


def check_prefix(prefix) -> tuple[int, ...]:
    """Validate a parameter prefix: a tuple of integers >= 1.  Checked in
    bulk; walked only to name the first fault."""
    vals = tuple(prefix)
    if set(map(type, vals)) <= {int} and (not vals or min(vals) >= 1):
        return vals
    for c in vals:
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise ParseError(f"prefix values must be integers >= 1, got {c!r}")
    return vals


def check_odd_prefix(prefix) -> tuple[int, ...]:
    """check_prefix, then NonOddPrefix unless every value is odd."""
    vals = check_prefix(prefix)
    if any(c % 2 == 0 for c in vals):
        raise NonOddPrefix(f"prefix {vals} has an even value")
    return vals


def parse_prefix(text: str) -> tuple[int, ...]:
    """Parse a comma-separated prefix of ASCII integers (ascii_int), spaces
    allowed around each; the empty string means level 0."""
    body = text.strip()
    if not body:
        return ()
    vals = tuple(map(ascii_int, map(str.strip, body.split(","))))
    if None in vals:
        raise ParseError(f"bad prefix {text!r}; expected e.g. 1,3,5")
    return check_prefix(vals)


class PathGadget:
    """The level-n gadget: a labeled simple path, held as its prefix and
    sizes alone.

    Equal, and hashed, by prefix.  Positions and vertices come from the
    prefix and sizes by closed form (require_vertex, vertex_at); the whole
    path is listed by labels(prefix) or births, and kept by neither.
    """

    __slots__ = ("prefix", "sizes")

    def __init__(self, prefix: tuple[int, ...]):
        self.prefix = prefix
        # V(0), ..., V(n) by the size recursion
        self.sizes = sizes = [1]
        for c in prefix:
            sizes.append(2 * sizes[-1] + c + 1)

    @property
    def level(self) -> int:
        return len(self.prefix)

    @property
    def odd_prefix(self) -> bool:
        return all(c % 2 == 1 for c in self.prefix)

    @property
    def vertex_count(self) -> int:
        return self.sizes[-1]

    @property
    def edge_count(self) -> int:
        return self.sizes[-1] - 1

    def require_vertex(self, v: GadgetVertex) -> int:
        """Path position of v in O(level); UnknownVertex if v is not in
        this gadget, a join index that is not an int included."""
        prefix, sizes = self.prefix, self.sizes
        n = len(prefix)
        m = n - len(v.t)
        if (m < 0 or not is_natural(v.k) or v.k > (prefix[m - 1] if m else 0)
                or not _BITS.issuperset(v.t)):
            raise UnknownVertex(f"vertex {v.label} is not in the level-{n} gadget")
        sign, offset = self.copy_map(m, v.t)
        return sign * (sizes[m - 1] + v.k if m else 0) + offset

    def copy_map(self, level: int, bits) -> tuple[int, int]:
        """The map p -> sign * p + offset taking a level-`level` path
        position to where it lands once `bits` are appended, one copy bit
        per level above: bit 0 at level L keeps p, and bit 1 mirrors it to
        V(L+1) - 1 - p.  The bits must be 0/1 and level + len(bits) at most
        this gadget's level."""
        sign, offset = 1, 0
        for size in compress(self.sizes[level + 1:], bits):  # the 1-bits' V(L+1)
            sign, offset = -sign, size - 1 - offset
        return sign, offset

    def copy_position(self, pos: int, level: int, bits) -> int:
        """Where the level-`level` vertex at path position pos lands once
        `bits` are appended (copy_map)."""
        sign, offset = self.copy_map(level, bits)
        return sign * pos + offset

    def vertex_at(self, pos: int) -> GadgetVertex:
        """The vertex at a path position in O(level), the inverse of
        require_vertex; UnknownVertex for anything but an int position
        on the path."""
        prefix, sizes = self.prefix, self.sizes
        if not (is_natural(pos) and pos < sizes[-1]):
            raise UnknownVertex(
                f"no vertex at position {pos} in the level-{len(prefix)} gadget")
        bits: list[int] = []
        for level in range(len(prefix), 0, -1):
            half = sizes[level - 1]
            if pos < half:
                bits.append(0)
            elif pos <= half + prefix[level - 1]:
                return GadgetVertex(pos - half, tuple(reversed(bits)))
            else:
                bits.append(1)
                # the mirror is its own inverse
                sign, offset = self.copy_map(level - 1, (1,))
                pos = sign * pos + offset
        return GadgetVertex(0, tuple(reversed(bits)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathGadget):
            return NotImplemented
        return self.prefix == other.prefix

    def __hash__(self) -> int:
        return hash(self.prefix)

    def __repr__(self) -> str:
        return f"PathGadget(prefix={self.prefix}, vertices={self.vertex_count})"


def build_gadget(prefix) -> PathGadget:
    """The gadget for the given parameter prefix; nothing is listed."""
    return PathGadget(check_prefix(prefix))


def level_labels(prefix):
    """Yield the vertex labels of the gadget at each level 0..n, in path
    order, without building a gadget.

    Level n+1 is copy 0's labels with bit 0 appended, the join vertices
    p0..pc, then copy 1's labels reversed with bit 1 appended; the first
    copy bit of a label follows a '.', so only level n's own join block,
    the one run of labels without a '.', takes one before its bit.
    """
    prefix = _listable(prefix)
    labels = ["p0"]
    yield labels
    lo, hi = 0, 1   # level n's join block is labels[lo:hi]
    for c in prefix:
        n = len(labels)
        top = [lab + "0" for lab in labels]
        top[lo:hi] = [lab + ".0" for lab in labels[lo:hi]]
        top += [f"p{k}" for k in range(c + 1)]
        one = [lab + "1" for lab in reversed(labels)]
        one[n - hi:n - lo] = [lab + ".1" for lab in reversed(labels[lo:hi])]
        top += one
        labels, lo, hi = top, n, n + c + 1
        yield labels


def labels(prefix) -> list[str]:
    """The vertex labels of the gadget for the prefix, in path order: the
    last level of level_labels."""
    for top in level_labels(prefix):
        pass
    return top


def label_head(level: int):
    """The text(m, k) for births that spells the head of a label in the
    level-`level` gadget: p<k>, then a '.' before the copy bits of a vertex
    born below the top level."""
    return lambda m, k: f"p{k}." if m < level else f"p{k}"


def births(prefix, text):
    """Yield (text(m, k), t) for each vertex of the gadget for the prefix,
    in path order: m is its birth level, k its join index and t its copy
    bits as a string of 0s and 1s.

    The doubling of level_labels, with each vertex's text made once, at its
    birth, and carried along with its bits: level m is level m-1 with bit 0
    appended, the join k = 0..c born at level m, then level m-1 reversed
    with bit 1 appended.  Only the level below the top is held, as two
    lists; the top level is yielded as it is made.
    """
    prefix = _listable(prefix)
    if not prefix:
        yield text(0, 0), ""
        return
    texts, bits = [text(0, 0)], [""]
    for m, c in enumerate(prefix[:-1], 1):
        texts = texts + [text(m, k) for k in range(c + 1)] + texts[::-1]
        bits = ([t + "0" for t in bits] + [""] * (c + 1)
                + [t + "1" for t in reversed(bits)])
    # the top join is listed before the first row too, so that a join
    # too large for memory fails before any row
    join = [text(len(prefix), k) for k in range(prefix[-1] + 1)]
    for head, t in zip(texts, bits):
        yield head, t + "0"
    for head in join:
        yield head, ""
    for head, t in zip(reversed(texts), reversed(bits)):
        yield head, t + "1"


def _listable(prefix) -> tuple[int, ...]:
    """check_prefix, then MemoryError, at once, for a join of sys.maxsize
    vertices or more: no list can hold it."""
    prefix = check_prefix(prefix)
    if prefix and max(prefix) >= sys.maxsize:
        raise MemoryError
    return prefix


def gadget_size(prefix) -> int:
    """Vertex count V(n) of the gadget for the prefix."""
    return build_gadget(prefix).vertex_count


def vertex_position(prefix, v: GadgetVertex) -> int:
    """Path position of v in the gadget for the prefix, in O(level)
    (PathGadget.require_vertex)."""
    return build_gadget(prefix).require_vertex(v)


def vertex_at(prefix, pos: int) -> GadgetVertex:
    """The vertex at a path position of the gadget for the prefix, in
    O(level) (PathGadget.vertex_at)."""
    return build_gadget(prefix).vertex_at(pos)


def endpoints(g: PathGadget) -> tuple[GadgetVertex, GadgetVertex]:
    """The two path ends; at level 0 both are the root."""
    return endpoint_label(g.level, 0), endpoint_label(g.level, 1)


def endpoint_label(level: int, i: int) -> GadgetVertex:
    """Closed-form endpoint label: root with history 0^(n-1) then bit i."""
    if level == 0:
        return GadgetVertex(0, ())
    return GadgetVertex(0, (0,) * (level - 1) + (i,))


def check_next_level(small: PathGadget, big: PathGadget, bit: int) -> None:
    """ParseError unless bit is a copy bit, PrefixMismatch unless big is
    the level above small."""
    if bit not in (0, 1):
        raise ParseError(f"copy bit must be 0 or 1, got {bit!r}")
    if big.level != small.level + 1 or big.prefix[:small.level] != small.prefix:
        raise PrefixMismatch(
            f"prefix {big.prefix} does not extend {small.prefix} by one level")


def gadget_distance(g: PathGadget, u: GadgetVertex, v: GadgetVertex) -> int:
    """Distance along the path: difference of positions."""
    return abs(g.require_vertex(u) - g.require_vertex(v))
