"""Finite witnessed multigraphs.

A graph is presented by a witness set: every witness id names one edge via an
unordered pair of distinct endpoint vertices, and several witnesses may name
the same pair.  Homomorphisms elsewhere in the package must pick a witness
for every edge they use, so the multiplicity is semantically visible.

All iteration orders are ascending by id; nothing here depends on hash order.
This module holds the data and its lookups only: every walk over the graph
(components, parity classes, exact walks) is a parity BFS in oddwalk.parity.
"""

from __future__ import annotations

import json
from collections.abc import Hashable
from itertools import chain
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import ParseError, UnknownVertex


def vertex_pair(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) form of an unordered vertex pair."""
    return (u, v) if u <= v else (v, u)


def _require_ids(ids, what: str) -> None:
    """Raise ParseError naming the first of ids that is not a nonempty
    string.  Checked in bulk; walked only to name the fault."""
    if set(map(type, ids)) <= {str} and "" not in ids:
        return
    for x in ids:
        if not (isinstance(x, str) and x):
            raise ParseError(f"{what} must be a nonempty string, got {x!r}")


def _not_an_array(wid, pair) -> ParseError:
    """The error for witness ends that are not a list or tuple."""
    return ParseError(f'witness {wid!r}: "ends" must be an array of two '
                      f"vertex ids, got {pair!r}")


def _json_witness_ends(entries) -> dict:
    """Witness id -> its "ends" array, from the entries of a graph JSON's
    "witnesses" list.  Checked in bulk; walked in file order only to name
    the fault."""
    try:
        ids = list(map(itemgetter("id"), entries))
        pairs = list(map(itemgetter("ends"), entries))
        if set(map(type, pairs)) <= {list, tuple} and len(set(ids)) == len(ids):
            return dict(zip(ids, pairs))
    except (KeyError, TypeError):   # an entry that is not an object, or
        pass                        # an id that is not hashable
    ends = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "ends" not in entry:
            raise ParseError('each witness needs "id" and "ends"')
        wid = entry["id"]
        if not isinstance(wid, Hashable):
            raise ParseError(f"witness id must be a nonempty string, got {wid!r}")
        if wid in ends:
            raise ParseError(f"duplicate witness id {wid!r}")
        pair = entry["ends"]
        if not isinstance(pair, (list, tuple)):
            raise _not_an_array(wid, pair)
        ends[wid] = pair
    return ends


class WitnessedGraph:
    """Immutable finite multigraph with witness-presented edges."""

    __slots__ = ("vertices", "witnesses", "ends", "_neighbors", "_between",
                 "_vindex", "_windex", "_steps", "_facts")

    def __init__(self, vertices, ends):
        vs = list(vertices)
        _require_ids(vs, "vertex id")
        self.vertices: tuple[str, ...] = tuple(sorted(set(vs)))
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        try:
            witnesses = sorted(ends)
        except TypeError:   # ids of types that do not compare
            witnesses = list(ends)
        _require_ids(witnesses, "witness id")
        # each pair a list or tuple, as in graph JSON: a string or a dict of
        # two items is not a pair
        pairs = list(map(ends.__getitem__, witnesses))
        if not set(map(type, pairs)) <= {list, tuple}:
            for w, pair in zip(witnesses, pairs):
                if not isinstance(pair, (list, tuple)):
                    raise _not_an_array(w, pair)
        flat = list(chain.from_iterable(pairs))
        heads, tails = flat[::2], flat[1::2]
        if not (set(map(len, pairs)) <= {2} and set(map(type, flat)) <= {str}
                and self._vindex.keys() >= set(flat)
                and not any(map(eq, heads, tails))):
            self._explain_ends(witnesses, pairs)
        self.witnesses: tuple[str, ...] = tuple(witnesses)
        fixed = dict(zip(witnesses, map(vertex_pair, heads, tails)))
        self.ends: dict[str, tuple[str, str]] = fixed
        between: dict[tuple[str, str], list[str]] = {}
        for w, pair in fixed.items():   # in ascending id order
            between.setdefault(pair, []).append(w)
        self._between = {p: tuple(ws) for p, ws in between.items()}
        nbr: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in between:   # each adjacent pair once
            nbr[u].append(v)
            nbr[v].append(u)
        self._neighbors = {v: tuple(sorted(us)) for v, us in nbr.items()}
        self._windex = {w: i for i, w in enumerate(self.witnesses)}
        self._steps = None
        self._facts: dict = {}

    def _explain_ends(self, witnesses, pairs) -> None:
        """Raise ParseError for the first witness, in id order, whose ends
        are not two distinct vertices of this graph."""
        for w, pair in zip(witnesses, pairs):
            if len(pair) != 2:
                raise ParseError(f"witness {w!r} must have exactly two ends")
            u, v = pair
            if not (isinstance(u, str) and isinstance(v, str)
                    and u in self._vindex and v in self._vindex):
                raise ParseError(f"witness {w!r} has unknown endpoint")
            if u == v:
                raise ParseError(f"witness {w!r} is a loop at {u!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, vertices, pairs, id_prefix: str = "w") -> "WitnessedGraph":
        """Build from a list of endpoint pairs with auto-generated witness ids."""
        ends = {f"{id_prefix}{i}": p for i, p in enumerate(pairs)}
        return cls(vertices, ends)

    @classmethod
    def from_json_dict(cls, data) -> "WitnessedGraph":
        if not isinstance(data, dict):
            raise ParseError("graph JSON must be an object")
        if "vertices" not in data or "witnesses" not in data:
            raise ParseError('graph JSON needs "vertices" and "witnesses" keys')
        if not isinstance(data["vertices"], list):
            raise ParseError('"vertices" must be a list')
        if not isinstance(data["witnesses"], list):
            raise ParseError('"witnesses" must be a list')
        return cls(data["vertices"], _json_witness_ends(data["witnesses"]))

    @classmethod
    def from_json_text(cls, text: str) -> "WitnessedGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)

    @classmethod
    def from_edge_text(cls, text: str) -> "WitnessedGraph":
        """Plain-text fallback: one "u v" pair per line, ids w0, w1, ... in order."""
        vertices: list[str] = []
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                vertices.append(parts[0])
                continue
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
            pairs.append((parts[0], parts[1]))
        for u, v in pairs:
            vertices.extend((u, v))
        return cls.make(vertices, pairs)

    @classmethod
    def from_text(cls, text: str) -> "WitnessedGraph":
        """Sniff JSON vs. edge-list input."""
        if text.lstrip().startswith("{"):
            return cls.from_json_text(text)
        return cls.from_edge_text(text)

    # -- queries -----------------------------------------------------------

    def require_vertices(self, ids) -> None:
        bad = sorted(set(v for v in ids if v not in self._vindex))
        if bad:
            raise UnknownVertex(f"unknown vertex ids: {', '.join(map(repr, bad))}")

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def vertex_index(self, v: str) -> int:
        if v not in self._vindex:
            raise UnknownVertex(f"unknown vertex id: {v!r}")
        return self._vindex[v]

    def vertex_indices(self, ids) -> tuple[int, ...]:
        """vertex_index of every id, looked up in one pass."""
        try:
            return tuple(map(self._vindex.__getitem__, ids))
        except KeyError as exc:
            raise UnknownVertex(f"unknown vertex id: {exc.args[0]!r}") from None

    def witness_indices(self, ids) -> tuple[int, ...]:
        """The index of every witness id, looked up in one pass."""
        try:
            return tuple(map(self._windex.__getitem__, ids))
        except KeyError as exc:
            raise UnknownVertex(f"unknown witness id: {exc.args[0]!r}") from None

    @property
    def steps(self) -> frozenset:
        """Every oriented step (witness, u, v) along a witness joining u and
        v, both ways round; built on first use."""
        if self._steps is None:
            self._steps = frozenset(
                step for w, (u, v) in self.ends.items()
                for step in ((w, u, v), (w, v, u)))
        return self._steps

    def memo(self, key, compute):
        """compute(), kept on this graph under key.

        The graph is immutable, so a fact derived from it alone (its parity
        classes, the odd girth at a vertex, a least walk) is computed once
        per graph.  Callers must not mutate a value they get back.
        """
        facts = self._facts
        if key not in facts:
            facts[key] = compute()
        return facts[key]

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._neighbors[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex ids: {v!r}") from None

    def degree(self, v: str) -> int:
        """Number of incident witnesses (multigraph degree)."""
        between = self._between
        return sum(len(between[vertex_pair(v, u)]) for u in self.neighbors(v))

    def max_neighbor_count(self) -> int:
        return max((len(self._neighbors[v]) for v in self.vertices), default=0)

    def adjacent(self, u: str, v: str) -> bool:
        return bool(self.witnesses_between(u, v))

    def witnesses_between(self, u: str, v: str) -> tuple[str, ...]:
        found = self._between.get(vertex_pair(u, v))
        if found is None:
            # not adjacent, or not both vertices of this graph
            self.require_vertices([u, v])
            return ()
        return found

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "witnesses": [{"id": w, "ends": list(self.ends[w])}
                          for w in self.witnesses],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, WitnessedGraph):
            return NotImplemented
        return (self.vertices == other.vertices and self.ends == other.ends)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.ends.items()))))

    def __repr__(self) -> str:
        return (f"WitnessedGraph({len(self.vertices)} vertices, "
                f"{len(self.witnesses)} witnesses)")


class Walk(NamedTuple):
    """A walk: vertex sequence plus the witness chosen for every step."""

    vertices: tuple[str, ...]
    witnesses: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.witnesses)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1

    @property
    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def validate(self, g: WitnessedGraph) -> None:
        if len(self.vertices) != len(self.witnesses) + 1 or not self.vertices:
            raise ParseError("walk needs one more vertex than witnesses")
        g.require_vertices(self.vertices)
        for j, w in enumerate(self.witnesses):
            if w not in g.ends:
                raise UnknownVertex(f"unknown witness id: {w!r}")
            if g.ends[w] != vertex_pair(self.vertices[j], self.vertices[j + 1]):
                raise ParseError(
                    f"step {j}: witness {w!r} does not join "
                    f"{self.vertices[j]!r} and {self.vertices[j + 1]!r}")

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "witnesses": list(self.witnesses),
                "length": self.length}


class Coloring(NamedTuple):
    """Map from vertex ids to color indices."""

    by_vertex: dict

    def of(self, v: str) -> int:
        return self.by_vertex[v]

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_vertex))

    @property
    def colors_used(self) -> int:
        return len(set(self.by_vertex.values()))

    def covers(self, g: WitnessedGraph) -> bool:
        return all(v in self.by_vertex for v in g.vertices)

    def is_proper(self, g: WitnessedGraph) -> bool:
        """Endpoints of every witness with both ends in the domain differ."""
        for w in g.witnesses:
            u, v = g.ends[w]
            if u in self.by_vertex and v in self.by_vertex:
                if self.by_vertex[u] == self.by_vertex[v]:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {v: self.by_vertex[v] for v in sorted(self.by_vertex)}
