"""DOT, TikZ, and JSON emitters for gadgets, graphs, level quotients and
towers.

Gadget renderings color vertices by birth level: the top-level join path
gets the current level's color, copied vertices keep the color of the level
they were born at, the gadget level less the length of their copy history.
Headers record the parameter prefix and a size note: this recursion is
based at a single vertex, and an otherwise identical recursion based at a
single edge yields larger counts (38 instead of 30 vertices for the prefix
1,3,5), so both totals are stated to avoid confusion when comparing
drawings from elsewhere.  The edge-based count E(n) follows the same
recursion from E(0) = 2, so E(n) = V(n) + 2^n.

The gadget renderings and the JSON row writers read only the gadget's
labels, which come from the doubling recurrence (gadget.level_labels), and
build no vertex list: a label p<k>.<t> spells out the join index k and the
copy history t, so the birth level is the gadget level less len(t).
The row writers return JsonText values, one f-string per row, which
cli._dumps places at their final indentation with no pass over the text:
gadget_to_json_rows and quotient_to_json_rows write the gadget and quotient
arrays, tower_to_json_rows each tower level's vertex and witness
assignments, homs_to_json_rows the vertex and witness assignments of
homomorphisms over one gadget (sorting its labels once for all of them),
and equivalence_to_json_rows each equivalence map.
These writers are the only JSON form of a gadget, quotient, tower,
homomorphism or equivalence tower in the package.  The dicts each is
checked against are in the test oracles, built from a vertex list of
their own.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii

from .dichotomy import Tower
from .equiv import EquivalenceTower
from .gadget import PathGadget, level_labels
from .graphs import WitnessedGraph
from .limitgraph import LevelQuotient

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _prefix_text(prefix) -> str:
    return ",".join(map(str, prefix)) if prefix else "(empty)"


def _gadget_header(g: PathGadget, comment: str) -> list[str]:
    return [
        f"{comment} path gadget for c={_prefix_text(g.prefix)}: "
        f"{g.vertex_count} vertices, {g.edge_count} edges",
        f"{comment} size note: recursion based at a single vertex; an "
        f"edge-based variant yields {g.vertex_count + 2 ** g.level} vertices "
        f"for this prefix",
    ]


def _birth_levels(g: PathGadget) -> list[int]:
    """Each vertex's birth level, in path order, read from its label."""
    n = g.level
    return [n - len(label.partition(".")[2]) for label in g.labels]


def gadget_to_dot(g: PathGadget) -> str:
    lines = _gadget_header(g, "//")
    lines += ["graph gadget {", "  rankdir=LR;",
              '  node [style=filled, fontcolor=white];']
    for i, (m, label) in enumerate(zip(_birth_levels(g), g.labels)):
        color = PALETTE[m % len(PALETTE)]
        lines.append(f'  n{i} [label="{label}", fillcolor="{color}"];')
    for i in range(g.edge_count):
        lines.append(f"  n{i} -- n{i + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gadget_to_tikz(g: PathGadget) -> str:
    lines = _gadget_header(g, "%")
    births = _birth_levels(g)
    for m in sorted(set(births)):
        color = PALETTE[m % len(PALETTE)].lstrip("#").upper()
        lines.append(f"\\definecolor{{lvl{m}}}{{HTML}}{{{color}}}")
    lines.append("\\begin{tikzpicture}[x=0.9cm]")
    for i, (m, label) in enumerate(zip(births, g.labels)):
        lines.append(
            f"  \\node[circle, draw, fill=lvl{m}, text=white, "
            f"inner sep=1pt, font=\\tiny] (n{i}) at ({i}, 0) {{{label}}};")
    for i in range(g.edge_count):
        lines.append(f"  \\draw (n{i}) -- (n{i + 1});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _gadget_json_scalars(g: PathGadget) -> dict:
    return {
        "c": list(g.prefix),
        "oddPrefix": g.odd_prefix,
        "vertexCount": g.vertex_count,
        "edgeCount": g.edge_count,
        "sizeNote": ("single-vertex base recursion; an edge-based variant "
                     f"yields {g.vertex_count + 2 ** g.level} vertices"),
    }


class JsonText:
    """A JSON value that writes its own text: write(indent) returns what
    json.dumps(value, indent=2, sort_keys=True) writes for the value where
    it starts on a line indented by `indent` (a newline and the line's
    spaces).  Rows are made at their final indentation, and cli._dumps
    only calls write in the value's place.

    A plain class and not a str, so that the standard library's encoder
    raises TypeError on one that reaches it instead of quoting it.
    """

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write


def _rows(opening: str, closing: str, rows) -> JsonText:
    """A JSON array or object whose element rows are rows(inner): the list
    of element texts, each starting on a line indented by inner."""
    def write(indent: str) -> str:
        inner = indent + "  "
        body = ("," + inner).join(rows(inner))
        return opening + inner + body + indent + closing if body else opening + closing
    return JsonText(write)


# The row writers below put labels into JSON strings unescaped: a label is
# "p", ASCII digits and, after a ".", copy bits 0/1 (level_labels), so it
# holds nothing JSON escapes.  Its k and t are its own text.  Graph ids may
# need escaping, so each is encoded once with the function json.dumps uses.

def gadget_to_json_rows(g: PathGadget) -> dict:
    """The gadget's JSON: its scalars, with the vertices and edges written
    as JsonText rows from the labels."""
    labels = g.labels
    n = g.level

    def vertices(i: str) -> list[str]:
        j = i + "  "
        rows = []
        for label in labels:
            head, _, t = label.partition(".")
            rows.append(f'{{{j}"birthLevel": {n - len(t)},{j}"k": {head[1:]},'
                        f'{j}"label": "{label}",{j}"t": "{t}"{i}}}')
        return rows

    def edges(i: str) -> list[str]:
        j = i + "  "
        return [f'[{j}"{a}",{j}"{b}"{i}]' for a, b in zip(labels, labels[1:])]

    return {**_gadget_json_scalars(g), "vertices": _rows("[", "]", vertices),
            "edges": _rows("[", "]", edges)}


def quotient_to_json_rows(q: LevelQuotient) -> dict:
    """The quotient's JSON, with the classes and edges written as JsonText
    rows from the gadget's labels: class (m, k, t) is the label p<k>.<t>
    with m its birth level."""
    g = q.gadget
    labels = g.labels
    n = g.level

    def classes(i: str) -> list[str]:
        j = i + "  "
        rows = []
        for label in labels:
            head, _, t = label.partition(".")
            rows.append(f'{{{j}"bits": "{t}",{j}"k": {head[1:]},'
                        f'{j}"m": {n - len(t)}{i}}}')
        return rows

    def edges(i: str) -> list[str]:
        j = i + "  "
        return [f"[{j}{k},{j}{k + 1}{i}]" for k in range(g.edge_count)]

    return {"c": list(q.prefix), "classes": _rows("[", "]", classes),
            "edges": _rows("[", "]", edges)}


def _encoded_ids(homs) -> dict:
    """Each graph id the homs use, mapped to its JSON string."""
    return {x: encode_basestring_ascii(x) for x in set(chain.from_iterable(
        chain(hom.vertex_images, hom.witness_images) for hom in homs))}


def _label_order(labels) -> tuple[list[int], list[int]]:
    """The positions in label order, for vertex rows, and the same less the
    last position, for edge rows.

    One index sort serves both: edge j's key labels[j]--labels[j + 1]
    sorts as labels[j] does.  Labels are unique, '-' sorts below '.' and
    every digit, and a label that is a prefix of another sorts first
    either way.
    """
    positions = sorted(range(len(labels)), key=labels.__getitem__)
    edges = positions.copy()
    edges.remove(len(labels) - 1)   # the last position starts no edge
    return positions, edges


def _assignment_rows(labels, order, hom, ids) -> dict:
    """A homomorphism's vertexAssignments (label to vertex id) and
    witnessAssignments (edge label a--b to witness id), both written as
    JsonText rows in the label order of _label_order; labels are the
    gadget's in path order and ids maps each graph id to its JSON
    string."""
    positions, edges = order
    vimgs, wimgs = hom.vertex_images, hom.witness_images
    vertex_rows = [f'"{labels[p]}": {ids[vimgs[p]]}' for p in positions]
    witness_rows = [f'"{labels[j]}--{labels[j + 1]}": {ids[wimgs[j]]}'
                    for j in edges]
    return {"vertexAssignments": _rows("{", "}", lambda i: vertex_rows),
            "witnessAssignments": _rows("{", "}", lambda i: witness_rows)}


def tower_to_json_rows(t: Tower) -> dict:
    """The tower's JSON: its prefix and schedule, and per level the
    vertex and witness assignments (_assignment_rows) written as JsonText
    rows from the doubling labels (level_labels); level n's row at
    position p reads top[p]."""
    ids = _encoded_ids([t.top])
    return {
        "c": list(t.prefix),
        "levels": [_assignment_rows(labels, _label_order(labels), t.top, ids)
                   for labels in level_labels(t.prefix)],
        "schedule": list(t.schedule_values),
    }


def homs_to_json_rows(g: PathGadget, homs) -> list[dict]:
    """The vertex and witness assignments (_assignment_rows) of each hom
    over the gadget g, as JsonText rows: the labels are sorted once and
    each graph id is encoded once for all of the homs."""
    labels = g.labels
    order = _label_order(labels)
    ids = _encoded_ids(homs)
    return [_assignment_rows(labels, order, hom, ids) for hom in homs]


def _map_rows(labels, targets, images) -> JsonText:
    """One equivalence map as JsonText rows: each source label to the
    label of its target image, both unescaped."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rows = [f'"{labels[p]}": "{targets[images[p]]}"' for p in order]
    return _rows("{", "}", lambda i: rows)


def equivalence_to_json_rows(t: EquivalenceTower) -> dict:
    """The equivalence tower's JSON: prefixes, level map, suffixes as bit
    strings and join walks, with each map written as JsonText rows
    (_map_rows) from the doubling labels of both prefixes."""
    targets = list(level_labels(t.target_prefix[:t.level_map[-1]]))
    return {
        "c": list(t.source_prefix),
        "d": list(t.target_prefix),
        "levelMap": list(t.level_map),
        "suffixes": [["".join(map(str, s)) for s in pair] for pair in t.suffixes],
        "joinWalks": [list(w) for w in t.join_walks],
        "maps": [_map_rows(labels, targets[m], images) for labels, m, images
                 in zip(level_labels(t.source_prefix[:t.depth]), t.level_map,
                        t.maps)],
    }


def gadget_to_text(g: PathGadget) -> str:
    lines = _gadget_header(g, "#")
    lines.append(" -- ".join(g.labels))
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: WitnessedGraph) -> str:
    lines = [f"// witnessed graph: {len(g.vertices)} vertices, "
             f"{len(g.witnesses)} witnesses",
             "graph g {"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for w in g.witnesses:
        u, v = g.ends[w]
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [label={_dot_quote(w)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# LaTeX's special characters, each written as text; one pass, so the
# braces of an escape are not escaped again
_TEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}", "{": r"\{", "}": r"\}", "_": r"\_",
    "^": r"\^{}", "#": r"\#", "$": r"\$", "%": r"\%", "&": r"\&",
    "~": r"\~{}"})


def graph_to_tikz(g: WitnessedGraph) -> str:
    lines = [f"% witnessed graph: {len(g.vertices)} vertices, "
             f"{len(g.witnesses)} witnesses",
             "\\begin{tikzpicture}[x=1.2cm]"]
    for i, v in enumerate(g.vertices):
        lines.append(
            f"  \\node[circle, draw, inner sep=1pt, font=\\small] "
            f"(v{i}) at ({i}, 0) {{{v.translate(_TEX_ESCAPES)}}};")
    index = {v: i for i, v in enumerate(g.vertices)}
    for w in g.witnesses:
        u, v = g.ends[w]
        lines.append(
            f"  \\draw (v{index[u]}) to[bend left] (v{index[v]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"

