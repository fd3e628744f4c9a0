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

Every emitter is lazy: the DOT, TikZ and text renderers are generators of
lines, and the JSON row writers give JsonRows, whose rows are made one at
a time as cli._emit writes them.  No output is held whole.

The gadget renderings and the JSON row writers read only the gadget's
labels, which come from the doubling recurrence (gadget.level_labels), and
build no vertex list: a label p<k>.<t> spells out the join index k and the
copy history t, so the birth level is the gadget level less len(t).
Each row is one f-string at its final indentation:
gadget_to_json_rows and quotient_to_json_rows write the gadget and quotient
arrays, tower_to_json_rows each tower level's vertex and witness
assignments, homs_to_json_rows the vertex and witness assignments of
homomorphisms over one gadget (sorting its labels once for all of them),
and equivalence_to_json_rows each equivalence map; tower levels, the
homomorphisms and equivalence maps come from generators too.
These writers are the only JSON form of a gadget, quotient, tower,
homomorphism or equivalence tower in the package.  The dicts each is
checked against are in the test oracles, built from a vertex list of
their own.  The writers do no validation, so nothing they are given can
fail once output has begun.
"""

from __future__ import annotations

from itertools import chain, islice
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


def _gadget_header(g: PathGadget, comment: str) -> tuple[str, str]:
    return (
        f"{comment} path gadget for c={_prefix_text(g.prefix)}: "
        f"{g.vertex_count} vertices, {g.edge_count} edges\n",
        f"{comment} size note: recursion based at a single vertex; an "
        f"edge-based variant yields {g.vertex_count + 2 ** g.level} vertices "
        f"for this prefix\n",
    )


def _birth_levels(g: PathGadget):
    """Each vertex's birth level, in path order, read from its label."""
    n = g.level
    return (n - len(label.partition(".")[2]) for label in g.labels)


def gadget_to_dot(g: PathGadget):
    yield from _gadget_header(g, "//")
    yield "graph gadget {\n  rankdir=LR;\n  node [style=filled, fontcolor=white];\n"
    for i, (m, label) in enumerate(zip(_birth_levels(g), g.labels)):
        color = PALETTE[m % len(PALETTE)]
        yield f'  n{i} [label="{label}", fillcolor="{color}"];\n'
    for i in range(g.edge_count):
        yield f"  n{i} -- n{i + 1};\n"
    yield "}\n"


def gadget_to_tikz(g: PathGadget):
    yield from _gadget_header(g, "%")
    for m in sorted(set(_birth_levels(g))):
        color = PALETTE[m % len(PALETTE)].lstrip("#").upper()
        yield f"\\definecolor{{lvl{m}}}{{HTML}}{{{color}}}\n"
    yield "\\begin{tikzpicture}[x=0.9cm]\n"
    for i, (m, label) in enumerate(zip(_birth_levels(g), g.labels)):
        yield (f"  \\node[circle, draw, fill=lvl{m}, text=white, "
               f"inner sep=1pt, font=\\tiny] (n{i}) at ({i}, 0) {{{label}}};\n")
    for i in range(g.edge_count):
        yield f"  \\draw (n{i}) -- (n{i + 1});\n"
    yield "\\end{tikzpicture}\n"


def _gadget_json_scalars(g: PathGadget) -> dict:
    return {
        "c": list(g.prefix),
        "oddPrefix": g.odd_prefix,
        "vertexCount": g.vertex_count,
        "edgeCount": g.edge_count,
        "sizeNote": ("single-vertex base recursion; an edge-based variant "
                     f"yields {g.vertex_count + 2 ** g.level} vertices"),
    }


class JsonRows:
    """A JSON array or object given by the text of its members:
    rows(inner) yields each member's text as json.dumps(value, indent=2,
    sort_keys=True) writes it where the member starts on a line indented by
    `inner` (a newline and the line's spaces); cli._emit writes the
    brackets and separators around them.

    A plain class and not a str or a generator, so that the standard
    library's encoder raises TypeError on one that reaches it instead of
    quoting it.
    """

    __slots__ = ("opening", "closing", "rows")

    def __init__(self, opening: str, closing: str, rows):
        self.opening, self.closing, self.rows = opening, closing, rows


# The row writers below put labels into JSON strings unescaped: a label is
# "p", ASCII digits and, after a ".", copy bits 0/1 (level_labels), so it
# holds nothing JSON escapes.  Its k and t are its own text.  Graph ids may
# need escaping, so each is encoded once with the function json.dumps uses.

def gadget_to_json_rows(g: PathGadget) -> dict:
    """The gadget's JSON: its scalars, with the vertices and edges written
    as JsonRows from the labels."""
    labels = g.labels
    n = g.level

    def vertices(i: str):
        j = i + "  "
        for label in labels:
            head, _, t = label.partition(".")
            yield (f'{{{j}"birthLevel": {n - len(t)},{j}"k": {head[1:]},'
                   f'{j}"label": "{label}",{j}"t": "{t}"{i}}}')

    def edges(i: str):
        j = i + "  "
        return (f'[{j}"{a}",{j}"{b}"{i}]'
                for a, b in zip(labels, islice(labels, 1, None)))

    return {**_gadget_json_scalars(g), "vertices": JsonRows("[", "]", vertices),
            "edges": JsonRows("[", "]", edges)}


def quotient_to_json_rows(q: LevelQuotient) -> dict:
    """The quotient's JSON, with the classes and edges written as JsonRows
    from the gadget's labels: class (m, k, t) is the label p<k>.<t> with m
    its birth level."""
    g = q.gadget
    labels = g.labels
    n = g.level

    def classes(i: str):
        j = i + "  "
        for label in labels:
            head, _, t = label.partition(".")
            yield (f'{{{j}"bits": "{t}",{j}"k": {head[1:]},'
                   f'{j}"m": {n - len(t)}{i}}}')

    def edges(i: str):
        j = i + "  "
        return (f"[{j}{k},{j}{k + 1}{i}]" for k in range(g.edge_count))

    return {"c": list(q.prefix), "classes": JsonRows("[", "]", classes),
            "edges": JsonRows("[", "]", edges)}


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
    JsonRows in the label order of _label_order; labels are the gadget's
    in path order and ids maps each graph id to its JSON string."""
    positions, edges = order
    vimgs, wimgs = hom.vertex_images, hom.witness_images
    return {
        "vertexAssignments": JsonRows("{", "}", lambda i: (
            f'"{labels[p]}": {ids[vimgs[p]]}' for p in positions)),
        "witnessAssignments": JsonRows("{", "}", lambda i: (
            f'"{labels[j]}--{labels[j + 1]}": {ids[wimgs[j]]}' for j in edges)),
    }


def tower_to_json_rows(t: Tower) -> dict:
    """The tower's JSON: its prefix and schedule, and per level the
    vertex and witness assignments (_assignment_rows) written as JsonRows
    from the doubling labels (level_labels), one level at a time; level n's
    row at position p reads top[p]."""
    ids = _encoded_ids([t.top])
    return {
        "c": list(t.prefix),
        "levels": (_assignment_rows(labels, _label_order(labels), t.top, ids)
                   for labels in level_labels(t.prefix)),
        "schedule": list(t.schedule_values),
    }


def homs_to_json_rows(g: PathGadget, homs):
    """The vertex and witness assignments (_assignment_rows) of each hom
    over the gadget g, one hom at a time: the labels are sorted once and
    each graph id is encoded once for all of the homs."""
    labels = g.labels
    order = _label_order(labels)
    ids = _encoded_ids(homs)
    return (_assignment_rows(labels, order, hom, ids) for hom in homs)


def _map_rows(labels, targets, images) -> JsonRows:
    """One equivalence map as JsonRows: each source label to the label of
    its target image, both unescaped."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return JsonRows("{", "}", lambda i: (
        f'"{labels[p]}": "{targets[images[p]]}"' for p in order))


def equivalence_to_json_rows(t: EquivalenceTower) -> dict:
    """The equivalence tower's JSON: prefixes, level map, suffixes as bit
    strings and join walks, with each map written as JsonRows (_map_rows)
    from the doubling labels of both prefixes, one map at a time."""
    targets = list(level_labels(t.target_prefix[:t.level_map[-1]]))
    return {
        "c": list(t.source_prefix),
        "d": list(t.target_prefix),
        "levelMap": list(t.level_map),
        "suffixes": [["".join(map(str, s)) for s in pair] for pair in t.suffixes],
        "joinWalks": [list(w) for w in t.join_walks],
        "maps": (_map_rows(labels, targets[m], images) for labels, m, images
                 in zip(level_labels(t.source_prefix[:t.depth]), t.level_map,
                        t.maps)),
    }


def gadget_to_text(g: PathGadget):
    yield from _gadget_header(g, "#")
    labels = iter(g.labels)
    yield next(labels)
    yield from map(" -- ".__add__, labels)
    yield "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: WitnessedGraph):
    yield (f"// witnessed graph: {len(g.vertices)} vertices, "
           f"{len(g.witnesses)} witnesses\ngraph g {{\n")
    for v in g.vertices:
        yield f"  {_dot_quote(v)};\n"
    for w in g.witnesses:
        u, v = g.ends[w]
        yield f"  {_dot_quote(u)} -- {_dot_quote(v)} [label={_dot_quote(w)}];\n"
    yield "}\n"


# LaTeX's special characters, each written as text; one pass, so the
# braces of an escape are not escaped again
_TEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}", "{": r"\{", "}": r"\}", "_": r"\_",
    "^": r"\^{}", "#": r"\#", "$": r"\$", "%": r"\%", "&": r"\&",
    "~": r"\~{}"})


def graph_to_tikz(g: WitnessedGraph):
    yield (f"% witnessed graph: {len(g.vertices)} vertices, "
           f"{len(g.witnesses)} witnesses\n\\begin{{tikzpicture}}[x=1.2cm]\n")
    for i, v in enumerate(g.vertices):
        yield (f"  \\node[circle, draw, inner sep=1pt, font=\\small] "
               f"(v{i}) at ({i}, 0) {{{v.translate(_TEX_ESCAPES)}}};\n")
    index = {v: i for i, v in enumerate(g.vertices)}
    for w in g.witnesses:
        u, v = g.ends[w]
        yield f"  \\draw (v{index[u]}) to[bend left] (v{index[v]});\n"
    yield "\\end{tikzpicture}\n"
