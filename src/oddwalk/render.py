"""DOT, TikZ, and JSON emitters for gadgets, graphs, and level quotients.

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
gadget_to_json_rows and quotient_to_json_rows write their big arrays as
JsonText rows, one f-string per label, and cli._dumps places those rows in
the output.  gadget_to_json_dict and LevelQuotient.to_json_dict build the
same data as dicts from the vertex list: the Python API, and the reference
the rows are checked against.
"""

from __future__ import annotations

from .gadget import PathGadget
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


def gadget_to_json_dict(g: PathGadget) -> dict:
    labels = g.labels
    n = g.level
    return {
        **_gadget_json_scalars(g),
        "vertices": [{"label": label, "k": v.k,
                      "t": label.partition(".")[2],
                      "birthLevel": n - len(v.t)}
                     for v, label in zip(g.vertices, labels)],
        "edges": [[a, b] for a, b in zip(labels, labels[1:])],
    }


class JsonText:
    """JSON text laid out the way json.dumps(value, indent=2,
    sort_keys=True) lays out a top-level value; cli._dumps indents it to
    the place it takes in the output.

    A plain class and not a str, so that the standard library's encoder
    raises TypeError on one that reaches it instead of quoting it.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_rows(rows: list[str]) -> JsonText:
    """A JSON array of element rows, each already laid out at indent 2."""
    return JsonText("[\n" + ",\n".join(rows) + "\n]" if rows else "[]")


# The row writers below put labels into JSON strings unescaped: a label is
# "p", ASCII digits and, after a ".", copy bits 0/1 (level_labels), so it
# holds nothing JSON escapes.  Its k and t are its own text.

def gadget_to_json_rows(g: PathGadget) -> dict:
    """gadget_to_json_dict with the vertices and edges written as JsonText
    rows from the labels."""
    labels = g.labels
    n = g.level
    vertices = []
    for label in labels:
        head, _, t = label.partition(".")
        vertices.append(f'  {{\n    "birthLevel": {n - len(t)},\n    "k": {head[1:]},'
                        f'\n    "label": "{label}",\n    "t": "{t}"\n  }}')
    edges = [f'  [\n    "{a}",\n    "{b}"\n  ]' for a, b in zip(labels, labels[1:])]
    return {**_gadget_json_scalars(g), "vertices": _json_rows(vertices),
            "edges": _json_rows(edges)}


def quotient_to_json_rows(q: LevelQuotient) -> dict:
    """LevelQuotient.to_json_dict with the classes and edges written as
    JsonText rows from the gadget's labels: class (m, k, t) is the label
    p<k>.<t> with m its birth level."""
    g = q.gadget
    n = g.level
    classes = []
    for label in g.labels:
        head, _, t = label.partition(".")
        classes.append(f'  {{\n    "bits": "{t}",\n    "k": {head[1:]},'
                       f'\n    "m": {n - len(t)}\n  }}')
    edges = [f"  [\n    {i},\n    {i + 1}\n  ]" for i in range(g.edge_count)]
    return {"c": list(q.prefix), "classes": _json_rows(classes),
            "edges": _json_rows(edges)}


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


def graph_to_tikz(g: WitnessedGraph) -> str:
    lines = [f"% witnessed graph: {len(g.vertices)} vertices, "
             f"{len(g.witnesses)} witnesses",
             "\\begin{tikzpicture}[x=1.2cm]"]
    for i, v in enumerate(g.vertices):
        lines.append(
            f"  \\node[circle, draw, inner sep=1pt, font=\\small] "
            f"(v{i}) at ({i}, 0) {{{v}}};")
    index = {v: i for i, v in enumerate(g.vertices)}
    for w in g.witnesses:
        u, v = g.ends[w]
        lines.append(
            f"  \\draw (v{index[u]}) to[bend left] (v{index[v]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def quotient_to_dot(q: LevelQuotient) -> str:
    g = q.gadget
    lines = [f"// level quotient for c={_prefix_text(q.prefix)}: "
             f"{g.vertex_count} classes",
             "graph quotient {", "  rankdir=LR;"]
    for i, (m, k, t) in enumerate(q.classes):
        bits = "".join(map(str, t)) or "-"
        color = PALETTE[m % len(PALETTE)]
        lines.append(
            f'  n{i} [label="m={m} k={k} t={bits}", style=filled, '
            f'fontcolor=white, fillcolor="{color}"];')
    for i in range(g.edge_count):
        lines.append(f"  n{i} -- n{i + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
