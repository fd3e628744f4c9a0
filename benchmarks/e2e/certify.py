"""Harness-side certificate check for `oddwalk dichotomy` output.

Independent of the program's own `verify_tower`: the gadget path order is
rebuilt here from the paper's recursion, and the graph is read from the
file the harness wrote.  A tower must be a coherent family of walks in the
target, one per level; a coloring must be a proper 2-coloring of every
vertex; and the branch must match what the generator knows about the
graph's bipartiteness.
"""

from __future__ import annotations

import json
from pathlib import Path

from corpus import odd_components


def read_graph(path: Path):
    """(vertices, witness -> (u, v)) from a JSON or edge-list graph file."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        return set(data["vertices"]), {w["id"]: tuple(w["ends"])
                                        for w in data["witnesses"]}
    vertices, ends = set(), {}
    for line in text.splitlines():
        parts = line.split()
        vertices.update(parts)
        if len(parts) == 2:
            ends[f"w{len(ends)}"] = tuple(parts)
    return vertices, ends


def gadget_order(prefix):
    """Path order of the level-len(prefix) gadget as (k, bits) pairs."""
    verts = [(0, "")]
    for c in prefix:
        verts = ([(k, t + "0") for k, t in verts]
                 + [(k, "") for k in range(c + 1)]
                 + [(k, t + "1") for k, t in reversed(verts)])
    return verts


def label(v) -> str:
    k, t = v
    return f"p{k}.{t}" if t else f"p{k}"


def default_bound(n: int) -> int:
    return max(1, 2 * n - 1)


def check_dichotomy(stdout: str, exit_code, graph_path: Path, depth: int,
                    bipartite: bool) -> list[str]:
    """Problems found in one dichotomy output; empty when it certifies."""
    vertices, ends = read_graph(graph_path)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if bipartite:
        if "coloring" not in doc:
            return ["bipartite input but no coloring"]
        col = doc["coloring"]
        bad = []
        if set(col) != vertices:
            bad.append("coloring does not cover exactly the vertices")
        if any(c not in (0, 1) for c in col.values()):
            bad.append("coloring uses a color other than 0 and 1")
        for w, (u, v) in ends.items():
            if col.get(u) == col.get(v):
                bad.append(f"witness {w} joins two vertices of one color")
                break
        return bad
    if "tower" not in doc:
        return ["non-bipartite input but no tower"]
    if doc.get("verified") is not True:
        return ["program's own verifier did not pass"]
    return check_tower(doc["tower"], vertices, ends, depth)


def check_tower(tower, vertices, ends, depth) -> list[str]:
    prefix, levels = tower["c"], tower["levels"]
    bad = []
    if len(prefix) != depth or len(levels) != depth + 1:
        return [f"tower depth {len(prefix)} with {len(levels)} levels, "
                f"asked for {depth}"]
    if tower["schedule"] != [default_bound(n) for n in range(depth)]:
        bad.append("schedule is not the default one")
    for n, c in enumerate(prefix):
        if c < 1 or c % 2 == 0 or c < default_bound(n):
            bad.append(f"join length c({n}) = {c} not odd or below its bound")
    odd = odd_components(sorted(vertices), list(ends.values()))
    walks = []
    for n, level in enumerate(levels):
        order = gadget_order(prefix[:n])
        va, wa = level["vertexAssignments"], level["witnessAssignments"]
        labels = [label(v) for v in order]
        edge_labels = [f"{a}--{b}" for a, b in zip(labels, labels[1:])]
        if set(va) != set(labels) or set(wa) != set(edge_labels):
            bad.append(f"level {n}: assignments do not match the gadget")
            return bad
        images = [va[x] for x in labels]
        wits = [wa[e] for e in edge_labels]
        for j, w in enumerate(wits):
            if w not in ends or set(ends[w]) != {images[j], images[j + 1]} \
                    or images[j] == images[j + 1]:
                bad.append(f"level {n}: step {j} is not witnessed by {w}")
                break
        if not set(images) <= odd:
            bad.append(f"level {n}: an image lies in a 2-colorable component")
        walks.append((order, images, wits))
    for n in range(depth):
        small, big = walks[n], walks[n + 1]
        vimg = {v: img for v, img in zip(big[0], big[1])}
        wimg = {frozenset((a, b)): w
                for a, b, w in zip(big[0], big[0][1:], big[2])}
        for bit in "01":
            for (k, t), img in zip(small[0], small[1]):
                if vimg[(k, t + bit)] != img:
                    bad.append(f"level {n + 1}: copy {bit} moves p{k}.{t}")
                    break
            for (a, b, w) in zip(small[0], small[0][1:], small[2]):
                key = frozenset(((a[0], a[1] + bit), (b[0], b[1] + bit)))
                if wimg[key] != w:
                    bad.append(f"level {n + 1}: copy {bit} changes a witness")
                    break
    return bad
