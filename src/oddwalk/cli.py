"""Command-line surface for the oddwalk toolkit.

Exit codes: 0 success, 1 property failure (failed verification or check
suite), 2 input error (also one too large for memory) or a closed stdout,
also one closed mid-stream.
Every subcommand checks its input and computes its result before it
writes anything, then writes through _write, which joins the text pieces
it is given _BATCH at a time and writes each batch to stdout as it comes.
DOT, TikZ and text are generators of lines (render).  JSON is _emit's
walk of the output dict (_json), which equals json.dumps(data, indent=2,
sort_keys=True) byte for byte but hands each flat container (no
container among its items) to the standard library's C encoder in one
call, which json.dumps gives up as soon as it is asked to indent; it
recurses into the rest.  Keys are sorted, so a fixed invocation is
byte-identical across runs.  Everything that doubles with the gadget
level is made lazily, so no output is ever held whole: the gadget and
quotient arrays of `gadget --format json` and `lc --quotient`
(render.gadget_to_json_rows, render.quotient_to_json_rows), a
`dichotomy` tower's levels (render.tower_to_json_rows), an `equiv`
tower's maps (render.equivalence_to_json_rows) and the homomorphisms of
`homset`, its `large` witness and every `--enumerate` member
(render.homs_to_json_rows, one label sort and one id encoding for all of
them).  A generator stands for the array of the values it yields, and a
render.JsonRows for an array or object whose member texts it makes at
their final indentation, one at a time; _json joins them _BATCH at a time.

main parses argv once.  When its first item names a subcommand and the
rest is well-formed, _read takes it without argparse: each item an exact
option string followed by its values (- or items that do not start with
-, as many as the option takes), every required option given, at most one
option of an exclusive group, every integer and choice valid.  It takes
the options from the _<name>_arguments function that declares them to
argparse too.  Help, usage errors and every other argv (abbreviations,
--opt=value, --, a value that starts with -, options before the command,
no command or an unknown one) go to the top-level parser, which lists
every subcommand; only then is it built and argparse imported.  The
check suites (oddwalk.check) are imported only when `check` is parsed or
run.  A count can have more digits than CPython converts to text by
default, so main lifts that limit while the command runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import chain, islice, repeat
from pathlib import Path
from types import GeneratorType, SimpleNamespace

from .coloring import bipartite_superset_coloring
from .dichotomy import decide, parse_schedule, verify_tower
from .equiv import plan_equivalence, verify_equivalence
from .errors import GapInsufficient, OddwalkError, ParseError
from .gadget import (GadgetVertex, ascii_int, build_gadget, parse_prefix,
                     require_natural)
from .graphs import Coloring, WitnessedGraph
from .homset import all_homs, is_large, is_tiny
from .limitgraph import (LcVertex, adjacent, level_quotient, neighbors,
                         odd_sibling_obstruction, project_level,
                         same_component, validate_vertex)
from .parity import exact_walk_within, phi_bound, phi_holds
from .render import (JsonRows, equivalence_to_json_rows, gadget_to_dot,
                     gadget_to_json_rows, gadget_to_text, gadget_to_tikz,
                     graph_to_dot, graph_to_tikz, homs_to_json_rows,
                     quotient_to_json_rows, tower_to_json_rows)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # bytes, so that the locale's error handler (surrogateescape
            # under C) cannot let bytes that are not UTF-8 through
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> WitnessedGraph:
    return WitnessedGraph.from_text(_read_text(path))


# a streamed array (a generator of values) or object (JsonRows) counts as
# a container, so that no flat container holds one
_CONTAINERS = (dict, list, tuple, JsonRows, GeneratorType)

# rows joined into one piece, and pieces joined into one write, so a write
# holds at most _BATCH ** 2 rows
_BATCH = 64


def _batches(items):
    """The items in lists of _BATCH, the last one shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BATCH)), [])


@functools.lru_cache(maxsize=None)
def _encoder(item_sep: str):
    """Compact sorted-key encoding with the given item separator; the C
    encoder runs because no indent is set."""
    return json.JSONEncoder(sort_keys=True, separators=(item_sep, ": ")).encode


def _is_flat(data) -> bool:
    """Whether no item (no value, for a dict) is a container; the container
    test runs in C, once per distinct item type."""
    items = data.values() if isinstance(data, dict) else data
    return not any(map(issubclass, set(map(type, items)), repeat(_CONTAINERS)))


def _json(data, indent: str = "\n"):
    """The text of json.dumps(data, indent=2, sort_keys=True), byte for
    byte, in pieces made as they are asked for; a generator stands for the
    array of the values it yields and a JsonRows for the array or object of
    its rows.

    indent is a newline plus the indentation of the line data starts on.
    """
    inner = indent + "  "
    if isinstance(data, JsonRows):
        head, sep = data.opening + inner, "," + inner
        for batch in _batches(data.rows(inner)):
            yield head + sep.join(batch)
            head = sep
        yield indent + data.closing if head == sep else data.opening + data.closing
        return
    if not isinstance(data, _CONTAINERS) or not data:   # a generator is true
        yield _encoder(",")(data)
        return
    opening, closing = ("{", "}") if isinstance(data, dict) else ("[", "]")
    if not isinstance(data, GeneratorType) and _is_flat(data):
        yield opening + inner + _encoder("," + inner)(data)[1:-1] + indent + closing
        return
    if isinstance(data, dict):
        members = ((_encoder(",")(k if isinstance(k, str) else _encoder(",")(k))
                    + ": ", data[k]) for k in sorted(data))
    else:
        members = zip(repeat(""), data)
    head, sep = opening + inner, "," + inner
    for key, value in members:
        yield head + key
        yield from _json(value, inner)
        head = sep
    # only a generator can have yielded nothing
    yield indent + closing if head == sep else opening + closing


def _write(pieces) -> None:
    """Write the text pieces to stdout as they come, _BATCH joined at a
    time."""
    write = sys.stdout.write
    for batch in _batches(pieces):
        write("".join(batch))


def _emit(data: dict) -> None:
    _write(chain(_json(data), ("\n",)))


def _int_arg(text: str) -> int:
    """argparse type for integer options: ASCII digits after an optional
    '-' (ascii_int), so 1_0, +2 and other scripts' digits are refused."""
    value = ascii_int(text)
    if value is None:
        import argparse
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _cmd_gadget(args) -> int:
    g = build_gadget(parse_prefix(args.c))
    if args.format == "json":
        _emit({"formatVersion": 1, **gadget_to_json_rows(g)})
    else:
        _write({"dot": gadget_to_dot, "tikz": gadget_to_tikz,
                "text": gadget_to_text}[args.format](g))
    return 0


def _cmd_phi(args) -> int:
    if args.k is not None:
        require_natural(args.k, "k")
    g = _load_graph(args.graph)
    vset = tuple(sorted(set(args.set)))
    verdict = phi_bound(g, vset)
    out = {"formatVersion": 1, "set": list(vset),
           "verdict": verdict.to_json_dict()}
    if args.k is not None:
        out["k"] = args.k
        out["holds"] = phi_holds(g, vset, args.k)
    if args.certificate:
        if verdict.no_odd_walk:
            closure, col = bipartite_superset_coloring(g, vset)
            out["closure"] = list(closure)
            out["coloring"] = col.to_json_dict()
        else:
            out["walk"] = exact_walk_within(
                g, vset, verdict.min_odd_length).to_json_dict()
    _emit(out)
    return 0


def _cmd_homset(args) -> int:
    if args.enumerate is not None:
        require_natural(args.enumerate, "cap")
    gadget = build_gadget(parse_prefix(args.c))
    g = _load_graph(args.graph)
    # a bad --project label fails before the profile is paid for
    projected = list(map(GadgetVertex.from_label, args.project or ()))
    for v in projected:
        gadget.require_vertex(v)
    p = all_homs(gadget, g)
    tiny = is_tiny(p)
    large = is_large(p)
    out = {
        "formatVersion": 1,
        "c": list(gadget.prefix),
        "count": p.count(),
        "tiny": {"holds": tiny.tiny,
                 "vertex": tiny.vertex.label if tiny.vertex else None},
    }
    if args.project:
        out["projections"] = {v.label: list(p.project(v)) for v in projected}
    homs = [large.witness] if large.witness else []
    if args.enumerate is not None:
        explicit, out["total"] = p.enumerate_homs(args.enumerate)
        homs += explicit.homs
    rows = homs_to_json_rows(gadget, homs)
    out["large"] = {"holds": large.large,
                    "witness": next(rows) if large.witness else None}
    if args.enumerate is not None:
        out["enumerated"] = rows
    _emit(out)
    return 0


def _cmd_dichotomy(args) -> int:
    g = _load_graph(args.graph)
    result = decide(g, args.depth, parse_schedule(args.schedule))
    if isinstance(result, Coloring):
        _emit({"formatVersion": 1, "coloring": result.to_json_dict()})
        if not (result.covers(g) and result.is_proper(g)):
            return 1
        return 0
    report = verify_tower(result, g)
    _emit({"formatVersion": 1, "tower": tower_to_json_rows(result),
           "verified": report.ok})
    if not report.ok:
        for line in report.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 1
    return 0


def _parse_lc_vertex(text: str, prefix) -> LcVertex:
    v = LcVertex.from_text(text)
    validate_vertex(v, prefix)
    return v


def _cmd_lc(args) -> int:
    prefix = parse_prefix(args.c)
    if args.level is not None and args.project is None:
        raise ParseError("--level is read only with --project")
    if args.quotient:
        _emit({"formatVersion": 1, **quotient_to_json_rows(level_quotient(prefix))})
        return 0
    if args.neighbors is not None:
        v = _parse_lc_vertex(args.neighbors, prefix)
        _emit({"formatVersion": 1, "vertex": v.to_json_dict(),
               "neighbors": [u.to_json_dict() for u in neighbors(v, prefix)]})
        return 0
    if args.adjacent is not None:
        a = _parse_lc_vertex(args.adjacent[0], prefix)
        b = _parse_lc_vertex(args.adjacent[1], prefix)
        _emit({"formatVersion": 1, "adjacent": adjacent(a, b, prefix)})
        return 0
    if args.same_component is not None:
        a = _parse_lc_vertex(args.same_component[0], prefix)
        b = _parse_lc_vertex(args.same_component[1], prefix)
        _emit({"formatVersion": 1, "sameComponent": same_component(a, b, prefix)})
        return 0
    if args.project is not None:
        if args.level is None:
            raise ParseError("--project needs --level")
        v = _parse_lc_vertex(args.project, prefix)
        gv = project_level(v, args.level, prefix)
        _emit({"formatVersion": 1, "vertex": v.to_json_dict(),
               "level": args.level, "projection": gv.label})
        return 0
    if args.sibling is not None:
        k_text, _, t_text = args.sibling.partition(":")
        k = ascii_int(k_text)
        if k is None or k < 0 or not all(ch.isascii() and ch.isdigit() for ch in t_text):
            raise ParseError(f"bad sibling spec {args.sibling!r}; "
                             f"expected K:BITS like 0:01")
        bits = tuple(map(int, t_text))
        if any(b not in (0, 1) for b in bits):
            raise ParseError("sibling bits must be 0/1")
        rep = odd_sibling_obstruction(prefix, k, bits)
        _emit({"formatVersion": 1, **rep.to_json_dict()})
        return 0
    raise ParseError("choose one of --quotient, --neighbors, --adjacent, "
                     "--same-component, --project, --sibling")


def _cmd_equiv(args) -> int:
    c = parse_prefix(args.c)
    d = parse_prefix(args.d)
    try:
        tower = plan_equivalence(c, d, args.depth)
    except GapInsufficient as exc:
        _emit({"formatVersion": 1, "planned": False, "reason": str(exc)})
        return 0
    report = verify_equivalence(tower)
    _emit({"formatVersion": 1, "planned": True, "verified": report.ok,
           "tower": equivalence_to_json_rows(tower),
           "report": report.to_json_dict()})
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    g = _load_graph(args.graph)
    _write((graph_to_dot if args.format == "dot" else graph_to_tikz)(g))
    return 0


def _cmd_check(args) -> int:
    from .check import run_checks
    report = run_checks(seed=args.seed, oracle=args.oracle, only=args.only)
    _emit(report)
    return 0 if report["ok"] else 1


def _gadget_arguments(p) -> None:
    p.add_argument("--c", required=True,
                   help="comma-separated parameter prefix; empty for level 0")
    p.add_argument("--format", choices=("dot", "tikz", "json", "text"),
                   default="json")
    p.set_defaults(fn=_cmd_gadget)


def _phi_arguments(p) -> None:
    p.add_argument("--graph", required=True, help="graph file or - for stdin")
    p.add_argument("--set", required=True, nargs="+", metavar="VERTEX")
    p.add_argument("--k", type=_int_arg, default=None,
                   help="also report the bounded form for this k")
    p.add_argument("--certificate", action="store_true",
                   help="attach a closure coloring or a least odd walk")
    p.set_defaults(fn=_cmd_phi)


def _homset_arguments(p) -> None:
    p.add_argument("--c", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--project", action="append", metavar="LABEL",
                   help="emit the projection at this gadget vertex label")
    p.add_argument("--enumerate", type=_int_arg, default=None, metavar="N",
                   help="emit the first N homomorphisms in lex order")
    p.set_defaults(fn=_cmd_homset)


def _dichotomy_arguments(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=_int_arg, default=6)
    p.add_argument("--schedule", default="default",
                   help='"default" or comma-separated lower bounds')
    p.set_defaults(fn=_cmd_dichotomy)


def _lc_arguments(p) -> None:
    p.add_argument("--c", required=True)
    query = p.add_mutually_exclusive_group()
    query.add_argument("--quotient", action="store_true",
                       help="depth-n class structure as a path")
    query.add_argument("--neighbors", metavar="V",
                       help="vertex syntax m:k:prefix:period, e.g. 1:0:01:10")
    query.add_argument("--adjacent", nargs=2, metavar=("U", "V"))
    query.add_argument("--same-component", nargs=2, metavar=("U", "V"))
    query.add_argument("--project", metavar="V")
    query.add_argument("--sibling", metavar="K:BITS",
                       help="odd-distance obstruction for one sibling pair")
    p.add_argument("--level", type=_int_arg, default=None,
                   help="the gadget level for --project")
    p.set_defaults(fn=_cmd_lc)


def _equiv_arguments(p) -> None:
    p.add_argument("--c", required=True, help="source prefix")
    p.add_argument("--d", required=True, help="target prefix")
    p.add_argument("--depth", type=_int_arg, required=True)
    p.set_defaults(fn=_cmd_equiv)


def _render_arguments(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=("dot", "tikz"), default="dot")
    p.set_defaults(fn=_cmd_render)


def _check_arguments(p) -> None:
    from .check import suite_names
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="add brute-force cross-checks")
    p.add_argument("--only", action="append", metavar="SUITE",
                   help=f"limit to a suite: {', '.join(suite_names())}")
    p.set_defaults(fn=_cmd_check)


# name -> (help line, function adding the subcommand's arguments), in the
# order the top-level help lists them
_SUBCOMMANDS = {
    "gadget": ("build and render a path gadget", _gadget_arguments),
    "phi": ("odd-walk test for a vertex set", _phi_arguments),
    "homset": ("profile of gadget homomorphisms", _homset_arguments),
    "dichotomy": ("2-coloring or homomorphism tower", _dichotomy_arguments),
    "lc": ("queries on the limit graph", _lc_arguments),
    "equiv": ("plan and verify an equivalence tower", _equiv_arguments),
    "render": ("render a witnessed graph", _render_arguments),
    "check": ("seeded property-check suites", _check_arguments),
}


class _Options:
    """The options a subcommand's _<name>_arguments function declares,
    recorded in place of an argparse parser: the kinds that _read takes,
    and a TypeError for any other, so that none is misread."""

    def __init__(self, add_arguments):
        # option string -> (dest, action, nargs, type, choices)
        self.actions = {}
        self.required = set()   # dests
        self.groups = []        # the dests of each mutually exclusive group
        self.defaults = {}      # dest -> its value when not given
        add_arguments(self)

    def add_argument(self, option, *, action="store", nargs=None, type=None,
                     choices=None, required=False, default=None, help=None,
                     metavar=None):
        if not (option.startswith("--")
                and action in ("store", "store_true", "append")
                and nargs in (None, 2, "+") and type in (None, _int_arg)
                and (action == "store" or nargs is None and default is None)
                and not (type and isinstance(default, str))):
            raise TypeError(f"_read cannot read the declaration of {option}")
        dest = option.lstrip("-").replace("-", "_")
        self.actions[option] = dest, action, nargs, type, choices
        if required:
            self.required.add(dest)
        self.defaults[dest] = False if action == "store_true" else default
        return dest

    def add_mutually_exclusive_group(self):
        group = set()
        self.groups.append(group)
        return SimpleNamespace(
            add_argument=lambda *a, **kw: group.add(self.add_argument(*a, **kw)))

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)


@functools.lru_cache(maxsize=None)
def _options(name: str) -> _Options:
    return _Options(_SUBCOMMANDS[name][1])


def _read(name: str, args: list[str]) -> SimpleNamespace | None:
    """args, what follows the subcommand name, read as argparse reads them,
    if they are well-formed: each item an exact option string followed by
    as many values as its nargs asks, a value being - or an item that does
    not start with -, every required option given, at most one of an
    exclusive group, every value of its type and among its choices; a
    repeated option keeps its last value (append: every value).  None for
    anything else, which argparse alone reads."""
    opts = _options(name)
    given = {}
    i, end = 0, len(args)
    while i < end:
        if args[i] not in opts.actions:
            return None
        dest, action, nargs, type_, choices = opts.actions[args[i]]
        j = i = i + 1
        while j < end and (args[j] == "-" or not args[j].startswith("-")):
            j += 1
        values, i = args[i:j], j
        count = 0 if action == "store_true" else nargs or 1
        if len(values) != count and not (count == "+" and values):
            return None
        if type_ is not None:   # _int_arg, the one type _Options takes
            try:
                values = [ascii_int(v) for v in values]
            except ValueError:   # more digits than int() converts
                return None
            if None in values:
                return None
        if choices is not None and not set(values) <= set(choices):
            return None
        if action == "store_true":
            given[dest] = True
        elif action == "append":
            given[dest] = [*given.get(dest, ()), values[0]]
        else:
            given[dest] = values[0] if nargs is None else values
    if not opts.required <= given.keys() or any(
            len(group & given.keys()) > 1 for group in opts.groups):
        return None
    return SimpleNamespace(**{**opts.defaults, **given})


@functools.lru_cache(maxsize=None)
def _build_parser(command: str | None):
    """The top-level parser, listing every subcommand, with arguments added
    to the named subcommand only (None: to none of them).

    The top-level help and its usage errors read only the subcommand names
    and help lines, so they are the same whichever parser prints them.
    """
    import argparse
    parser = argparse.ArgumentParser(
        prog="oddwalk",
        description="Finite workbench for the odd-walk coloring dichotomy.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(p)
    return parser


def _parse(argv: list[str]):
    """argv read as the top-level parser reads it, in one parse: by _read
    when it names a subcommand and the rest is well-formed, else by the
    top-level parser."""
    if argv and argv[0] in _SUBCOMMANDS:
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
    # the subcommand is the first item that is not an option, since the
    # top-level parser has no option that takes a value
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return _build_parser(command if command in _SUBCOMMANDS else None).parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # a homset count can have more digits than CPython converts to text by
    # default, so the limit is lifted while the command runs and the
    # caller's comes back on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.fn(args)
        # flushed here, so that a closed stdout shows up below and not in
        # the interpreter's final flush
        sys.stdout.flush()
        return code
    except OddwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # unbound, so that its traceback and what it holds are freed first
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the final
        # flush of what is still buffered stays quiet (the SIGPIPE note in
        # the signal module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written",
              file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
