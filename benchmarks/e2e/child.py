"""One fresh interpreter of the benchmark: set-up, or one pass over the ops.

    python3 child.py setup WORKLOAD SEED DIR
    python3 child.py pass DIR OUT [--check] [--trace]

`setup` imports oddwalk.cli, then writes the seed's graph files and op list
into DIR; its wall time, interpreter start included, is one setup_s sample.

`pass` imports oddwalk.cli and calls oddwalk.cli.main(argv) in-process for
every op in DIR/ops.json, in order, with stdout captured.  A fresh process
per pass means the program's gadget cache holds only what this pass built.
It writes each op's latency, exit code, exception class and stdout sha256
to OUT.  With --check it also saves the stdout of ops that carry a
certificate check, counts kernel calls per backend and runs the probe ops.
With --trace it attributes time and work to layers (tracing.py).

The program is imported from PYTHONPATH; nothing here changes its settings:
no ODDWALK_PURE, no recursion limit, no gadget-cache resizing.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def run_op(cli, argv):
    """Call the CLI once; returns (seconds, exit code, exception, stdout).

    A full collection first, outside the timed region, so that an op pays
    for the collections its own allocations trigger and not for garbage the
    previous ops left, as it would in a process of its own; the gadget
    cache still carries over.
    """
    out, err = io.StringIO(), io.StringIO()
    exc = None
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:   # argparse rejects argv
        code, exc = e.code, "SystemExit"
    except Exception as e:    # an op failure is recorded, not fatal
        code, exc = None, type(e).__name__
    return time.perf_counter() - t0, code, exc, out.getvalue()


def record(op_id, seconds, code, exc, stdout):
    data = stdout.encode("utf-8")
    return {"id": op_id, "ms": seconds * 1e3, "exit": code, "exc": exc,
            "sha": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def do_pass(directory, out_path, check, trace):
    import oddwalk.cli as cli
    from oddwalk import kernels
    spec = json.loads((directory / "ops.json").read_text(encoding="utf-8"))
    os.chdir(directory)
    backends = {"native": 0, "pure": 0}
    if check:
        inner = kernels.path_propagate

        def counted(vmasks, wmasks, wit_ends, n_vertices, n_witnesses):
            backends[kernels.backend_for(n_vertices, n_witnesses)] += 1
            return inner(vmasks, wmasks, wit_ends, n_vertices, n_witnesses)
        kernels.path_propagate = counted
        (directory / "out").mkdir(exist_ok=True)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    results = []
    for i, op in enumerate(spec["ops"]):
        if tracer:
            tracer.op = i
        seconds, code, exc, stdout = run_op(cli, op["argv"])
        results.append(record(op["id"], seconds, code, exc, stdout))
        if check and op["check"]:
            (directory / "out" / f"op{i}.json").write_text(stdout, encoding="utf-8")
    wall_s = sum(r["ms"] for r in results) / 1e3
    result = {"ops": results, "wall_s": wall_s,
              "native_available": kernels.native_available(),
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if check:
        result["kernel_calls"] = backends
        probes = []
        for i, op in enumerate(spec["probes"]):
            seconds, code, exc, stdout = run_op(cli, op["argv"])
            probes.append(record(op["id"], seconds, code, exc, stdout))
            if exc is None:
                (directory / "out" / f"probe{i}.json").write_text(stdout,
                                                                 encoding="utf-8")
        result["probes"] = probes
    if tracer:
        import tracing
        result["layers"] = tracing.layer_metrics(
            tracer, wall_s, sum(r["bytes"] for r in results))
        result["missing"] = tracer.missing
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 4:
        import oddwalk.cli  # noqa: F401  (import cost is part of set-up)
        import corpus
        workload, seed, directory = argv[1], int(argv[2]), argv[3]
        corpus.write_corpus(workload, corpus.pick_variants(workload, seed),
                            directory)
        return 0
    if argv[:1] == ["pass"] and len(argv) >= 3:
        do_pass(Path(argv[1]).resolve(), Path(argv[2]).resolve(),
                "--check" in argv[3:], "--trace" in argv[3:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
