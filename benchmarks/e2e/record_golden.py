"""Record the golden outputs: every variant of every group, run once.

    python3 benchmarks/e2e/record_golden.py [--workload NAME ...]

Run from the repository root at the commit whose outputs are the reference.
For every op it stores the sha256 of its inputs, its exit code and the
sha256 and size of its stdout; for every probe, the exception it raises.
It refuses to write a golden file when a measured op raises or exits
non-zero, or when a dichotomy output fails the certificate check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, BenchError, Runner, build, certificate_problems

import corpus


def record(workload, runner, work: Path) -> dict:
    ops, probes, problems = {}, {}, []
    names = [n for n, _ in corpus.groups(workload) + corpus.probe_groups(workload)]
    for v in range(corpus.VARIANTS):
        directory = work / f"{workload}-v{v}"
        corpus.write_corpus(workload, {n: v for n in names}, directory)
        spec = json.loads((directory / "ops.json").read_text())
        check = runner.run_pass(directory, f"{workload}-v{v}", ["--check"])
        problems += certificate_problems(spec, check, directory)
        for op, r in zip(spec["ops"], check["ops"]):
            if r["exc"] or r["exit"] != 0:
                problems.append(f"{op['id']}: exit {r['exit']}, raised {r['exc']}")
            ops[op["id"]] = {"input": corpus.input_digest(op, directory),
                             "exit": r["exit"], "stdout": r["sha"],
                             "bytes": r["bytes"]}
        for op, r in zip(spec["probes"], check["probes"]):
            probes[op["id"]] = {"input": corpus.input_digest(op, directory),
                                "exc": r["exc"]}
        print(f"{workload} variant {v}: {len(spec['ops'])} ops, "
              f"{check['wall_s']:.2f} s", file=sys.stderr)
    if problems:
        raise BenchError("\n".join(problems))
    return {"workload": workload, "variants": corpus.VARIANTS,
            "ops": ops, "probes": probes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    args = ap.parse_args()
    root = Path.cwd()
    pythonpath, _ = build(root)
    runner = Runner(pythonpath)
    work = root / ".bench_work" / f"golden-{os.getpid()}"
    try:
        for workload in args.workload or corpus.WORKLOADS:
            golden = record(workload, runner, work)
            (HERE / "golden" / f"{workload}.json").write_text(
                json.dumps(golden, indent=1, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
