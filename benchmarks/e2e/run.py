"""End-to-end benchmark of the oddwalk CLI, with a traced per-layer pass.

    python3 benchmarks/e2e/run.py --workload towers --seed 1 --seconds 25 --trace 0

Run from the repository root.  Builds the program from src/ into
.bench_build/, writes the seed's inputs under .bench_work/, checks every
output against golden/<workload>.json and prints every metric by name and
unit.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  README.md describes workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import corpus   # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

SETUP_REPEATS = 9
HASH_SEEDS = ("1", "2")     # timed passes alternate, so digests prove both
CHILD_TIMEOUT = 120         # seconds; one pass takes a few
BUILD_TIMEOUT = 800

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "op_geomean_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    files = [p for p in sorted((root / "src").rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    files += [root / n for n in ("setup.py", "pyproject.toml")
              if (root / n).is_file()]
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def build(root: Path) -> tuple[Path, str]:
    """Copy src/ to .bench_build/src and build any extension into it.

    Returns the import path and how the build went.  A checkout whose
    extension cannot be built (no Cython, no compiler) runs pure Python,
    which the result's provenance records.
    """
    out = root / ".bench_build"
    target = out / "src"
    stamp = out / "stamp.json"
    digest = source_digest(root)
    if stamp.is_file() and target.is_dir():
        info = json.loads(stamp.read_text())
        if info.get("digest") == digest:
            return target, info["build"]
    for sub in ("src", "lib", "tmp"):
        shutil.rmtree(out / sub, ignore_errors=True)
    shutil.copytree(root / "src", target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    status = "no setup.py"
    if (root / "setup.py").is_file():
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
            cwd=root, capture_output=True, text=True, timeout=BUILD_TIMEOUT)
        built = sorted((out / "lib").rglob("*.so")) if (out / "lib").is_dir() else []
        for so in built:
            dest = target / so.relative_to(out / "lib")
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(so, dest)
        status = (f"built {', '.join(p.name for p in built)}" if built
                  else f"no extension built (setup.py exit {proc.returncode})")
    stamp.write_text(json.dumps({"digest": digest, "build": status}))
    return target, status


class Runner:
    """Starts child interpreters with the built program on their path."""

    def __init__(self, pythonpath: Path):
        self.pythonpath = pythonpath

    def child(self, args, hash_seed=None) -> float:
        env = dict(os.environ, PYTHONPATH=str(self.pythonpath))
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} exceeded {CHILD_TIMEOUT} s") from None
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return seconds

    def run_pass(self, directory: Path, name: str, flags=(), hash_seed="1"):
        out = directory.parent / f"{name}.json"
        self.child(["pass", str(directory), str(out), *flags], hash_seed)
        result = json.loads(out.read_text())
        out.unlink()
        return result


def load_golden(workload):
    path = HERE / "golden" / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing golden file {path.name}")
    return json.loads(path.read_text())


def judge(result, golden_ops, failures, tag):
    """Append one line per op whose outcome differs from the golden one."""
    for r in result["ops"]:
        g = golden_ops.get(r["id"])
        if r["exc"]:
            why = f"raised {r['exc']}"
        elif g is None:
            why = "no golden record"
        elif r["exit"] != g["exit"]:
            why = f"exit {r['exit']}, golden {g['exit']}"
        elif r["sha"] != g["stdout"]:
            why = "stdout differs from golden"
        else:
            continue
        failures.append(f"{tag} {r['id']}: {why}")


def certificate_problems(spec, check, directory):
    """Run the harness-side certificate check on every dichotomy op."""
    problems = []
    for i, (op, r) in enumerate(zip(spec["ops"], check["ops"])):
        if op["check"] and not r["exc"]:
            stdout = (directory / "out" / f"op{i}.json").read_text(encoding="utf-8")
            for p in certify.check_dichotomy(
                    stdout, r["exit"], directory / op["check"]["graph"],
                    op["check"]["depth"], op["check"]["bipartite"]):
                problems.append(f"certificate {op['id']}: {p}")
    return problems


def probe_outcomes(spec, check, golden_probes, directory):
    """Known failures must fail as recorded, or succeed with a certificate."""
    known, problems = [], []
    for i, (op, r) in enumerate(zip(spec["probes"], check["probes"])):
        want = golden_probes.get(op["id"], {}).get("exc")
        if r["exc"] is None:
            stdout = (directory / "out" / f"probe{i}.json").read_text(encoding="utf-8")
            problems += [f"probe {op['id']}: {p}" for p in certify.check_dichotomy(
                stdout, r["exit"], directory / op["check"]["graph"],
                op["check"]["depth"], op["check"]["bipartite"])]
        elif r["exc"] != want:
            problems.append(f"probe {op['id']}: raised {r['exc']}, recorded {want}")
        known.append({"id": op["id"], "exception": r["exc"],
                      "ms": round(r["ms"], 3)})
    return known, problems


def end_to_end(setup_times, passes):
    per_op = {}
    for p in passes:
        for o in p["ops"]:
            per_op.setdefault(o["id"], []).append(o["ms"])
    # Each op's best time over the passes.  On a shared machine the noise
    # only ever slows an op down and drifts over tens of seconds, which
    # moves medians of a 25-s run by 10-15% but the best times by half that.
    # Percentiles are taken over these per-op values: pooling every sample
    # lets noise push one op's samples across its neighbours', and the
    # percentile then jumps between ops of different cost.
    best = [min(v) for v in per_op.values()]
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(best) / 1e3,
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "op_geomean_ms": math.exp(statistics.fmean(math.log(m) for m in best)),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
    }
    return metrics, sum(len(v) for v in per_op.values())


def provenance(check, build_status):
    calls = check["kernel_calls"]
    total = calls["native"] + calls["pure"]
    return {
        "kernels.native_available": check["native_available"],
        "kernel_calls": calls,
        "native_call_share": calls["native"] / total if total else 0.0,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "build": build_status,
        "oddwalk_pure_env": os.environ.get("ODDWALK_PURE"),
    }


def run(args, root: Path) -> dict:
    pythonpath, build_status = build(root)
    runner = Runner(pythonpath)
    golden = load_golden(args.workload)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            setup_times.append(runner.child(
                ["setup", args.workload, str(args.seed), str(work / f"setup{i}")]))
        directory = work / "setup0"
        spec = json.loads((directory / "ops.json").read_text())

        failures = []
        for kind in ("ops", "probes"):
            for op in spec[kind]:
                g = golden[kind].get(op["id"])
                if g is None or g["input"] != corpus.input_digest(op, directory):
                    failures.append(f"{op['id']}: input has no golden record")

        check = runner.run_pass(directory, "check", ["--check"])
        judge(check, golden["ops"], failures, "check")
        failures += certificate_problems(spec, check, directory)
        known, probe_problems = probe_outcomes(spec, check, golden["probes"],
                                               directory)
        failures += probe_problems

        # with --trace 1, traced passes alternate with untraced ones, so
        # both see the same machine and their difference is the overhead
        passes, traced = [], []
        t0 = time.perf_counter()
        while (len(passes) < 2 or len(traced) < 2 * args.trace
               or time.perf_counter() - t0 < args.seconds):
            if args.trace and len(traced) < len(passes):
                p = runner.run_pass(directory, f"trace{len(traced)}", ["--trace"])
                judge(p, golden["ops"], failures, f"traced pass {len(traced)}")
                traced.append(p)
                continue
            seed = HASH_SEEDS[len(passes) % 2]
            p = runner.run_pass(directory, f"pass{len(passes)}", (), seed)
            judge(p, golden["ops"], failures, f"pass {len(passes)} hashseed {seed}")
            passes.append(p)
        metrics, samples = end_to_end(setup_times, passes)
        attempted = len(spec["ops"]) * (1 + len(passes) + len(traced))
        layers = None
        if traced:
            layers = {k: statistics.median(p["layers"][k] for p in traced)
                      for k in traced[0]["layers"]}
            traced_wall = end_to_end(setup_times, traced)[0]["wall_s"]
            layers["trace.overhead_frac"] = (traced_wall - metrics["wall_s"]) / metrics["wall_s"]
            missing = traced[0]["missing"]
            if missing:
                print(f"trace: not found in the program: {', '.join(missing)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    return {
        "workload": args.workload, "seed": args.seed,
        "ops_per_pass": len(spec["ops"]), "passes": len(passes),
        "traced_passes": len(traced), "latency_samples": samples,
        "ops_failed_frac": len(failures) / attempted,
        "metrics": metrics, "layers": layers,
        "known_failures": known, "failures": failures,
        "attempted": attempted,
        "provenance": provenance(check, build_status),
    }


def report(res, trace: bool) -> dict:
    """Print the readable report and return the final JSON object."""
    prov = res["provenance"]
    print(f"workload {res['workload']} seed {res['seed']}: "
          f"{res['ops_per_pass']} ops x {res['passes']} timed passes "
          f"(+{res['traced_passes']} traced), {res['latency_samples']} timed "
          f"op executions behind the per-op best latencies")
    print(f"kernel: native_available={prov['kernels.native_available']} "
          f"native_call_share={prov['native_call_share']:.3f} "
          f"({prov['kernel_calls']['native']} native, "
          f"{prov['kernel_calls']['pure']} pure calls); build: {prov['build']}")
    print(f"machine: {prov['python']}, nproc {prov['nproc']}, {prov['platform']}")
    for name, value in res["metrics"].items():
        print(f"  {name:<16} {value:14.4f} {END_TO_END[name]}")
    print(f"  {'ops_failed_frac':<16} {res['ops_failed_frac']:14.4f} ratio "
          f"({len(res['failures'])} of {res['attempted']})")
    for k in res["known_failures"]:
        print(f"  known failure {k['id']}: {k['exception'] or 'now succeeds'}")
    for line in res["failures"]:
        print(f"  FAIL {line}")
    if trace:
        for name, value in res["layers"].items():
            print(f"  {name:<30} {value:16.4f} {LAYER_UNITS[name]}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in res["metrics"].items()}
    print(json.dumps({"details": {k: res[k] for k in (
        "workload", "seed", "passes", "latency_samples", "ops_failed_frac",
        "known_failures", "provenance")}}, sort_keys=True))
    return {"correct": not res["failures"],
            "attempted": res["attempted"], "failed": len(res["failures"]),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "oddwalk" / "cli.py").is_file():
        print("error: run from the root of an oddwalk checkout "
              "(src/oddwalk/cli.py not found)", file=sys.stderr)
        return 2
    try:
        res = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
