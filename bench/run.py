"""drgeom benchmark launcher.

    python3 bench/run.py --workload probe|verify|replay|all --seed N \
        [--seconds S] [--trace 0|1]

Runs operations of one workload in series, each in a fresh worker process
(closed loop, one client), until ``--seconds`` have passed.  The first two
operations get the program seed ``1000 * seed``, so two calls with the same
seed are compared byte for byte; each later operation gets the next seed.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
operations; ``setup_s`` also takes in four workers that only set up.  With
``--trace 1`` every operation gets the program seed ``1000 * seed``, so
counts repeat exactly, every second operation runs with spans installed,
and it reports the per-layer metrics (medians over the traced operations),
the traced and untraced wall times and their difference, the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import CLOSED_LOOP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_spans"

SEEDS_PER_RUN = 1000
# Workers that only start, import drgeom and build the config, so setup_s
# is a median over several setups even when a run has two operations.
SETUP_ONLY_WORKERS = 4
OP_TIMEOUT_S = 120
# The workloads are single-client and their matrices are at most 25x25, so
# BLAS threads add only noise; one thread is within nproc on any machine.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": BLAS_THREADS}


def run_op(workload: str, seed: int, op: int, mode: str) -> dict:
    """One worker process; mode is "setup", "plain" or "traced"."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS})
    args = [sys.executable, str(WORKER), workload, str(seed), str(op)]
    spans_path = SPANS_DIR / f"{workload}-seed{seed}.jsonl"
    traced = mode == "traced"
    spawned = time.monotonic()
    args += [repr(spawned), mode] + ([str(spans_path)] if traced else [])
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"op": op, "seed": seed, "traced": traced,
                "problems": [f"operation timed out after {OP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"op": op, "seed": seed, "traced": traced,
                "problems": [f"worker exit {proc.returncode}: {' | '.join(tail)}"]}
    result.update(seed=seed, traced=traced)
    if result.get("not_traced"):
        print("not traced, missing from drgeom: " + ", ".join(result["not_traced"]),
              file=sys.stderr)
    return result


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[list[dict], list[float]]:
    """The run's operations, and setup times from extra setup-only workers."""
    setups = [run_op(workload, SEEDS_PER_RUN * seed, -1, "setup").get("setup_s")
              for _ in range(0 if trace else SETUP_ONLY_WORKERS)]
    ops: list[dict] = []
    start = time.monotonic()
    while len(ops) < 2 or (trace and len(ops) % 2) or time.monotonic() - start < seconds:
        i = len(ops)
        k = 0 if trace else max(i - 1, 0)
        mode = "traced" if trace and i % 2 == 1 else "plain"
        op = run_op(workload, SEEDS_PER_RUN * seed + k, i, mode)
        print(f"{workload} op {i}: " + "  ".join(
            f"{key}={op[key]:.4f}" for key in ("setup_s", "wall_s") if key in op)
            + ("  traced" if op["traced"] else ""), file=sys.stderr, flush=True)
        ops.append(op)
    first_digest: dict[int, str] = {}
    for op in ops:
        if "digest" in op:
            if first_digest.setdefault(op["seed"], op["digest"]) != op["digest"]:
                op["problems"].append("deterministic payload differs from an earlier "
                                      "call with the same seed")
    setups += [op.get("setup_s") for op in ops if not op["traced"]]
    return ops, [x for x in setups if x is not None]


def summarize(ops: list[dict], setups: list[float], spec: dict, trace: bool) -> dict:
    """Metrics declared in BENCHMARK.json, as medians over the operations."""
    plain = [o for o in ops if "wall_s" in o and not o["traced"]]
    if not trace:
        values = {m: statistics.median(o[m] for o in plain)
                  for m in ("wall_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        declared = spec["end_to_end"]
    else:
        traced = [o for o in ops if "layers" in o]
        # median_low picks a measured value, so counts stay whole numbers
        values = {name: statistics.median_low(o["layers"].get(name, 0) for o in traced)
                  for name in traced[0]["layers"]}
        values["trace.traced_wall_s"] = statistics.median(o["wall_s"] for o in traced)
        values["trace.untraced_wall_s"] = statistics.median(o["wall_s"] for o in plain)
        values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                      - values["trace.untraced_wall_s"])
        declared = spec["per_layer"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, 0 or more")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")

    if not (ROOT / "src" / "drgeom" / "__init__.py").is_file():
        print(f"error: no drgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # compile once up front so no operation pays for writing bytecode
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        work = WORKLOADS[name]
        print("workload " + json.dumps({"name": name, "why": work.why, "size": work.size,
                                        "loop": CLOSED_LOOP, "roadmap": work.roadmap}),
              flush=True)
        ops, setups = run_workload(name, args.seed, seconds, bool(args.trace))
        bad = [o for o in ops if o["problems"]]
        for o in bad:
            print(f"{name} op {o['op']} failed: {'; '.join(o['problems'])}",
                  file=sys.stderr)
        if not any("wall_s" in o and not o["traced"] for o in ops) or \
                (args.trace and not any("layers" in o for o in ops)):
            print(f"error: no {name} operation produced a measurement", file=sys.stderr)
            return 1
        attempted += len(ops)
        failed += len(bad)
        found = summarize(ops, setups, spec, bool(args.trace))
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in found.items()
                          if not args.trace or k.startswith("trace."))
        print(f"{name}: {shown}  error_rate={len(bad) / len(ops):.6g} "
              f"({len(bad)}/{len(ops)} ops)", flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
