"""Benchmark of the vilenkin package on three experiment workloads.

Run from the repository root:

    python3 perfbench/run.py --workload estimates --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each measurement runs in a fresh process (perfbench/worker.py) with the
BLAS/OpenMP thread pools pinned to 1; the package is imported from src/.
A process times whole passes over the workload's op list, each op run once
per pass, for about --seconds (at least one pass); an op shorter than a
tenth of worker.BURST_S also runs in two bursts per pass and its latency
is its fastest run (see worker.measure).  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported:

  setup_s      process start until the workload is ready: imports, structure,
               inputs from the seed, and the first op run cold; median over
               SETUP_SAMPLES processes
  wall_s       one warm pass over the op list, median over passes
  op_p50_s     median op latency over the ops of all passes
  peak_rss_mb  peak resident memory of the measuring process

Two more figures are printed with them but are not BENCHMARK.json metrics:
error_rate (failed / attempted ops, carried by the result line's
"attempted" and "failed"), and op_tail_s, the highest of
p99.9/p99/p95/p90/p75 with at least ten ops beyond it, printed with its
percentile and op count.  No workload's run has the 20 ops that even p50
needs for ten beyond it, so op_tail_s is reported as p50 and marked so.
With --trace 1 the process then times one untraced and one traced pass,
each op run once, and reports the per-module metrics of the traced pass:
calls and self time, from spans around the package's public functions (see
spans.py).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set for every measuring process: thread pools pinned to 1, one string hash
# seed so that dict and set layouts are the same in every process, and no
# .pyc writes into src/ so that every process compiles the package alike
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # per workload, for all of its processes together
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 values
    beyond it.  Below 20 values even the median has fewer than ten beyond it,
    so no tail is supported and the median is reported."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def spawn(mode: str, workload: str, args, deadline: float) -> dict:
    """Run worker.py once and return its JSON line."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {mode} process")
    proc = subprocess.run(
        cmd + ["--t0", repr(time.monotonic())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def end_to_end(workload: str, args, deadline: float) -> tuple[list[dict], dict, list[str]]:
    runs = [spawn("setup", workload, args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn("run", workload, args, deadline)
    runs.append(main)
    ops = len(main["op_times"])
    q, tail_s = tail(main["op_times"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(main["passes"]),
        "op_p50_s": statistics.median(main["op_times"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    unsupported = " (under 20 ops, no tail percentile has ten ops beyond it)" if q == 50.0 else ""
    notes = [
        f"op_tail_s {tail_s:.6g} s: p{q:g} of {ops} ops{unsupported}",
        f"setup_s: median of {len(runs)} processes",
        f"wall_s: median of {len(main['passes'])} warm passes; op_p50_s: median of {ops} ops",
    ]
    return runs, values, notes


def traced(workload: str, args, deadline: float) -> tuple[list[dict], dict, list[str]]:
    main = spawn("trace", workload, args, deadline)
    layers = main["layers"]
    notes = [
        f"untraced wall_s {statistics.median(main['passes']):.6g} s, median of {len(main['passes'])} passes; "
        f"trace.overhead_s is one traced pass {layers['trace.wall_s']:.6g} s minus one untraced pass "
        f"{main['plain_pass_s']:.6g} s, each op run once",
        f"self times of all spans sum to {layers['trace.self_sum_s']:.6g} s per traced pass "
        f"(workload.op glue {layers['workload.op.self_s']:.6g} s)",
        f"spans written to {main['spans_file']}",
    ]
    return [main], layers, notes


def run_workload(workload: str, args, spec: dict, commit: str | None) -> None:
    deadline = time.monotonic() + TIME_LIMIT_S
    measure = traced if args.trace else end_to_end
    runs, values, notes = measure(workload, args, deadline)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    provenance = dict(
        runs[-1]["provenance"],
        git_commit=commit,
        nproc=os.cpu_count(),
        env=CHILD_ENV,
        workload=workload,
        seed=args.seed,
        argv=sys.argv,
    )
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for metric in listed:
        print(f"{workload:<12} {metric['name']:<48} {values[metric['name']]:>14.6g} {metric['unit']}")
    print(f"{workload:<12} {'error_rate':<48} {failed / attempted:>14.6g} ({failed} of {attempted} ops failed)")
    for note in notes:
        print(f"# {note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vilenkin", "__init__.py")):
        print(f"error: no vilenkin package under {ROOT}/src", file=sys.stderr)
        return 2
    commit = git_commit()
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            run_workload(workload, args, spec, commit)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
