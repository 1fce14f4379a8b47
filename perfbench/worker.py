"""One benchmark process: set a workload up, time whole passes over its op
list, check every output, and print one JSON line of raw measurements.

run.py starts this file in a fresh process for each measurement, with the
thread pools pinned to 1, and passes the monotonic time at which it started
the process, so set-up time includes interpreter start and imports.

Modes:
  setup  set up (imports, structure, inputs, first op cold) and stop
  run    set up and time passes for --seconds
  trace  as run, then time one untraced and one traced pass, each op run
         once; writes the spans to <root>/.bench_out/ and reports
         per-module metrics
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import vilenkin  # noqa: E402
import workloads  # noqa: E402

# an op shorter than a tenth of this also runs in two bursts this long (see measure)
BURST_S = 2.0


class Tally:
    """Counts ops attempted and ops whose run raised or whose check failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, op, out, error) -> None:
        self.attempted += 1
        messages = [error] if error else self.workload.check(op, out)
        if messages:
            self.failed += 1
            for message in messages[:3]:
                print(f"op {op.label} failed: {message}", file=sys.stderr)


def run_op(workload, op, tracer=None):
    """Run one op; returns (output, seconds, traceback text or None)."""
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    start = clock()
    if tracer is not None:
        tracer.push(spans.OP_SPAN, start)
    try:
        out, error = workload.run(op), None
    except Exception:  # an op that raises is a failed op, not a crashed run
        out, error = None, traceback.format_exc()
    end = clock()
    if tracer is not None:
        tracer.pop(end)
        tracer.uninstall()
    return out, end - start, error


def timed_runs(workload, op, tally: Tally, tracer, burst_s: float) -> list[float]:
    """Run `op` once and, if that run took under a tenth of `burst_s` and
    passed, back to back until its runs add up to `burst_s`; returns the
    time of each run."""
    runs: list[float] = []
    error = None
    while not runs or (error is None and runs[0] < burst_s / 10 and sum(runs) < burst_s):
        if tracer is not None:
            tracer.op_id += 1
        out, elapsed, error = run_op(workload, op, tracer)
        runs.append(elapsed)
        tally.record(op, out, error)
        del out
    return runs


def measure(workload, seconds: float, tally: Tally, tracer=None, burst_s: float = 0.0):
    """Time whole passes over the op list: at least one, and another only
    while it is expected to end within `seconds` of the start.  Returns the
    time of each pass and the latency of each op in each pass.

    A pass's time is the sum of its ops' first runs, each op run once in
    list order.  An op whose first run takes under a tenth of `burst_s` is
    also run in two bursts of back-to-back runs lasting `burst_s` each, one
    right after its first run and one after the whole pass, and its latency
    is its fastest run.  This host class (a shared 2-vCPU VM) runs
    everything up to 1.8x slower for stretches of seconds: over ten passes
    of the estimates workload the IQR/median spread of the est2 scan's time
    was 0.45 from single runs, 0.25 as the fastest run of one 0.5 s burst
    and 0.07 as the fastest run of two 0.5 s bursts on either side of the
    20 s lemma2 scan; over ten benchmark runs, op_p50_s (the est2 scan)
    spread 0.30 with 0.5 s bursts and 0.07 with 2 s bursts.  With burst_s=0
    every op runs once.  Checks run after every run of an op, outside the
    timed region and with the tracer uninstalled.
    """
    clock = time.perf_counter
    passes: list[float] = []
    op_times: list[float] = []
    deadline = clock() + seconds
    elapsed = 0.0
    while not passes or clock() + elapsed <= deadline:
        started = clock()
        runs = [timed_runs(workload, op, tally, tracer, burst_s) for op in workload.ops]
        for op, op_runs in zip(workload.ops, runs):
            if len(op_runs) > 1:
                op_runs += timed_runs(workload, op, tally, tracer, burst_s)
        elapsed = clock() - started
        passes.append(sum(op_runs[0] for op_runs in runs))
        op_times += [min(op_runs) for op_runs in runs]
    return passes, op_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    args = parser.parse_args(argv)

    if not os.path.abspath(vilenkin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vilenkin imported from {vilenkin.__file__}, not from {SRC}")
    baseline = spans.live_array_bytes() if args.mode == "trace" else 0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally(workload)
    first = workload.ops[0]
    out, _, error = run_op(workload, first)
    result = {"setup_s": time.monotonic() - args.t0}
    tally.record(first, out, error)
    del out
    if args.mode != "setup":
        passes, op_times = measure(workload, args.seconds, tally, burst_s=BURST_S)
        result.update(passes=passes, op_times=op_times)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        # an untraced and a traced pass timed alike: each op run once
        (plain,), _ = measure(workload, 0.0, tally)
        tracer = spans.Tracer()
        (traced,), _ = measure(workload, 0.0, tally, tracer=tracer)
        layers = tracer.metrics()
        layers["trace.wall_s"] = traced
        layers["trace.overhead_s"] = traced - plain
        result["plain_pass_s"] = plain
        # keep the structure (and its table caches), drop inputs and outputs
        structure = workload.structure
        del workload, tally.workload
        layers["caches.retained_mb"] = (spans.live_array_bytes() - baseline) / 2**20
        del structure
        result.update(layers=layers)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
        result["spans_file"] = os.path.relpath(path, ROOT)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        provenance={"vilenkin": vilenkin.__version__, "numpy": np.__version__, "python": sys.version.split()[0]},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
