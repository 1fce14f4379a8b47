"""Self-tests of the benchmark: wrapper installation, self-time arithmetic,
failure counting, and the bypass claims of the workloads as counts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The workloads run here at small sizes; the claims checked do not depend on
size.
"""

import dataclasses
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import vilenkin as V  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {"estimates": ((2, 3), 2), "atoms": ((2, 3), 4), "convergence": ((2,), 4)}


def small(name: str, seed: int = 1) -> workloads.Workload:
    return workloads.WORKLOADS[name](seed, config=SMALL[name])


def one_traced_pass(workload):
    tally = worker.Tally(workload)
    tracer = spans.Tracer()
    passes, _ = worker.measure(workload, 0.0, tally, tracer=tracer)
    return tracer, passes, tally


def bindings() -> dict:
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "vilenkin" or key.startswith("vilenkin."):
            out.update({(key, attr): value for attr, value in vars(module).items()})
    for cls in (V.GroupStructure, V.SampledFunction):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_wrappers_cover_every_binding_and_restore_the_originals():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in ("vilenkin", "vilenkin.transform", "vilenkin.operators", "vilenkin.means"):
            assert sys.modules[module].convolve is not before[(module, "convolve")]
        assert V.GroupStructure.sub is not before[("GroupStructure", "sub")]
        assert V.SampledFunction.__init__ is not before[("SampledFunction", "__init__")]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_time_on_a_synthetic_span_tree():
    records = [
        ["workload.op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["workload.op", 10.0, 12.0, -1, 1],
    ]
    assert spans.self_times(records) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_corrupted_output_counts_as_a_failed_op():
    workload = small("convergence")
    clean = workload.run
    bad = workload.ops[1]

    def corrupted(op):
        reports = clean(op)
        if op is bad:
            i, j = op.params[1][0]  # a (point, order) pair the check compares
            w = list(reports[i].w_values)
            w[j - 1] += 1e-6
            reports[i] = dataclasses.replace(reports[i], w_values=tuple(w))
        return reports

    workload.run = corrupted
    tally = worker.Tally(workload)
    worker.measure(workload, 0.0, tally)
    assert (tally.attempted, tally.failed) == (len(workload.ops), 1)


def test_an_op_that_raises_counts_as_a_failed_op():
    workload = small("atoms")
    workload.run = lambda op: 1 / 0
    tally = worker.Tally(workload)
    worker.measure(workload, 0.0, tally)
    assert tally.failed == tally.attempted == len(workload.ops)


def test_estimate_rows_are_checked_against_the_reference():
    workload = workloads.estimates(0)
    with open(workloads.REFERENCE, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    op = workload.ops[3]
    report = V.EstimateReport(op.params[0], workload.structure.radices, 4, [dict(r) for r in rows[op.label]])
    assert workload.check(op, report) == []
    report.per_order[7]["max_ratio"] *= 1 + 1e-9
    assert len(workload.check(op, report)) == 1


@pytest.mark.parametrize("name", ["atoms", "convergence"])
def test_small_workloads_pass_their_checks(name):
    workload = small(name)
    tally = worker.Tally(workload)
    worker.measure(workload, 0.0, tally)
    assert tally.failed == 0


def test_estimates_makes_no_transform_call():
    workload = small("estimates")
    workload.check = lambda op, out: []  # the reference rows are for depth 4
    tracer, passes, _ = one_traced_pass(workload)
    layers = tracer.metrics()
    assert [layers[f"transform.{f}.calls"] for f in ("forward", "inverse", "convolve")] == [0, 0, 0]
    assert layers["kernels.kernel_majorant_2d.calls"] > 0
    assert layers["characters.block_dirichlet.calls"] > 0


def test_convergence_transforms_without_convolving():
    tracer, _, tally = one_traced_pass(small("convergence"))
    layers = tracer.metrics()
    assert tally.failed == 0
    assert layers["transform.convolve.repeat_operand_ratio"] == 0
    assert layers["transform.convolve.calls"] == 0
    assert layers["transform.forward.calls"] > 0


def test_atoms_repeats_convolve_operands_and_self_times_add_up():
    tracer, passes, tally = one_traced_pass(small("atoms"))
    layers = tracer.metrics()
    assert tally.failed == 0
    assert layers["transform.convolve.repeat_operand_ratio"] > 0
    # every op's time is attributed to exactly one span
    assert layers["trace.self_sum_s"] == pytest.approx(passes[0], rel=1e-6)


def test_benchmark_lists_only_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer, _, _ = one_traced_pass(small("convergence"))
    reported = set(tracer.metrics()) | {"trace.wall_s", "trace.overhead_s", "caches.retained_mb"}
    assert {m["name"] for m in spec["per_layer"]} <= reported
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "op_p50_s", "peak_rss_mb"}


def sleeper(durations: dict) -> workloads.Workload:
    """A workload whose ops sleep for the given seconds and always pass."""
    ops = [workloads.Op(label, (seconds,)) for label, seconds in durations.items()]
    return workloads.Workload("sleeper", None, ops, lambda op: time.sleep(op.params[0]), lambda op, out: [])


def test_only_whole_passes_are_timed():
    workload = sleeper({"a": 0.02, "b": 0.06, "c": 0.04})
    tally = worker.Tally(workload)
    passes, op_times = worker.measure(workload, 0.3, tally)
    # a third pass would end after the deadline, so it is not started
    assert len(passes) == 2
    assert len(op_times) == 2 * len(workload.ops) == tally.attempted
    assert sum(op_times) == pytest.approx(sum(passes))


def test_short_ops_run_in_two_bursts_and_keep_their_fastest_run():
    workload = sleeper({"short": 0.001, "long": 0.02})
    tally = worker.Tally(workload)
    passes, op_times = worker.measure(workload, 0.0, tally, burst_s=0.05)
    assert len(passes) == 1
    # the short op runs many times in each burst; the long op, over a tenth
    # of burst_s, runs once
    assert tally.attempted > 10
    # the pass counts each op's first run; the short op's latency is its fastest
    assert op_times[0] <= passes[0] - op_times[1]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    q, value = run.tail([float(i) for i in range(100)])
    assert q == 90.0 and value == pytest.approx(89.1)
    assert run.tail([float(i) for i in range(40)])[0] == 75.0
    assert run.tail([float(i) for i in range(9)]) == (50.0, 4.0)
