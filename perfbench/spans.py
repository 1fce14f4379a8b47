"""Spans and counters recorded from outside the package.

A Tracer wraps the public functions of each vilenkin module in every module
namespace that binds them (``convolve`` is bound in ``transform``,
``operators``, ``means`` and the package root), and wraps ``GroupStructure``
and ``SampledFunction`` methods on their classes.  Spans stay in memory as
``[name, start, end, parent, op_id]`` records; self time is computed after
the run.  The hottest scalar helpers get a call counter only: a span on each
of their millions of calls would dominate the scan being measured.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import sys
import time
from collections import Counter

import numpy as np

SPAN = "span"
COUNT = "count"

# (module, attribute, metric prefix, kind); "Class.method" attributes are
# wrapped on the class, plain functions in every namespace that binds them
TARGETS = (
    ("group", "GroupStructure.sub", "group.sub", COUNT),
    ("group", "GroupStructure.add", "group.add", COUNT),
    ("group", "GroupStructure.add_outer", "group.add_outer", SPAN),
    ("group", "GroupStructure.interval_indices", "group.interval_indices", SPAN),
    ("characters", "block_dirichlet", "characters.block_dirichlet", COUNT),
    ("characters", "character_table", "characters.character_table", SPAN),
    ("characters", "dirichlet_table", "characters.dirichlet_table", SPAN),
    ("transform", "forward", "transform.forward", SPAN),
    ("transform", "inverse", "transform.inverse", SPAN),
    ("transform", "convolve", "transform.convolve", SPAN),
    ("kernels", "marcinkiewicz_kernel", "kernels.marcinkiewicz_kernel", SPAN),
    ("kernels", "fejer_kernel_1d", "kernels.fejer_kernel_1d", SPAN),
    ("kernels", "kernel_majorant_2d", "kernels.kernel_majorant_2d", SPAN),
    ("kernels", "double_shift_majorant", "kernels.double_shift_majorant", SPAN),
    ("kernels", "estimate_scan", "kernels.estimate_scan", SPAN),
    ("kernels", "r_factor_table", "kernels.r_factor_table", COUNT),
    ("means", "marcinkiewicz_means", "means.marcinkiewicz_means", SPAN),
    ("means", "sigma_multiplier", "means.sigma_multiplier", SPAN),
    ("operators", "w_sequence", "operators.w_sequence", SPAN),
    ("operators", "v_component_grid", "operators.v_component_grid", SPAN),
    ("operators", "v_sup_grid", "operators.v_sup_grid", SPAN),
    ("operators", "lebesgue_reports", "operators.lebesgue_reports", SPAN),
    ("operators", "v_kernel_table", "operators.v_kernel_table", SPAN),
    ("atoms", "make_atom", "atoms.make_atom", SPAN),
    ("atoms", "quasilocality_integral", "atoms.quasilocality_integral", SPAN),
    ("atoms", "weak_type_check", "atoms.weak_type_check", SPAN),
    ("sampled", "SampledFunction.__init__", "sampled.SampledFunction", SPAN),
)

OP_SPAN = "workload.op"

# share of calls whose operand (convolve's kernel) or result (a V kernel
# table) has the same bytes as an earlier call's
REPEAT_METRICS = {
    "transform.convolve": "transform.convolve.repeat_operand_ratio",
    "operators.v_kernel_table": "operators.v_kernel_table.repeat_ratio",
}


def _digest(values: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(values), digest_size=16).digest()


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.bytes_computed = 0
        self._seen: dict[str, set] = {name: set() for name in REPEAT_METRICS}
        self.repeats: Counter = Counter()
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def push(self, name: str, start: float) -> None:
        self.stack.append(len(self.records))
        parent = self.stack[-2] if len(self.stack) > 1 else -1
        self.records.append([name, start, start, parent, self.op_id])

    def pop(self, end: float) -> None:
        self.records[self.stack.pop()][2] = end

    def _repeat(self, name: str, values: np.ndarray) -> None:
        digest = _digest(values)
        if digest in self._seen[name]:
            self.repeats[name] += 1
        self._seen[name].add(digest)

    def _span_wrapper(self, name: str, fn):
        push, pop, clock = self.push, self.pop, time.perf_counter
        digest_operand = name == "transform.convolve"
        digest_result = name == "operators.v_kernel_table"
        count_bytes = name in ("transform.forward", "transform.inverse")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # digests and byte counts are taken outside the callee's span
            if digest_operand:
                self._repeat(name, args[1].values)
            if count_bytes:
                # computed, not measured: a read and a write of the complex grid
                self.bytes_computed += 2 * 16 * args[0].structure.size ** args[0].arity
            push(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(clock())
            if digest_result:
                self._repeat(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded vilenkin namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "vilenkin" or key.startswith("vilenkin.")
        ]
        for module_name, attr, name, kind in TARGETS:
            module = sys.modules[f"vilenkin.{module_name}"]
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, make(name, original))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time of every target over all traced ops, and the ratios."""
        selfs = self_times(self.records)
        calls: Counter = Counter(self.counts)
        seconds: Counter = Counter()
        for record, own in zip(self.records, selfs):
            calls[record[0]] += 1
            seconds[record[0]] += own
        out = {}
        for _, _, name, kind in TARGETS:
            out[f"{name}.calls"] = calls[name]
            if kind == SPAN:
                out[f"{name}.self_s"] = seconds[name]
        for name, metric in REPEAT_METRICS.items():
            out[metric] = self.repeats[name] / calls[name] if calls[name] else 0.0
        out["transform.bytes_computed"] = self.bytes_computed
        out["workload.op.self_s"] = seconds[OP_SPAN]
        out["trace.self_sum_s"] = sum(selfs)
        return out

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        return {
            "fields": ["name", "start", "end", "parent", "op_id"],
            "spans": self.records,
            "counters": dict(self.counts),
        }


def self_times(records: list[list]) -> list[float]:
    """Each span's duration minus the part covered by its child spans.

    Spans nest (single thread), so the covered part is the sum of the
    children's durations.
    """
    own = [end - start for _, start, end, _, _ in records]
    for _, start, end, parent, _ in records:
        if parent >= 0:
            own[parent] -= end - start
    return own


def live_array_bytes() -> int:
    """Bytes of every numpy buffer reachable from a live container.

    Walks the garbage collector's containers and the untracked dicts,
    lists and tuples they hold (CPython stops tracking containers whose
    items are all atomic, and ndarrays are atomic to it), and counts each
    underlying buffer once.
    """
    gc.collect()
    seen_buffers: set[int] = set()
    seen_containers: set[int] = set()
    total = 0
    todo = gc.get_objects()
    while todo:
        obj = todo.pop()
        for ref in gc.get_referents(obj):
            if isinstance(ref, np.ndarray):
                base = ref
                while isinstance(base.base, np.ndarray):
                    base = base.base
                if id(base) not in seen_buffers:
                    seen_buffers.add(id(base))
                    total += base.nbytes
            elif type(ref) in (dict, list, tuple) and not gc.is_tracked(ref):
                if id(ref) not in seen_containers:
                    seen_containers.add(id(ref))
                    todo.append(ref)
    return total
