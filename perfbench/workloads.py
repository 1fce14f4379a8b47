"""The benchmark workloads: inputs made from a seed, an op list, and the
oracle check that every op's output must pass.

Ops call the package through module attributes (``V.estimate_scan``) at call
time, so the tracer's wrappers see them.  A check returns a list of failure
messages; an empty list means the output is correct.  It also runs the
costlier oracle comparison on the ops marked ``verify``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import vilenkin as V

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "estimates.json")

# radices and depth of each workload, fixed by what the workload is meant to stress
ESTIMATES_CONFIG = ((2, 3), 4)  # criterion 11 and `vilenkin estimates` size
ATOMS_CONFIG = ((2, 3), 6)  # grid 216^2
CONVERGENCE_CONFIG = ((2,), 8)  # grid 256^2

CONVERGENCE_BATCHES = 3
# 48 points take about four times as long in the W loops as the eight
# multiplier-mean tables every batch builds, so W dominates
BATCH_POINTS = 48

EXACT_TOL = 1e-9  # structural zeros and W = sum of V components
REFERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Op:
    label: str
    params: tuple
    verify: bool = False


@dataclass
class Workload:
    name: str
    structure: V.GroupStructure
    ops: list
    run: Callable
    check: Callable


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- estimates -------------------------------------------------------------------


def estimate_ops() -> list[Op]:
    """The five scans of `vilenkin estimates`, in its order."""
    ops = [Op(name, (name, True)) for name in V.ESTIMATE_IDS]
    return ops + [Op("est1_without_diagonal_shift", ("est1", False))]


def estimates(seed: int, config=ESTIMATES_CONFIG) -> Workload:
    """The seed has no effect: the scans are exhaustive over the grid."""
    structure = V.make_structure(*config)
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    same_config = tuple(reference["radices"]) == structure.radices

    def run(op: Op):
        name, diagonal = op.params
        return V.estimate_scan(structure, name, include_diagonal_shift=diagonal)

    def check(op: Op, report) -> list[str]:
        errors = []
        if op.params[1] and report.zero_mismatches != 0:
            errors.append(f"{op.label}: {report.zero_mismatches} zero-set mismatches")
        want = reference["rows"][op.label] if same_config else None
        if want is None or len(want) != len(report.per_order):
            return errors + [f"{op.label}: no reference rows of this length for {structure}"]
        for got, ref in zip(report.per_order, want):
            if got["n"] != ref["n"] or got["zero_mismatches"] != ref["zero_mismatches"]:
                errors.append(f"{op.label}: row n={got['n']} differs from the reference {ref}")
            elif not _close(got["max_ratio"], ref["max_ratio"], REFERENCE_RTOL):
                errors.append(
                    f"{op.label}: n={got['n']} max_ratio {got['max_ratio']!r} != {ref['max_ratio']!r}"
                )
        return errors

    return Workload("estimates", structure, estimate_ops(), run, check)


# -- atoms -------------------------------------------------------------------------


def atoms(seed: int, config=ATOMS_CONFIG) -> Workload:
    """One op per (p, N): make_atom, quasilocality_integral, weak_type_check.

    Each p and each N appears once; an op costs the same whatever p and N
    are, and three ops keep the pass short enough that a run times several
    passes.
    """
    structure = V.make_structure(*config)
    rng = np.random.default_rng(seed)
    combos = [(p, N) for p, N in ((0.6, 1), (0.8, 2), (1.0, 3)) if N < structure.depth]
    verify_at = int(rng.integers(len(combos)))
    ops = [
        Op(f"p={p},N={N}", (p, N, int(rng.integers(2**31))), verify=i == verify_at)
        for i, (p, N) in enumerate(combos)
    ]
    points = [tuple(int(v) for v in rng.integers(structure.size, size=2)) for _ in range(3)]

    def run(op: Op):
        p, N, atom_seed = op.params
        atom = V.make_atom(structure, p, N, seed=atom_seed)
        return atom, V.quasilocality_integral(atom), V.weak_type_check(atom.function)

    def check(op: Op, out) -> list[str]:
        atom, report, ratio = out
        errors = []
        worst = max(report.below_depth_max, *report.vanishing_max.values())
        if not worst <= EXACT_TOL:
            errors.append(f"{op.label}: structural zero off by {worst!r}")
        if not (np.isfinite(ratio) and ratio > 0):
            errors.append(f"{op.label}: weak-type ratio {ratio!r}")
        if op.verify:
            # the grid route against the verbatim per-point route
            for n in range(1, structure.depth + 1):
                for comp in range(1, 5):
                    grid = V.v_component_grid(atom.function, n, comp)
                    for x, y in points:
                        want = V.v_component(atom.function, x, y, n, comp)
                        if not abs(grid[x, y] - want) <= EXACT_TOL:
                            errors.append(f"{op.label}: V_{n}^({comp})({x},{y}) {grid[x, y]} != {want}")
        return errors

    return Workload("atoms", structure, ops, run, check)


# -- convergence -----------------------------------------------------------------


def convergence(seed: int, config=CONVERGENCE_CONFIG) -> Workload:
    """lebesgue_reports on batches of seeded points for the jump at 1/3."""
    structure = V.make_structure(*config)
    f = V.build_test_function(structure, "jump", theta=1.0 / 3.0)
    rng = np.random.default_rng(seed)
    size, depth = structure.size, structure.depth
    ops = []
    for b in range(CONVERGENCE_BATCHES):
        points = tuple((int(x), int(y)) for x, y in rng.integers(size, size=(BATCH_POINTS, 2)))
        # (point index, order) pairs where W_j is checked against sum_c V_j^(c)
        pairs = tuple((int(rng.integers(BATCH_POINTS)), int(rng.integers(1, depth + 1))) for _ in range(2))
        ops.append(Op(f"batch{b}", (points, pairs)))

    def run(op: Op):
        return V.lebesgue_reports(f, op.params[0])

    def check(op: Op, reports) -> list[str]:
        points, pairs = op.params
        if [(r.x, r.y) for r in reports] != list(points):
            return [f"{op.label}: reports do not match the batch's points"]
        errors = []
        for r in reports:
            if len(r.w_values) != depth or not np.all(np.isfinite(r.w_values + r.sigma_errors)):
                errors.append(f"{op.label}: bad W or sigma sequence at ({r.x},{r.y})")
            if r.verdict not in ("converging", "non-converging", "inconclusive"):
                errors.append(f"{op.label}: verdict {r.verdict!r}")
        for i, j in pairs:
            x, y = points[i]
            shifted = V.SampledFunction(structure, np.abs(f.values - f.values[x, y]))
            want = sum(V.v_component(shifted, x, y, j, c).real for c in range(1, 5))
            got = reports[i].w_values[j - 1]
            if not abs(got - want) <= EXACT_TOL:
                errors.append(f"{op.label}: W_{j}({x},{y}) {got!r} != sum of V {want!r}")
        return errors

    return Workload("convergence", structure, ops, run, check)


WORKLOADS = {"estimates": estimates, "atoms": atoms, "convergence": convergence}
