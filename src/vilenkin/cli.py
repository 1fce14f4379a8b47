"""Command-line front door: verification suites and experiments.

Each invocation runs one experiment and writes a JSON or CSV artifact
(stdout by default).  Exit status is 1 exactly when an exact-identity
assertion fails and 2 when the config is bad (a one-line ``error:`` message
on stderr); monitored constants (estimate ratios, quasi-locality integrals)
never fail the run, they are reported with a warning field.

Output for a fixed config and seed is deterministic byte for byte, except
for the timing fields of transform-bench.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from .atoms import make_atom, quasilocality_integral, weak_type_check
from .characters import dirichlet, dirichlet_shift, dirichlet_table, block_dirichlet
from .group import GroupStructure, make_structure
from .kernels import (
    ESTIMATE_IDS,
    estimate_scan,
    kernel_decomposition_rhs,
    marcinkiewicz_kernel,
    r_factor,
    r_factor_closed,
)
from .means import evaluate_means
from .operators import (
    lebesgue_reports,
    maximal_function_grid,
    v_component,
    v_component_grid,
    v_sup_grid,
    w_operator_2d,
)
from .sampled import SampledFunction, lp_norm
from .testfunctions import build_test_function, list_test_functions, parse_fn_spec
from .transform import forward, naive_forward

EXPERIMENTS = (
    "verify-kernels",
    "verify-operators",
    "estimates",
    "convergence",
    "atoms",
    "transform-bench",
    "list-functions",
)


def _random_function(structure: GroupStructure, rng, arity: int = 2) -> SampledFunction:
    shape = (structure.size,) * arity
    return SampledFunction(structure, rng.normal(size=shape) + 1j * rng.normal(size=shape))


# -- experiments -----------------------------------------------------------------


def run_verify_kernels(structure: GroupStructure, args) -> dict:
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    size = structure.size
    suites = []

    err = 0.0
    for A in range(1, structure.depth + 1):
        lhs = structure.orders[A] * marcinkiewicz_kernel(structure, structure.orders[A]).values
        for x in range(size):
            for y in range(size):
                err = max(err, abs(lhs[x, y] - kernel_decomposition_rhs(structure, A, x, y)))
    suites.append({"name": "kernel-decomposition", "max_error": err})

    err = 0.0
    for A in range(structure.depth):
        for j in range(structure.orders[A]):
            for r in range(1, structure.radices[A]):
                target = dirichlet_table(structure, j + r * structure.orders[A])
                for x in range(size):
                    err = max(err, abs(dirichlet_shift(structure, j, r, A, x) - target[x]))
    suites.append({"name": "dirichlet-shift", "max_error": err})

    err = 0.0
    pairs = (
        [(x, y) for x in range(size) for y in range(size)]
        if size <= 40
        else [tuple(rng.integers(size, size=2)) for _ in range(1200)]
    )
    for i in range(structure.depth + 1):
        for n in range(i - 1, structure.depth):
            for x, y in pairs:
                err = max(
                    err,
                    abs(
                        r_factor(structure, i, n, x, y)
                        - r_factor_closed(structure, i, n, x, y)
                    ),
                )
    suites.append({"name": "r-factor", "max_error": err})

    err = 0.0
    for n in range(structure.depth + 1):
        table = dirichlet_table(structure, structure.orders[n])
        closed = block_dirichlet(structure, n, np.arange(size))
        err = max(err, float(np.abs(table - closed).max()))
    suites.append({"name": "block-dirichlet", "max_error": err})

    f = _random_function(structure, rng)
    orders = range(1, size + 1) if size <= 36 else rng.integers(1, size + 1, size=12)
    err = max(evaluate_means(f, int(n)).max_discrepancy for n in orders)
    suites.append({"name": "convolution-representation", "max_error": err})

    for suite in suites:
        suite["tolerance"] = tol
        suite["pass"] = bool(suite["max_error"] <= tol)
    return {
        "experiment": "verify-kernels",
        "radices": list(structure.radices),
        "depth": structure.depth,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }


def run_verify_operators(structure: GroupStructure, args) -> dict:
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    size = structure.size
    n_points = args.points or 10
    points = [tuple(rng.integers(size, size=2)) for _ in range(n_points)]
    suites = []

    err = 0.0
    for _ in range(3):
        f = _random_function(structure, rng)
        for x, y in points:
            shifted = SampledFunction(structure, np.abs(f.values - f.values[x, y]))
            for n in range(1, structure.depth + 1):
                w = w_operator_2d(f, x, y, n)
                v = sum(v_component(shifted, x, y, n, c).real for c in range(1, 5))
                err = max(err, abs(w - v))
    suites.append({"name": "w-equals-v", "max_error": err, "exact": True})

    const = SampledFunction(structure, np.full((size, size), 1.7 - 0.3j))
    err = max(
        w_operator_2d(const, x, y, n)
        for x, y in points
        for n in range(structure.depth + 1)
    )
    suites.append({"name": "w-constant-zero", "max_error": err, "exact": True})

    f = _random_function(structure, rng)
    g = _random_function(structure, rng)
    fg = SampledFunction(structure, f.values + g.values)
    err = 0.0
    for x, y in points:
        for n in range(1, structure.depth + 1):
            err = max(
                err,
                w_operator_2d(fg, x, y, n)
                - w_operator_2d(f, x, y, n)
                - w_operator_2d(g, x, y, n),
            )
            for c in range(1, 5):
                err = max(
                    err,
                    abs(v_component(fg, x, y, n, c))
                    - abs(v_component(f, x, y, n, c))
                    - abs(v_component(g, x, y, n, c)),
                )
    suites.append({"name": "sublinearity", "max_error": max(err, 0.0), "exact": True})

    err = 0.0
    for n in range(1, structure.depth + 1):
        for c in range(1, 5):
            grid = v_component_grid(f, n, c)
            for x, y in points:
                err = max(err, abs(grid[x, y] - v_component(f, x, y, n, c)))
    suites.append({"name": "v-grid-vs-verbatim", "max_error": err, "exact": True})

    star = maximal_function_grid(f)
    err = float((np.abs(f.values) - star).max())
    suites.append({"name": "maximal-dominates", "max_error": max(err, 0.0), "exact": True})

    ratios = []
    for _ in range(3):
        h = _random_function(structure, rng)
        sup_v = float(v_sup_grid(h).max())
        ratios.append(sup_v / float(np.abs(h.values).max()))
    observed = {"name": "linf-bound", "observed_constant": max(ratios), "exact": False}
    suites.append(observed)

    for suite in suites:
        if suite.get("exact"):
            suite["tolerance"] = tol
            suite["pass"] = bool(suite["max_error"] <= tol)
    return {
        "experiment": "verify-operators",
        "radices": list(structure.radices),
        "depth": structure.depth,
        "suites": suites,
        "pass": all(s.get("pass", True) for s in suites),
    }


def run_estimates(structure: GroupStructure, args) -> dict:
    reports = [estimate_scan(structure, name, tol=args.tol).to_dict() for name in ESTIMATE_IDS]
    alt = estimate_scan(structure, "est1", tol=args.tol, include_diagonal_shift=False)
    mismatches = sum(rep["zero_mismatches"] for rep in reports)
    return {
        "experiment": "estimates",
        "radices": list(structure.radices),
        "depth": structure.depth,
        "reports": reports,
        "est1_without_diagonal_shift": alt.to_dict(),
        "pass": mismatches == 0,
        "warning": None if mismatches == 0 else f"{mismatches} zero-set mismatches",
    }


def run_convergence(structure: GroupStructure, args) -> dict:
    name, params = parse_fn_spec(args.fn or "indicator")
    f = build_test_function(structure, name, **params)
    rng = np.random.default_rng(args.seed)
    size = structure.size
    count = args.points or min(size * size, 100)
    if count >= size * size:
        points = [(x, y) for x in range(size) for y in range(size)]
    else:
        points = [tuple(int(v) for v in rng.integers(size, size=2)) for _ in range(count)]
    reports = lebesgue_reports(f, points, threshold=0.02)
    verdicts = [rep.verdict for rep in reports]
    return {
        "experiment": "convergence",
        "radices": list(structure.radices),
        "depth": structure.depth,
        "function": {"name": name, "params": params},
        "points": [rep.to_dict() for rep in reports],
        "summary": {
            "converging": verdicts.count("converging"),
            "non_converging": verdicts.count("non-converging"),
            "inconclusive": verdicts.count("inconclusive"),
        },
        "pass": True,
    }


def run_atoms(structure: GroupStructure, args) -> dict:
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    count = args.points or 20
    depths = [N for N in (1, 2, 3) if N < structure.depth]
    if not depths:
        raise ValueError(f"atoms needs depth >= 2 for a support depth N < L, got {structure.depth}")
    p_values = (0.6, 0.8, 1.0)
    atoms_out = []
    max_by_region: dict = {}
    worst_vanishing = 0.0
    for p in p_values:
        for N in depths:
            for _ in range(count):
                seed = int(rng.integers(2**31))
                atom = make_atom(structure, p, N, seed=seed)
                report = quasilocality_integral(atom)
                ratio = weak_type_check(atom.function)
                worst_vanishing = max(
                    worst_vanishing,
                    report.below_depth_max,
                    max(report.vanishing_max.values()),
                )
                atoms_out.append(
                    {
                        "seed": seed,
                        "p": p,
                        "N": N,
                        "region_integrals": report.region_integrals,
                        "weak_ratio": ratio,
                    }
                )
                key = f"p={p}"
                slot = max_by_region.setdefault(key, {})
                for region, value in report.region_integrals.items():
                    slot[region] = max(slot.get(region, 0.0), value)
    return {
        "experiment": "atoms",
        "p": list(p_values),
        "radices": list(structure.radices),
        "depth": structure.depth,
        "atoms": atoms_out,
        "max_by_region": max_by_region,
        "vanishing_max": worst_vanishing,
        "pass": bool(worst_vanishing <= tol),
    }


def run_transform_bench(structure: GroupStructure, args) -> dict:
    rng = np.random.default_rng(args.seed)
    f = _random_function(structure, rng, arity=1)
    repeats = 5
    forward(f)  # one warm-up so first-call setup is not billed to the fast path
    t0 = time.perf_counter()
    for _ in range(repeats):
        fast = forward(f)
    fast_s = (time.perf_counter() - t0) / repeats
    # the naive summation pays for its character evaluations; a fresh
    # structure per repeat keeps the memoized table from hiding that cost
    t0 = time.perf_counter()
    for _ in range(repeats):
        fresh = GroupStructure(structure.radices)
        naive = naive_forward(SampledFunction(fresh, f.values))
    naive_s = (time.perf_counter() - t0) / repeats
    err = float(np.abs(fast.coefficients - naive.coefficients).max())
    return {
        "experiment": "transform-bench",
        "radices": list(structure.radices),
        "depth": structure.depth,
        "grid": structure.size,
        "rows": [
            {
                "op": "forward-1d",
                "fast_seconds": fast_s,
                "naive_seconds": naive_s,
                "speedup": naive_s / fast_s if fast_s > 0 else float("inf"),
                "max_error": err,
            }
        ],
        "pass": bool(err <= args.tol),
    }


# -- output plumbing ---------------------------------------------------------------


def _flatten(payload: dict) -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, (list, tuple)):
            for idx, value in enumerate(node):
                walk(f"{prefix}[{idx}]", value)
        else:
            rows.append((prefix, json.dumps(node)))

    walk("", payload)
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(_flatten(payload))
    return buf.getvalue()


def _write_artifact(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    tmp = f"{out}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, out)


RUNNERS = {
    "verify-kernels": run_verify_kernels,
    "verify-operators": run_verify_operators,
    "estimates": run_estimates,
    "convergence": run_convergence,
    "atoms": run_atoms,
    "transform-bench": run_transform_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="verification suites and experiments on truncated Vilenkin groups",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        if name == "list-functions":
            p.add_argument("--format", choices=("csv", "json"), default="json")
            p.add_argument("--out", default=None)
            continue
        p.add_argument("--radices", required=True, help="comma-separated radix list")
        p.add_argument("--depth", type=int, default=None, help="truncation depth (cycles the radix list)")
        p.add_argument("--tol", type=float, default=1e-9, help="identity tolerance")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fn", default=None, help="test function spec, e.g. indicator:N=1,center=0")
        p.add_argument("--points", type=int, default=None, help="sample size (points or atoms)")
        p.add_argument("--out", default=None, help="artifact path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        return _usage_error(f"--out directory of {args.out!r} does not exist")
    if args.experiment == "list-functions":
        payload = {"experiment": "list-functions", "functions": list_test_functions(), "pass": True}
    else:
        if args.points is not None and args.points < 1:
            return _usage_error(f"--points must be >= 1, got {args.points}")
        try:
            radices = tuple(int(tok) for tok in args.radices.split(","))
            structure = make_structure(radices, args.depth)
            payload = RUNNERS[args.experiment](structure, args)
        except ValueError as exc:
            return _usage_error(exc)
    try:
        _write_artifact(_render(payload, args.format), args.out)
    except OSError as exc:
        return _usage_error(exc)
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
