"""Command-line front door: verification suites and experiments.

Each invocation runs one experiment and writes a JSON or CSV artifact
(stdout by default); ``EXPERIMENTS`` names the flags each experiment reads,
and its parser takes those, ``--out`` and ``--format`` only.  Exit status is
1 exactly when an exact-identity assertion fails and 2 when the invocation
is bad, parser errors included (a one-line ``error:`` message on stderr);
monitored constants (estimate ratios, quasi-locality integrals) never fail
the run, they are reported with a warning field.

Output for a fixed config and seed is deterministic byte for byte, except
for the timing fields of transform-bench.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from .atoms import make_atom, quasilocality_integral, weak_type_check
from .characters import block_dirichlet, dirichlet_shift, dirichlet_table
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
    v_component_grid,
    v_sup_grid,
    w_operator_2d,
    w_sequence,
)
from .oracles import naive_forward, v_component
from .sampled import SampledFunction
from .testfunctions import build_test_function, list_test_functions, parse_fn_spec
from .transform import digit_blocks, forward


def _random_function(structure: GroupStructure, rng, arity: int = 2) -> SampledFunction:
    shape = (structure.size,) * arity
    return SampledFunction(structure, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _structure(args) -> GroupStructure:
    return make_structure(args.radices, args.depth)


# -- experiments -----------------------------------------------------------------


def run_verify_kernels(args) -> dict:
    structure = _structure(args)
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    size = structure.size
    xs = np.arange(size)
    suites = []

    # M_A K_{M_A} grows like M_A^3, so its error is taken relative to the
    # grid's largest |M_A K_{M_A}| at each level A
    err = 0.0
    for A in range(1, structure.depth + 1):
        lhs = structure.orders[A] * marcinkiewicz_kernel(structure, structure.orders[A])
        rhs = kernel_decomposition_rhs(structure, A, xs[:, None], xs[None, :])
        err = max(err, float(np.abs(lhs - rhs).max() / np.abs(lhs).max()))
    suites.append(
        {"name": "kernel-decomposition", "max_error": err, "relative_to": "max |M_A K_{M_A}| per level A"}
    )

    err = 0.0
    for A in range(structure.depth):
        for j in range(structure.orders[A]):
            for r in range(1, structure.radices[A]):
                target = dirichlet_table(structure, j + r * structure.orders[A])
                rhs = dirichlet_shift(structure, j, r, A, xs)
                err = max(err, float(np.abs(rhs - target).max()))
    suites.append({"name": "dirichlet-shift", "max_error": err})

    err = 0.0
    if size <= 40:
        x, y = xs[:, None], xs[None, :]
    else:
        x, y = rng.integers(size, size=(1200, 2)).T
    for i in range(structure.depth + 1):
        for n in range(i - 1, structure.depth):
            diff = r_factor(structure, i, n, x, y) - r_factor_closed(structure, i, n, x, y)
            err = max(err, float(np.abs(diff).max()))
    suites.append({"name": "r-factor", "max_error": err})

    err = 0.0
    for n in range(structure.depth + 1):
        table = dirichlet_table(structure, structure.orders[n])
        closed = block_dirichlet(structure, n, xs)
        err = max(err, float(np.abs(table - closed).max()))
    suites.append({"name": "block-dirichlet", "max_error": err})

    f = _random_function(structure, rng)
    orders = range(1, size + 1) if size <= 36 else rng.integers(1, size + 1, size=12)
    err = max(evaluate_means(f, n) for n in orders)
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


def run_verify_operators(args) -> dict:
    structure = _structure(args)
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
            w = w_sequence(f, x, y).tolist()
            for n in range(1, structure.depth + 1):
                v = sum(v_component(shifted, x, y, n, c).real for c in range(1, 5))
                err = max(err, abs(w[n - 1] - v))
    suites.append({"name": "w-equals-v", "max_error": err, "exact": True})

    const = SampledFunction(structure, np.full((size, size), 1.7 - 0.3j))
    # w_sequence starts at W_1, so W_0 comes from w_operator_2d
    err = max(
        max(w_operator_2d(const, x, y, 0), *w_sequence(const, x, y).tolist())
        for x, y in points
    )
    suites.append({"name": "w-constant-zero", "max_error": err, "exact": True})

    f = _random_function(structure, rng)
    g = _random_function(structure, rng)
    fg = SampledFunction(structure, f.values + g.values)
    err = 0.0
    for x, y in points:
        w_fg, w_f, w_g = (w_sequence(h, x, y).tolist() for h in (fg, f, g))
        for n in range(1, structure.depth + 1):
            err = max(err, w_fg[n - 1] - w_f[n - 1] - w_g[n - 1])
            for c in range(1, 5):
                err = max(
                    err,
                    abs(v_component(fg, x, y, n, c))
                    - abs(v_component(f, x, y, n, c))
                    - abs(v_component(g, x, y, n, c)),
                )
    suites.append({"name": "sublinearity", "max_error": max(err, 0.0), "exact": True})

    err = 0.0
    for n in range(structure.depth + 1):
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


def run_estimates(args) -> dict:
    structure = _structure(args)
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


def run_convergence(args) -> dict:
    structure = _structure(args)
    name, params = parse_fn_spec(args.fn or "indicator")
    f = build_test_function(structure, name, **params)
    rng = np.random.default_rng(args.seed)
    size = structure.size
    count = args.points or min(size * size, 100)
    if count >= size * size:
        points = [(x, y) for x in range(size) for y in range(size)]
    else:
        points = [tuple(int(v) for v in rng.integers(size, size=2)) for _ in range(count)]
    reports = lebesgue_reports(f, points)
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


def run_atoms(args) -> dict:
    structure = _structure(args)
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


def run_transform_bench(args) -> dict:
    structure = _structure(args)
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
        # the digit blocks the fast path applied, in C-axis order
        "blocks": [list(block) for block in digit_blocks(structure)],
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


def run_list_functions(args) -> dict:
    return {"experiment": "list-functions", "functions": list_test_functions(), "pass": True}


# each experiment's runner and the flags it reads, besides --out and --format
EXPERIMENTS = {
    "verify-kernels": (run_verify_kernels, ("radices", "depth", "tol", "seed")),
    "verify-operators": (run_verify_operators, ("radices", "depth", "tol", "seed", "points")),
    "estimates": (run_estimates, ("radices", "depth", "tol")),
    "convergence": (run_convergence, ("radices", "depth", "seed", "fn", "points")),
    "atoms": (run_atoms, ("radices", "depth", "tol", "seed", "points")),
    "transform-bench": (run_transform_bench, ("radices", "depth", "tol", "seed")),
    "list-functions": (run_list_functions, ()),
}


def _radix_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


_FLAGS = {
    "radices": {"type": _radix_list, "required": True, "help": "comma-separated radix list"},
    "depth": {"type": int, "help": "truncation depth (cycles the radix list)"},
    "tol": {"type": float, "default": 1e-9, "help": "identity tolerance"},
    "seed": {"type": int, "default": 0},
    "fn": {"help": "test function spec, e.g. indicator:N=1,center=0"},
    "points": {"type": int, "help": "sample size (points or atoms)"},
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
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, out)
    finally:
        # left only when the write or the replace failed
        if os.path.exists(tmp):
            os.remove(tmp)


class _Parser(argparse.ArgumentParser):
    """Raises its errors, so that they leave ``main`` as usage errors."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vilenkin",
        description="verification suites and experiments on truncated Vilenkin groups",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, flags) in EXPERIMENTS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--out", default=None, help="artifact path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out directory of {args.out!r} does not exist")
        # --points, --seed and --tol are checked where the experiment takes them
        options = vars(args)
        if options.get("points") is not None and args.points < 1:
            raise ValueError(f"--points must be >= 1, got {args.points}")
        if options.get("seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # every check would pass at a NaN or infinite tolerance
        if "tol" in options and not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        run, _ = EXPERIMENTS[args.experiment]
        payload = run(args)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        _write_artifact(_render(payload, args.format), args.out)
    except OSError as exc:
        return _usage_error(exc)
    return 0 if payload["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
