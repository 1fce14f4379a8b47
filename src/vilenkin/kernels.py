"""Fejer and Marcinkiewicz-Fejer kernels, the block decomposition of
M_A K_{M_A}, and the one-sided kernel estimates with their observed
constants.

The exact objects:

    1-D Fejer kernel          K_n(x)   = (1/n) sum_{k<n} D_k(x)
    2-D Marcinkiewicz kernel  K_n(x,y) = (1/n) sum_{k<n} D_k(x) D_k(y)
    coupling factor           r_{i,n}(x,y) = prod_{l=i}^{n} sum_{s<m_l} psi_{M_l}^s(x+y)

The block decomposition of M_A K_{M_A}(x, y) iterates the Dirichlet shift
identity and splits into three groups per level k < A (a D_{M_k} x D_{M_k}
group and two mixed D x K groups), each weighted by r_{k+1,A-1}.  The three
groups alone reproduce M_A K_{M_A} exactly; the extra additive tail
r_{1,A-1}(x+y) that sometimes accompanies statements of this decomposition
breaks the identity (it double-counts the bottom level, which the k = 0
group already carries), so it is not part of ``kernel_decomposition_rhs``.

The estimate evaluators return the majorant side only; ``estimate_scan``
reports the observed LHS/RHS ratios since the hidden constants are not
pinned by theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characters import block_dirichlet, character_table, dirichlet_table
from .group import GroupStructure
from .sampled import SampledFunction

__all__ = [
    "ESTIMATE_IDS",
    "EstimateReport",
    "KernelTable",
    "block_shift_majorant",
    "double_shift_majorant",
    "estimate_scan",
    "fejer_kernel_1d",
    "kernel_decomposition_rhs",
    "kernel_majorant_2d",
    "marcinkiewicz_kernel",
    "r_factor",
    "r_factor_closed",
    "r_factor_table",
    "scale_sum_majorant",
]

ESTIMATE_IDS = ("est1", "est2", "fejer", "lemma2")


@dataclass(frozen=True, eq=False)
class KernelTable:
    """A kernel tabulated on the full grid."""

    structure: GroupStructure
    order: int
    values: np.ndarray

    @property
    def arity(self) -> int:
        return self.values.ndim

    def as_function(self) -> SampledFunction:
        return SampledFunction(self.structure, self.values)


@dataclass
class EstimateReport:
    """Observed constants of a one-sided kernel estimate.

    ``per_order`` rows carry the order n (or block level A), the maximal
    LHS/RHS ratio over grid points with RHS > 0, and the number of points
    where the RHS vanishes but the LHS does not.
    """

    estimate: str
    radices: tuple[int, ...]
    depth: int
    per_order: list[dict] = field(default_factory=list)

    @property
    def observed_constant(self) -> float:
        ratios = [row["max_ratio"] for row in self.per_order]
        return max(ratios) if ratios else 0.0

    @property
    def zero_mismatches(self) -> int:
        return sum(row["zero_mismatches"] for row in self.per_order)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "radices": list(self.radices),
            "depth": self.depth,
            "per_order": self.per_order,
            "observed_constant": self.observed_constant,
            "zero_mismatches": self.zero_mismatches,
        }


# -- kernels -------------------------------------------------------------------


def _dirichlet_stack(structure: GroupStructure, n: int) -> np.ndarray:
    """Rows D_0 .. D_{n-1} on the grid."""
    table = character_table(structure)
    stack = np.zeros((n, structure.size), dtype=np.complex128)
    if n > 1:
        stack[1:] = np.cumsum(table[: n - 1], axis=0)
    return stack


def fejer_kernel_1d(structure: GroupStructure, n: int, index_base: int = 0) -> KernelTable:
    """K_n(x) = (1/n) sum D_k(x), k running over [base, n + base)."""
    n = int(n)
    if not 1 <= n <= structure.size:
        raise ValueError(f"kernel order {n} not in [1, {structure.size}]")
    stack = _dirichlet_stack(structure, n + index_base)
    if index_base == 0:
        values = stack.sum(axis=0) / n
    else:
        values = (stack[1:].sum(axis=0) + dirichlet_table(structure, n)) / n
    return KernelTable(structure, n, values)


def marcinkiewicz_kernel(
    structure: GroupStructure, n: int, index_base: int = 0
) -> KernelTable:
    """K_n(x, y) = (1/n) sum D_k(x) D_k(y), k running over [base, n + base)."""
    n = int(n)
    if not 1 <= n <= structure.size:
        raise ValueError(f"kernel order {n} not in [1, {structure.size}]")
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    stack = _dirichlet_stack(structure, n)
    values = np.einsum("kx,ky->xy", stack, stack)
    if index_base == 1:
        top = dirichlet_table(structure, n)
        values = values - np.outer(stack[0], stack[0]) + np.outer(top, top)
    return KernelTable(structure, n, values / n)


# -- the coupling factor r ------------------------------------------------------


def r_factor(structure: GroupStructure, i: int, n: int, x: int, y: int) -> complex:
    """Product definition of r_{i,n}(x, y); the empty product (i > n) is 1."""
    if i > n:
        return 1.0 + 0j
    if not (0 <= i and n < structure.depth):
        raise ValueError(f"factor range [{i}, {n}] not inside [0, {structure.depth})")
    w = structure.add(x, y)
    value = 1.0 + 0j
    for l in range(i, n + 1):
        digit = int(structure.digit_table[w, l])
        root = structure.root_tables[l]
        value *= sum(root[(s * digit) % structure.radices[l]] for s in range(structure.radices[l]))
    return complex(value)


def r_factor_closed(structure: GroupStructure, i: int, n: int, x: int, y: int) -> float:
    """Closed form: m_i ... m_n when digits i..n of x + y vanish, else 0."""
    if i > n:
        return 1.0
    if not (0 <= i and n < structure.depth):
        raise ValueError(f"factor range [{i}, {n}] not inside [0, {structure.depth})")
    w = structure.add(x, y)
    digits = structure.digit_table[w]
    if any(digits[l] for l in range(i, n + 1)):
        return 0.0
    return float(structure.orders[n + 1] // structure.orders[i])


def r_factor_table(structure: GroupStructure, i: int, n: int) -> np.ndarray:
    """r_{i,n} as a function of w = x + y, tabulated over the grid.

    Uses the closed form (exact zeros); stored on the structure.  Its
    support, ``r_factor_table(...) > 0``, is the indicator that digits i..n
    of w all vanish.
    """
    if i > n:
        return np.ones(structure.size)

    def build() -> np.ndarray:
        Mi, Mn1 = structure.orders[i], structure.orders[n + 1]
        w = np.arange(structure.size)
        mask = (w % Mn1) < Mi  # digits i..n of w vanish iff w mod M_{n+1} < M_i
        return np.where(mask, float(Mn1 // Mi), 0.0)

    return structure.table(("r", i, n), build)


# -- block decomposition of M_A K_{M_A} -----------------------------------------


def kernel_decomposition_rhs(
    structure: GroupStructure,
    A: int,
    x: int,
    y: int,
) -> complex:
    """Right-hand side of the block decomposition of M_A K_{M_A}(x, y).

    Three groups per level k < A: the D_{M_k}(x) D_{M_k}(y) group weighted by
    M_k, and the two mixed groups pairing D_{M_k} on one axis with
    M_k K_{M_k} on the other; all weighted by r_{k+1,A-1}(x, y).
    """
    if not 1 <= A <= structure.depth:
        raise ValueError(f"block level {A} not in [1, {structure.depth}]")
    w = structure.add(x, y)
    total = 0.0 + 0j
    for k in range(A):
        r = r_factor_table(structure, k + 1, A - 1)[w]
        if r == 0.0:
            continue
        mk = structure.radices[k]
        base_x = structure.root_tables[k][structure.digit_table[int(x), k] % mk]
        base_y = structure.root_tables[k][structure.digit_table[int(y), k] % mk]
        # prefix_r = sum_{q<r} psi_{M_k}^q evaluated by cumulative powers
        s1 = s2 = s3 = 0.0 + 0j
        px = py = 1.0 + 0j  # prefix sums for r = 1
        pow_x, pow_y = base_x, base_y
        for rr in range(1, mk):
            s1 += px * py
            s2 += px * pow_y
            s3 += py * pow_x
            px += pow_x
            py += pow_y
            pow_x *= base_x
            pow_y *= base_y
        Dx = float(block_dirichlet(structure, k, int(x)))
        Dy = float(block_dirichlet(structure, k, int(y)))
        Mk = structure.orders[k]
        MkK_x = Mk * fejer_value(structure, Mk, int(x))
        MkK_y = Mk * fejer_value(structure, Mk, int(y))
        total += r * (Mk * s1 * Dx * Dy + s2 * Dx * MkK_y + s3 * Dy * MkK_x)
    return complex(total)


def fejer_value(structure: GroupStructure, n: int, x: int) -> complex:
    """K_n(x) looked up from a stored 1-D kernel table."""
    table = structure.table(("fejer", n), lambda: fejer_kernel_1d(structure, n).values)
    return complex(table[x])


# -- estimate majorants ----------------------------------------------------------


def block_shift_majorant(
    structure: GroupStructure, A: int, x: int, *, include_diagonal_shift: bool = True
) -> float:
    """Shifted block-kernel majorant for |K_{M_A}(x)|:

        sum_{s<=S} (M_s / M_A) sum_{x_s=1}^{m_s-1} D_{M_A}(x - x_s e_s)

    with S = A when ``include_diagonal_shift`` (the s = A shifts land inside
    I_A, covering x = 0) and S = A - 1 otherwise.  The two conventions are
    reported side by side by the scans.
    """
    if not 0 <= A <= structure.depth:
        raise ValueError(f"block level {A} not in [0, {structure.depth}]")
    s_top = A if include_diagonal_shift else A - 1
    s_top = min(s_top, structure.depth - 1)
    MA = structure.orders[A]
    total = 0.0
    for s in range(s_top + 1):
        weight = structure.orders[s] / MA
        for xs in range(1, structure.radices[s]):
            z = structure.sub(x, xs * structure.orders[s])
            total += weight * float(block_dirichlet(structure, A, z))
    return total


def scale_sum_majorant(structure: GroupStructure, n: int, x: int) -> float:
    """Block Fejer majorant for n |K_n(x)|: sum_{j<=A} M_j |K_{M_j}(x)|."""
    A = structure.index_order(n)
    total = 0.0
    for j in range(A + 1):
        Mj = structure.orders[j]
        total += Mj * abs(fejer_value(structure, Mj, x))
    return total


def double_shift_majorant(structure: GroupStructure, n: int, x: int) -> float:
    """Doubly-indexed shift majorant for n |K_n(x)|:

        sum_{j<=A} sum_{s<=j} M_s sum_{x_s} D_{M_j}(x - x_s e_s)

    evaluated in both summation orders (they agree by Fubini; an assertion
    guards the reordering).
    """
    A = structure.index_order(n)
    first = 0.0
    for j in range(A + 1):
        for s in range(min(j, structure.depth - 1) + 1):
            Ms = structure.orders[s]
            for xs in range(1, structure.radices[s]):
                z = structure.sub(x, xs * structure.orders[s])
                first += Ms * float(block_dirichlet(structure, j, z))
    second = 0.0
    for s in range(min(A, structure.depth - 1) + 1):
        Ms = structure.orders[s]
        for j in range(s, A + 1):
            for xs in range(1, structure.radices[s]):
                z = structure.sub(x, xs * structure.orders[s])
                second += Ms * float(block_dirichlet(structure, j, z))
    if abs(first - second) > 1e-9 * max(1.0, abs(first)):
        raise AssertionError("summation reorderings disagree")
    return first


def kernel_majorant_2d(structure: GroupStructure, n: int, x: int, y: int) -> float:
    """Four-sum majorant for n |K_n(x, y)| with r-weights and block shifts."""
    A = structure.index_order(n)
    w = structure.add(x, y)
    total = 0.0
    # two r-weighted groups: shifts on one axis, plain block kernel on the other
    for j in range(A + 1):
        for q in range(j):
            Mq = structure.orders[q]
            for k in range(q, j):
                r = r_factor_table(structure, k + 1, j - 1)[w]
                if r == 0.0:
                    continue
                Dx = float(block_dirichlet(structure, k, x))
                Dy = float(block_dirichlet(structure, k, y))
                shift_y = sum(
                    float(block_dirichlet(structure, k, structure.sub(y, yq * Mq)))
                    for yq in range(1, structure.radices[q])
                )
                shift_x = sum(
                    float(block_dirichlet(structure, k, structure.sub(x, xq * Mq)))
                    for xq in range(1, structure.radices[q])
                )
                total += r * Mq * (Dx * shift_y + Dy * shift_x)
    # two boundary groups: block kernel at level j on one axis, single-shift
    # majorant blocks on the other
    for j in range(A + 1):
        Djx = float(block_dirichlet(structure, j, x))
        Djy = float(block_dirichlet(structure, j, y))
        if Djx == 0.0 and Djy == 0.0:
            continue
        for s in range(min(j, structure.depth - 1) + 1):
            Ms = structure.orders[s]
            for i in range(s, j + 1):
                shift_y = sum(
                    float(block_dirichlet(structure, i, structure.sub(y, ys * Ms)))
                    for ys in range(1, structure.radices[s])
                )
                shift_x = sum(
                    float(block_dirichlet(structure, i, structure.sub(x, xs * Ms)))
                    for xs in range(1, structure.radices[s])
                )
                total += Ms * (Djx * shift_y + Djy * shift_x)
    return total


# -- scans ------------------------------------------------------------------------


def _ratio_row(order: int, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> dict:
    positive = rhs > 0
    ratios = lhs[positive] / rhs[positive]
    mismatches = int(np.count_nonzero(lhs[~positive] > tol))
    return {
        "n": int(order),
        "max_ratio": float(ratios.max()) if ratios.size else 0.0,
        "zero_mismatches": mismatches,
    }


def estimate_scan(
    structure: GroupStructure,
    estimate: str,
    *,
    tol: float = 1e-9,
    include_diagonal_shift: bool = True,
) -> EstimateReport:
    """Exhaustive LHS/RHS ratio scan for one estimate over all grid points.

    Orders run over A in [1, L-1] for est1 and n in [1, M_L) for the others,
    so every shifted block kernel stays representable on the truncated grid.
    """
    report = EstimateReport(estimate, structure.radices, structure.depth)
    size = structure.size
    xs = np.arange(size)
    if estimate == "est1":
        for A in range(1, structure.depth):
            lhs = np.abs(
                np.array([fejer_value(structure, structure.orders[A], x) for x in xs])
            )
            rhs = np.array(
                [
                    block_shift_majorant(structure, A, x, include_diagonal_shift=include_diagonal_shift)
                    for x in xs
                ]
            )
            report.per_order.append(_ratio_row(A, lhs, rhs, tol))
        return report
    if estimate == "est2":
        for n in range(1, size):
            lhs = n * np.abs(fejer_kernel_1d(structure, n).values)
            rhs = np.array([scale_sum_majorant(structure, n, x) for x in xs])
            report.per_order.append(_ratio_row(n, lhs, rhs, tol))
        return report
    if estimate == "fejer":
        for n in range(1, size):
            lhs = n * np.abs(fejer_kernel_1d(structure, n).values)
            rhs = np.array([double_shift_majorant(structure, n, x) for x in xs])
            report.per_order.append(_ratio_row(n, lhs, rhs, tol))
        return report
    if estimate == "lemma2":
        for n in range(1, size):
            lhs = n * np.abs(marcinkiewicz_kernel(structure, n).values)
            rhs = np.array(
                [[kernel_majorant_2d(structure, n, x, y) for y in xs] for x in xs]
            )
            report.per_order.append(_ratio_row(n, lhs.ravel(), rhs.ravel(), tol))
        return report
    raise ValueError(f"unknown estimate id {estimate!r}")
