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

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import block_dirichlet, character_table
from .group import GroupStructure, check_int

ESTIMATE_IDS = ("est1", "est2", "fejer", "lemma2")


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


def _kernel_sums(structure: GroupStructure):
    """Yield (n, n K_n) of the 2-D kernel for n = 1 .. M_L - 1 by running sums.

    ``n K_n`` is ``sum_{k<n} D_k (x) D_k``.  Each step adds one character row
    to ``D`` and one outer product to the sum, in the order the cumsum of
    ``_dirichlet_stack`` adds the rows.  The yielded array is updated in
    place by the next step.  The 1-D sums are taken a block of orders at a
    time by ``_fejer_sum_blocks``.
    """
    table = character_table(structure)
    dirichlet = np.zeros(structure.size, dtype=np.complex128)
    total = np.zeros((structure.size,) * 2, dtype=np.complex128)
    for n in range(1, structure.size):
        if n > 1:
            dirichlet += table[n - 2]  # D_{n-1} = D_{n-2} + psi_{n-2}
        total += np.multiply.outer(dirichlet, dirichlet)
        yield n, total


# most bytes one block of the 1-D walk holds, its carried row included
WALK_BLOCK_BYTES = 4 * 2**20


def _fejer_sum_blocks(structure: GroupStructure):
    """Yield (orders, sums) for n = 1 .. M_L - 1, a block of orders at a
    time; row i of ``sums`` is ``n K_n = sum_{k<n} D_k`` of the 1-D kernel
    at ``n = orders[i]``.

    Blocks never straddle an order level, and a level takes as many blocks
    as keep each within ``WALK_BLOCK_BYTES`` (one order per block if a row
    alone is larger), so memory stays O(M_L) rows of M_L values, not the
    O(M_L^2) of a whole level.  The rows ``D_{n-1}`` are a sequential
    ``cumsum`` of character rows that continues the previous block's last
    ``D``, and ``S_n`` a second ``cumsum`` of those rows that continues the
    last ``S``: the terms are added one at a time in the order of
    ``fejer_kernel_1d``, so every sum is the kernel's to the last bit.
    """
    table = character_table(structure)
    size = structure.size
    step = max(1, WALK_BLOCK_BYTES // (table.itemsize * size) - 1)
    dirichlet = np.zeros(size, dtype=np.complex128)
    total = np.zeros(size, dtype=np.complex128)
    for A in range(structure.depth):
        for start in range(structure.orders[A], structure.orders[A + 1], step):
            stop = min(start + step, structure.orders[A + 1])
            block = np.empty((stop - start + 1, size), dtype=np.complex128)
            # D_{n-1} = D_{n-2} + psi_{n-2}; at n = 1 nothing is added to D_0 = 0
            block[0] = dirichlet
            first = max(start, 2)
            block[1 : first - start + 1] = 0.0
            block[first - start + 1 :] = table[first - 2 : stop - 2]
            np.cumsum(block, axis=0, out=block)
            dirichlet = block[-1].copy()
            block[0] = total  # S_n = S_{n-1} + D_{n-1}
            np.cumsum(block, axis=0, out=block)
            total = block[-1].copy()
            yield np.arange(start, stop), block[1:]


def check_index_base(index_base: int) -> int:
    """The summation convention, k in [0, n) (0) or [1, n] (1); anything
    else is rejected."""
    return check_int("index_base", index_base, 0, 1)


def fejer_kernel_1d(structure: GroupStructure, n: int, index_base: int = 0) -> np.ndarray:
    """K_n(x) = (1/n) sum D_k(x), k running over [base, n + base)."""
    n = check_int("kernel order", n, 1, structure.size)
    index_base = check_index_base(index_base)
    stack = _dirichlet_stack(structure, n + index_base)
    return stack[index_base:].sum(axis=0) / n


def marcinkiewicz_kernel(structure: GroupStructure, n: int, index_base: int = 0) -> np.ndarray:
    """K_n(x, y) = (1/n) sum D_k(x) D_k(y), k running over [base, n + base)."""
    n = check_int("kernel order", n, 1, structure.size)
    index_base = check_index_base(index_base)
    stack = _dirichlet_stack(structure, n + index_base)[index_base:]
    return np.einsum("kx,ky->xy", stack, stack) / n


# -- the coupling factor r ------------------------------------------------------


def _check_factor_range(structure: GroupStructure, i: int, n: int) -> None:
    # i > n is the empty product, named by at most [L, L - 1] and at least
    # [0, -1]; these bounds keep every range that is not empty inside [0, L)
    check_int("factor start i", i, 0, structure.depth)
    check_int("factor end n", n, -1, structure.depth - 1)


def r_factor(structure: GroupStructure, i: int, n: int, x, y):
    """Product definition of r_{i,n}(x, y); the empty product (i > n) is 1.

    ``x`` and ``y`` are point indices or index arrays that broadcast.
    """
    _check_factor_range(structure, i, n)
    digits = structure.digit_table[structure.add(x, y)]
    values = np.ones(digits.shape[:-1], dtype=np.complex128)
    for l in range(i, n + 1):
        m = structure.radices[l]
        root = structure.root_tables[l]
        values *= sum(root[(s * digits[..., l]) % m] for s in range(m))
    return values[()]


def rademacher_power_sum(structure: GroupStructure, n: int, x):
    """sum_{i=0}^{m_n - 1} r_n(x)^i, which is m_n when x_n = 0 and 0 otherwise.

    This is the one-factor coupling product r_{n,n}(x, 0).
    """
    return r_factor(structure, n, n, x, 0)


def r_factor_closed(structure: GroupStructure, i: int, n: int, x, y):
    """Closed form: m_i ... m_n when digits i..n of x + y vanish, else 0.

    ``x`` and ``y`` are point indices or index arrays that broadcast.
    """
    return r_factor_table(structure, i, n)[structure.add(x, y)]


def r_factor_table(structure: GroupStructure, i: int, n: int) -> np.ndarray:
    """r_{i,n} as a function of w = x + y, tabulated over the grid.

    Uses the closed form (exact zeros); stored on the structure.  Its
    support, ``r_factor_table(...) > 0``, is the indicator that digits i..n
    of w all vanish.
    """
    _check_factor_range(structure, i, n)
    if i > n:
        return np.ones(structure.size)

    def build() -> np.ndarray:
        Mi, Mn1 = structure.orders[i], structure.orders[n + 1]
        w = np.arange(structure.size)
        mask = (w % Mn1) < Mi  # digits i..n of w vanish iff w mod M_{n+1} < M_i
        return np.where(mask, float(Mn1 // Mi), 0.0)

    return structure.table(("r", i, n), build)


# -- block decomposition of M_A K_{M_A} -----------------------------------------


def kernel_decomposition_rhs(structure: GroupStructure, A: int, x, y):
    """Right-hand side of the block decomposition of M_A K_{M_A}(x, y).

    Three groups per level k < A: the D_{M_k}(x) D_{M_k}(y) group weighted by
    M_k, and the two mixed groups pairing D_{M_k} on one axis with
    M_k K_{M_k} on the other; all weighted by r_{k+1,A-1}(x, y).  ``x`` and
    ``y`` are point indices or index arrays that broadcast.
    """
    A = check_int("block level", A, 1, structure.depth)
    w = structure.add(x, y)
    total = 0.0
    for k in range(A):
        r = r_factor_table(structure, k + 1, A - 1)[w]
        base_x = structure.root_tables[k][structure.digit_table[x, k]]
        base_y = structure.root_tables[k][structure.digit_table[y, k]]
        # prefix_r = sum_{q<r} psi_{M_k}^q evaluated by cumulative powers; these
        # rebind rather than update in place, since their broadcast shapes grow
        # and pow_x starts out as base_x itself
        s1 = s2 = s3 = 0.0
        px = py = 1.0  # prefix sums for r = 1
        pow_x, pow_y = base_x, base_y
        for _ in range(1, structure.radices[k]):
            s1 = s1 + px * py
            s2 = s2 + px * pow_y
            s3 = s3 + py * pow_x
            px = px + pow_x
            py = py + pow_y
            pow_x = pow_x * base_x
            pow_y = pow_y * base_y
        Dx = block_dirichlet(structure, k, x)
        Dy = block_dirichlet(structure, k, y)
        Mk = structure.orders[k]
        MkK_x = Mk * _fejer_table(structure, Mk)[x]
        MkK_y = Mk * _fejer_table(structure, Mk)[y]
        total += r * (Mk * s1 * Dx * Dy + s2 * Dx * MkK_y + s3 * Dy * MkK_x)
    return total


def _fejer_table(structure: GroupStructure, n: int) -> np.ndarray:
    return structure.table(("fejer", n), lambda: fejer_kernel_1d(structure, n))


# -- estimate majorants ----------------------------------------------------------
#
# Each majorant takes a point index or index arrays that broadcast against each
# other, and sums the same terms in the same order at every element, so an
# array call equals the scalar calls at its elements to the last bit.  Terms
# that vanish at a point are added as exact zeros, which leave a non-negative
# total unchanged.  Each majorant checks its points at entry, directly or
# through the first ``GroupStructure.add`` it makes.
#
# A shifted block kernel needs no digit arithmetic.  z - k e_s lies in I_l iff
# the digits of z below l are those of k e_s below l: for s < l that is
# z mod M_l = k M_s, and for s >= l the shift leaves those digits alone, so it
# is z mod M_l = 0.


def _shift_block_sum(structure: GroupStructure, level: int, s: int, z):
    """sum_{k=1}^{m_s-1} D_{M_level}(z - k e_s) in closed form.

    For s < level at most one shift lands z in I_level, the one that clears
    digit s, so the sum is M_level where z mod M_level is a nonzero multiple
    k M_s below M_{s+1}.  For s >= level the m_s - 1 terms are equal.  Either
    way the sum of the terms is exact.
    """
    Ml, Ms = structure.orders[level], structure.orders[s]
    residue = np.asarray(z) % Ml
    if s < level:
        hit = (residue % Ms == 0) & (residue >= Ms) & (residue < structure.orders[s + 1])
        out = np.where(hit, float(Ml), 0.0)
    else:
        out = np.where(residue == 0, float((structure.radices[s] - 1) * Ml), 0.0)
    return out if out.ndim else float(out)


def block_shift_majorant(
    structure: GroupStructure, A: int, x: int | np.ndarray, *, include_diagonal_shift: bool = True
) -> float | np.ndarray:
    """Shifted block-kernel majorant for |K_{M_A}(x)|:

        sum_{s<=S} (M_s / M_A) sum_{x_s=1}^{m_s-1} D_{M_A}(x - x_s e_s)

    with S = A when ``include_diagonal_shift`` (the s = A shifts land inside
    I_A, covering x = 0) and S = A - 1 otherwise.  The two conventions are
    reported side by side by the scans.
    """
    A = check_int("block level", A, 0, structure.depth)
    structure.check_points(x)
    s_top = A if include_diagonal_shift else A - 1
    s_top = min(s_top, structure.depth - 1)
    # zeros shaped like x, so a sum without terms is an array for an array x
    total = np.zeros(np.shape(x))[()]
    for s in range(s_top + 1):
        total += structure.orders[s] / structure.orders[A] * _shift_block_sum(structure, A, s, x)
    return total


def scale_sum_majorant(
    structure: GroupStructure, n: int, x: int | np.ndarray
) -> float | np.ndarray:
    """Block Fejer majorant for n |K_n(x)|: sum_{j<=A} M_j |K_{M_j}(x)|."""
    structure.check_points(x)
    A = structure.index_order(n)
    total = 0.0
    for j in range(A + 1):
        Mj = structure.orders[j]
        K = _fejer_table(structure, Mj)[x]
        # hypot is the modulus Python's abs(complex) computes; np.abs may
        # differ from it in the last bit
        total += Mj * np.hypot(K.real, K.imag)
    return total


def double_shift_majorant(
    structure: GroupStructure, n: int, x: int | np.ndarray
) -> float | np.ndarray:
    """Doubly-indexed shift majorant for n |K_n(x)|:

        sum_{j<=A} sum_{s<=j} M_s sum_{x_s} D_{M_j}(x - x_s e_s)

    evaluated in both summation orders (they agree by Fubini; an assertion
    guards the reordering at every point).
    """
    structure.check_points(x)
    A = structure.index_order(n)
    s_top = min(A, structure.depth - 1)
    # each term M_s sum_{x_s} D_{M_j}(x - x_s e_s) is evaluated once, then added
    # in both orders; the terms are whole numbers, so both sums are exact
    terms = {
        (j, s): structure.orders[s] * _shift_block_sum(structure, j, s, x)
        for s in range(s_top + 1)
        for j in range(s, A + 1)
    }
    first = 0.0
    for j in range(A + 1):
        for s in range(min(j, structure.depth - 1) + 1):
            first += terms[j, s]
    second = 0.0
    for s in range(s_top + 1):
        for j in range(s, A + 1):
            second += terms[j, s]
    if np.any(np.abs(first - second) > 1e-9 * np.maximum(1.0, np.abs(first))):
        raise AssertionError("summation reorderings disagree")
    return first


def kernel_majorant_2d(
    structure: GroupStructure, n: int, x: int | np.ndarray, y: int | np.ndarray
) -> float | np.ndarray:
    """Four-sum majorant for n |K_n(x, y)| with r-weights and block shifts."""
    A = structure.index_order(n)
    w = structure.add(x, y)
    Dx = [block_dirichlet(structure, k, x) for k in range(A + 1)]
    Dy = [block_dirichlet(structure, k, y) for k in range(A + 1)]
    shift_sums: dict = {}

    def shift_sum(level: int, s: int, axis: int):
        # sum_{z_s=1}^{m_s-1} D_{M_level}(z - z_s e_s) with z = (x, y)[axis];
        # a (level, s) pair recurs across the blocks j of both groups, so it
        # is summed once
        key = (level, s, axis)
        if key not in shift_sums:
            shift_sums[key] = _shift_block_sum(structure, level, s, (x, y)[axis])
        return shift_sums[key]

    total = 0.0
    # two r-weighted groups: shifts on one axis, plain block kernel on the other
    for j in range(A + 1):
        for q in range(j):
            Mq = structure.orders[q]
            for k in range(q, j):
                r = r_factor_table(structure, k + 1, j - 1)[w]
                shift_y, shift_x = shift_sum(k, q, 1), shift_sum(k, q, 0)
                total += r * Mq * (Dx[k] * shift_y + Dy[k] * shift_x)
    # two boundary groups: block kernel at level j on one axis, single-shift
    # majorant blocks on the other
    for j in range(A + 1):
        for s in range(min(j, structure.depth - 1) + 1):
            Ms = structure.orders[s]
            for i in range(s, j + 1):
                shift_y, shift_x = shift_sum(i, s, 1), shift_sum(i, s, 0)
                total += Ms * (Dx[j] * shift_y + Dy[j] * shift_x)
    return total


# -- scans ------------------------------------------------------------------------


def _ratio_rows(rhs: np.ndarray, tol: float):
    """Row builder for the orders of one level, which share the RHS: its
    support and the points off it are taken once.  The builder takes a block
    of orders and their left sides, one flattened grid per row, and reduces
    the block along its rows."""
    rhs = rhs.ravel()
    support = rhs > 0
    positive, vanishing = support.nonzero()[0], (~support).nonzero()[0]
    rhs_positive = rhs[positive]

    def rows(orders, lhs: np.ndarray) -> list[dict]:
        ratios = lhs.take(positive, axis=1)
        ratios /= rhs_positive
        maxima = ratios.max(axis=1).tolist() if positive.size else [0.0] * len(lhs)
        # a sum of booleans along a row is its count of nonzeros
        counts = (lhs.take(vanishing, axis=1) > tol).sum(axis=1).tolist()
        return [
            {"n": int(n), "max_ratio": m, "zero_mismatches": c}
            for n, m, c in zip(orders, maxima, counts)
        ]

    return rows


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
    A majorant depends on n only through its level A = |n|, so each is
    evaluated once per level, on the whole grid at once.  ``tol``, the LHS
    above which a point where the RHS vanishes counts as a mismatch, must be
    finite and non-negative.  ``include_diagonal_shift=False`` drops the
    diagonal shift from est1's majorant; the other estimates do not read the
    flag and reject it.

    The left sides n |K_n| come from walks over the orders that keep the
    running sum S_n = n K_n, in place of a kernel rebuilt per order.  Each
    left side is ``n * |S_n / n|``, as the kernels give it: they divide the
    same sum by n, and ``n * (S / n)`` need not be S to the last bit.  In 1-D
    (est2, fejer) the walk takes a block of orders at a time
    (``_fejer_sum_blocks``): two sequential cumsums add the rows in the
    kernels' order, so each left side equals ``n * |fejer_kernel_1d(n)|`` bit
    for bit, and one block holds at most ``WALK_BLOCK_BYTES``, so memory
    grows with M_L, not M_L^2.  In 2-D (lemma2) the walk steps one order at a
    time (``_kernel_sums``), since one order's grid is already M_L^2 values;
    the einsum of ``marcinkiewicz_kernel`` groups its terms differently, so
    grid values may differ in the last bits; the rows are the rebuilt
    kernels' through (2,3) depth 5, and 17 of the 215 lemma2 rows at depth 6
    differ in the last bit.

    Every majorant takes its shifted block kernels in closed form
    (``_shift_block_sum``), with no digit arithmetic.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if not include_diagonal_shift and estimate != "est1":
        raise ValueError(f"include_diagonal_shift=False applies to est1 only, not {estimate!r}")
    report = EstimateReport(estimate, structure.radices, structure.depth)
    xs = np.arange(structure.size)
    level_starts = set(structure.orders)
    if estimate == "est1":
        for A in range(1, structure.depth):
            lhs = np.abs(_fejer_table(structure, structure.orders[A]))
            rhs = block_shift_majorant(
                structure, A, xs, include_diagonal_shift=include_diagonal_shift
            )
            report.per_order += _ratio_rows(rhs, tol)([A], lhs[None])
    elif estimate in ("est2", "fejer"):
        majorant = scale_sum_majorant if estimate == "est2" else double_shift_majorant
        for orders, sums in _fejer_sum_blocks(structure):
            if orders[0] in level_starts:
                rows = _ratio_rows(majorant(structure, orders[0], xs), tol)
            n = orders[:, None]
            report.per_order += rows(orders, n * np.abs(sums / n))
    elif estimate == "lemma2":
        grid = (xs[:, None], xs[None, :])
        for n, total in _kernel_sums(structure):
            if n in level_starts:
                rows = _ratio_rows(kernel_majorant_2d(structure, n, *grid), tol)
            report.per_order += rows([n], (n * np.abs(total / n)).reshape(1, -1))
    else:
        raise ValueError(f"unknown estimate id {estimate!r}")
    return report
