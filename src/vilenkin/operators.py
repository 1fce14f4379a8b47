"""Localized-oscillation operators, their nonnegative-kernel majorant
components, the maximal operators, and Lebesgue-point classification.

The 1-D operator W_A integrates |f(t) - f(x)| over the intervals
I_A(x - r_s e_s) with weights M_s.  The 2-D operator W_j has four sums: two
r-weighted sums over coset pairs I_k x I_k(shift), with the coupling factor
evaluated verbatim as the product of Rademacher power sums, and two
boundary sums over I_j x I_i(shift) pairs.

The components V_n^(1..4) re-express the same geometry with indicator
weights instead of the r product, applied to f itself:

  V^(1)  first-axis digit shifts over I_k(t_q e_q) x I_k
  V^(2)  second-axis digit shifts over I_k x I_k(u_q e_q)
  V^(3)  boundary sums over I_i(t_s e_s) x I_n (first axis shifted)
  V^(4)  boundary sums over I_n x I_i(u_s e_s) (first axis localized)

A shifted coset I_k(u_q e_q) pins digit q only when q < k; when the shift
position coincides with the coset level the notation pins nothing.  Here
the shifted digit is always pinned (the q = k domains are read at level
k + 1), so the shift information is never silently lost.  That reading is
what makes the region-wise vanishing patterns on atoms exact: components
3-4 vanish off the support square in both axes, components 2 and 4 vanish
when only the first axis leaves the support, and components 1 and 3 vanish
in the mirrored case.

For every f, point, and order the exact equivalence

  W_n(x, y; f) = sum_i V_n^(i)(|f - f(x,y)|)(x, y)

holds because the r product equals (M_n / M_{k+1}) times the digit-sum
indicator.  Both sides are evaluated by independent routes here so the
equivalence stays a real check.

Shift positions beyond the truncation depth (the s = L boundary terms at
order L) are dropped; for grid-resolved functions those terms integrate a
difference over a single-coset sweep and vanish identically.

Everything is pure and per-point evaluations are independent, so callers
may parallelize over points freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .group import GroupStructure
from .kernels import r_factor_table
from .sampled import SampledFunction
from .transform import convolve

__all__ = [
    "LebesgueReport",
    "OperatorProfile",
    "classify_point",
    "lebesgue_reports",
    "maximal_function",
    "maximal_function_grid",
    "v_component",
    "v_component_grid",
    "v_kernel_table",
    "v_maximal",
    "v_sup_grid",
    "w_operator_1d",
    "w_operator_2d",
    "w_sequence",
]


# -- shared index helpers -------------------------------------------------------


def _check_points(structure: GroupStructure, *indices: int) -> None:
    for i in indices:
        if not 0 <= int(i) < structure.size:
            raise ValueError(f"point index {i} not in [0, {structure.size})")


def _shift_level(level: int, pos: int) -> int:
    """Coset level that actually pins the shifted digit at ``pos``."""
    return level if pos < level else level + 1


def _outer_add(structure: GroupStructure, kt: int, bt: int, ku: int, bu: int) -> np.ndarray:
    """Stored table of t + u over I_kt(bt) x I_ku(bu)."""
    bt, bu = bt % structure.orders[kt], bu % structure.orders[ku]
    return structure.table(
        ("outer_add", kt, bt, ku, bu),
        lambda: structure.add_outer(
            structure.interval_indices(kt, bt), structure.interval_indices(ku, bu)
        ),
    )


def _r_product_table(structure: GroupStructure, i: int, n: int) -> np.ndarray:
    """r_{i,n} over the grid, evaluated verbatim as a product of power sums."""
    if i > n:
        return np.ones(structure.size, dtype=np.complex128)

    def build() -> np.ndarray:
        values = np.ones(structure.size, dtype=np.complex128)
        for l in range(i, n + 1):
            m = structure.radices[l]
            digit = structure.digit_table[:, l]
            root = structure.root_tables[l]
            power_sum = np.zeros(structure.size, dtype=np.complex128)
            for s in range(m):
                power_sum += root[(s * digit) % m]
            values *= power_sum
        return values

    return structure.table(("r_product", i, n), build)


# -- the oscillation operators ---------------------------------------------------


def w_operator_1d(f: SampledFunction, x: int, A: int) -> float:
    """W_A f(x) = sum_{s<A} M_s sum_{r_s} integral over I_A(x - r_s e_s) of
    |f(t) - f(x)| dmu(t)."""
    if f.arity != 1:
        raise ValueError("w_operator_1d needs a 1-D sample")
    structure = f.structure
    if not 0 <= A <= structure.depth:
        raise ValueError(f"order {A} not in [0, {structure.depth}]")
    _check_points(structure, x)
    absdiff = np.abs(f.values - f.values[x])
    total = 0.0
    for s in range(A):
        Ms = structure.orders[s]
        for rs in range(1, structure.radices[s]):
            center = structure.sub(x, rs * Ms)
            total += Ms * absdiff[structure.interval_indices(A, center)].sum() / structure.size
    return float(total)


def _w_value(
    structure: GroupStructure, absdiff: np.ndarray, x: int, y: int, j: int
) -> float:
    size = structure.size
    total = 0.0
    # two r-weighted sums over I_k x I_k(shift) coset pairs
    inv_Mj = 1.0 / structure.orders[j]
    for q in range(j):
        Mq = structure.orders[q]
        for k in range(q, j):
            Mk = structure.orders[k]
            weight = inv_Mj * Mq * Mk**2 / size**2
            r_table = _r_product_table(structure, k + 1, j - 1)
            T_plain = structure.interval_indices(k)
            subx_plain = structure.sub(x, T_plain)
            level = _shift_level(k, q)
            for shift in range(1, structure.radices[q]):
                base = shift * Mq
                U = structure.interval_indices(level, base)
                suby = structure.sub(y, U)
                r_grid = r_table[_outer_add(structure, k, 0, level, base)]
                # u-shifted: integral over I_k x I_k(u_q e_q)
                block = absdiff[np.ix_(subx_plain, suby)] * r_grid
                total += weight * block.sum().real
                # t-shifted: integral over I_k(t_q e_q) x I_k
                subx = structure.sub(x, U)
                suby_plain = structure.sub(y, T_plain)
                r_grid_t = r_table[_outer_add(structure, level, base, k, 0)]
                block = absdiff[np.ix_(subx, suby_plain)] * r_grid_t
                total += weight * block.sum().real.real
    # two boundary sums over I_j x I_i(shift) pairs
    T_j = structure.interval_indices(j)
    subx_j = structure.sub(x, T_j)
    suby_j = structure.sub(y, T_j)
    for s in range(min(j, structure.depth - 1) + 1):
        Ms = structure.orders[s]
        for i in range(s, j + 1):
            Mi = structure.orders[i]
            weight = Ms * Mi / size**2
            level = _shift_level(i, s)
            for shift in range(1, structure.radices[s]):
                U = structure.interval_indices(level, shift * Ms)
                suby = structure.sub(y, U)
                total += weight * absdiff[np.ix_(subx_j, suby)].sum()
                subx = structure.sub(x, U)
                total += weight * absdiff[np.ix_(subx, suby_j)].sum()
    return float(total)


def w_operator_2d(f: SampledFunction, x: int, y: int, j: int) -> float:
    """The 2-D localized-oscillation operator W_j(x, y; f)."""
    if f.arity != 2:
        raise ValueError("w_operator_2d needs a 2-D sample")
    structure = f.structure
    if not 0 <= j <= structure.depth:
        raise ValueError(f"order {j} not in [0, {structure.depth}]")
    _check_points(structure, x, y)
    absdiff = np.abs(f.values - f.values[x, y])
    return _w_value(structure, absdiff, x, y, j)


def w_sequence(f: SampledFunction, x: int, y: int) -> np.ndarray:
    """W_1 .. W_L at one point (shared |f - f(x,y)| table)."""
    structure = f.structure
    _check_points(structure, x, y)
    absdiff = np.abs(f.values - f.values[x, y])
    return np.array(
        [_w_value(structure, absdiff, x, y, j) for j in range(1, structure.depth + 1)]
    )


# -- the majorant components ------------------------------------------------------


def _component_terms(structure: GroupStructure, n: int, comp: int):
    """Yield (weight, t_level, t_base, u_level, u_base, indicator_lo_hi)."""
    size = structure.size
    if comp in (1, 2):
        for q in range(n):
            Mq = structure.orders[q]
            for k in range(q, n):
                Mk = structure.orders[k]
                weight = Mq * Mk / structure.radices[k]
                level = _shift_level(k, q)
                for shift in range(1, structure.radices[q]):
                    base = shift * Mq
                    if comp == 1:
                        yield weight, level, base, k, 0, (k + 1, n - 1)
                    else:
                        yield weight, k, 0, level, base, (k + 1, n - 1)
        return
    if comp in (3, 4):
        for s in range(min(n, structure.depth - 1) + 1):
            Ms = structure.orders[s]
            for i in range(s, n + 1):
                weight = Ms * structure.orders[i]
                level = _shift_level(i, s)
                for shift in range(1, structure.radices[s]):
                    base = shift * Ms
                    if comp == 3:
                        yield weight, level, base, n, 0, None
                    else:
                        yield weight, n, 0, level, base, None
        return
    raise ValueError(f"component must be 1..4, got {comp}")


def v_component(f: SampledFunction, x: int, y: int, n: int, comp: int) -> complex:
    """One majorant component V_n^(comp) f(x, y), evaluated verbatim."""
    if f.arity != 2:
        raise ValueError("v_component needs a 2-D sample")
    structure = f.structure
    if not 0 <= n <= structure.depth:
        raise ValueError(f"order {n} not in [0, {structure.depth}]")
    _check_points(structure, x, y)
    size = structure.size
    total = 0.0 + 0j
    for weight, kt, bt, ku, bu, ind in _component_terms(structure, n, comp):
        T = structure.interval_indices(kt, bt)
        U = structure.interval_indices(ku, bu)
        block = f.values[np.ix_(structure.sub(x, T), structure.sub(y, U))]
        if ind is not None:
            mask = r_factor_table(structure, *ind)[_outer_add(structure, kt, bt, ku, bu)] > 0
            total += weight * block[mask].sum() / size**2
        else:
            total += weight * block.sum() / size**2
    return complex(total)


@dataclass(frozen=True)
class OperatorProfile:
    """Per-order component values at a point and their truncated suprema."""

    x: int
    y: int
    orders: tuple[int, ...]
    components: np.ndarray  # (len(orders), 4) complex
    totals: np.ndarray  # (len(orders),) complex
    component_sup: np.ndarray  # (4,) float
    total_sup: float


def v_maximal(f: SampledFunction, x: int, y: int) -> OperatorProfile:
    """V f = sup_{1<=n<=L} |V_n f| with the per-component suprema alongside."""
    structure = f.structure
    orders = tuple(range(1, structure.depth + 1))
    comps = np.zeros((len(orders), 4), dtype=np.complex128)
    for row, n in enumerate(orders):
        for c in range(4):
            comps[row, c] = v_component(f, x, y, n, c + 1)
    totals = comps.sum(axis=1)
    return OperatorProfile(
        x=x,
        y=y,
        orders=orders,
        components=comps,
        totals=totals,
        component_sup=np.abs(comps).max(axis=0),
        total_sup=float(np.abs(totals).max()),
    )


# -- grid-wide component evaluation via kernel tables ------------------------------


def v_kernel_table(structure: GroupStructure, n: int, comp: int) -> np.ndarray:
    """The convolution kernel H with V_n^(comp) f = f * H (group convolution).

    H(t, u) accumulates the term weights over the coset-pair domains, with
    the digit-sum indicator thinning the shifted-coset sums.  Stored on the
    structure; cross-checked against the verbatim per-point route in tests.
    """

    def build() -> np.ndarray:
        size = structure.size
        H = np.zeros((size, size), dtype=np.float64)
        for weight, kt, bt, ku, bu, ind in _component_terms(structure, n, comp):
            T = structure.interval_indices(kt, bt)
            U = structure.interval_indices(ku, bu)
            block = np.full((T.size, U.size), float(weight))
            if ind is not None:
                mask = r_factor_table(structure, *ind)[_outer_add(structure, kt, bt, ku, bu)] > 0
                block = block * mask
            H[np.ix_(T, U)] += block
        return H

    return structure.table(("v_kernel", n, comp), build)


def v_component_grid(f: SampledFunction, n: int, comp: int) -> np.ndarray:
    """V_n^(comp) f on the whole grid through the kernel-convolution route."""
    H = v_kernel_table(f.structure, n, comp)
    return convolve(f, SampledFunction(f.structure, H)).values


def v_sup_grid(f: SampledFunction) -> np.ndarray:
    """V f = sup_{1<=n<=L} |V_n f| on the whole grid (components summed first)."""
    structure = f.structure
    out = np.zeros((structure.size, structure.size))
    for n in range(1, structure.depth + 1):
        total = np.zeros((structure.size, structure.size), dtype=np.complex128)
        for comp in range(1, 5):
            total += v_component_grid(f, n, comp)
        out = np.maximum(out, np.abs(total))
    return out


# -- martingale maximal function ----------------------------------------------------


def maximal_function_grid(f: SampledFunction) -> np.ndarray:
    """f*(x, y) = sup_{0<=n<=L} |average of f over I_n(x) x I_n(y)|."""
    if f.arity != 2:
        raise ValueError("maximal_function needs a 2-D sample")
    structure = f.structure
    size = structure.size
    out = np.zeros((size, size))
    for n in range(structure.depth + 1):
        Mn = structure.orders[n]
        reps = size // Mn
        means = f.values.reshape(reps, Mn, reps, Mn).mean(axis=(0, 2))
        out = np.maximum(out, np.abs(np.tile(means, (reps, reps))))
    return out


def maximal_function(f: SampledFunction, x: int, y: int) -> float:
    """Pointwise martingale maximal function."""
    structure = f.structure
    _check_points(structure, x, y)
    best = 0.0
    for n in range(structure.depth + 1):
        rows = structure.interval_indices(n, x)
        cols = structure.interval_indices(n, y)
        best = max(best, abs(f.values[np.ix_(rows, cols)].mean()))
    return float(best)


# -- Lebesgue-point classification ----------------------------------------------------


@dataclass(frozen=True)
class LebesgueReport:
    """W-sequence, companion mean errors, and a convergence verdict at a point."""

    x: int
    y: int
    x_digits: tuple[int, ...]
    y_digits: tuple[int, ...]
    w_values: tuple[float, ...]
    sigma_errors: tuple[float, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "x_digits": list(self.x_digits),
            "y_digits": list(self.y_digits),
            "W": list(self.w_values),
            "sigma_err": list(self.sigma_errors),
            "verdict": self.verdict,
        }


def _verdict(w: Sequence[float], threshold: float, escape_factor: float = 10.0) -> str:
    w = list(w)
    if w[-1] > escape_factor * threshold:
        return "non-converging"
    deep = w[-2:] if len(w) >= 2 else w
    tail = w[-3:]
    nonincreasing = all(tail[i] >= tail[i + 1] - 1e-12 for i in range(len(tail) - 1))
    if all(v < threshold for v in deep) and nonincreasing:
        return "converging"
    return "inconclusive"


def lebesgue_reports(
    f: SampledFunction,
    points: Sequence[tuple[int, int]],
    threshold: float = 0.02,
    escape_factor: float = 10.0,
    index_base: int = 0,
) -> list[LebesgueReport]:
    """Classify several points, sharing the per-order mean tables."""
    from .means import marcinkiewicz_means

    structure = f.structure
    for x, y in points:
        _check_points(structure, x, y)
    sigma_tables = [
        marcinkiewicz_means(f, structure.orders[j], "multiplier", index_base).values
        for j in range(1, structure.depth + 1)
    ]
    reports = []
    for x, y in points:
        w = w_sequence(f, x, y)
        errors = tuple(
            float(abs(table[x, y] - f.values[x, y])) for table in sigma_tables
        )
        reports.append(
            LebesgueReport(
                x=int(x),
                y=int(y),
                x_digits=structure.digits(x),
                y_digits=structure.digits(y),
                w_values=tuple(float(v) for v in w),
                sigma_errors=errors,
                verdict=_verdict(w, threshold, escape_factor),
            )
        )
    return reports


def classify_point(
    f: SampledFunction,
    x: int,
    y: int,
    threshold: float = 0.02,
    escape_factor: float = 10.0,
    index_base: int = 0,
) -> LebesgueReport:
    """W_1..W_L at a point, the companion mean errors, and the verdict."""
    return lebesgue_reports(f, [(x, y)], threshold, escape_factor, index_base)[0]
