"""Reference routes, kept on purpose to check the fast ones.

Each function here computes what a fast route computes, by the definition
and without the fast route's machinery, so an agreement between the two is
a real check:

  naive_forward, naive_inverse  the full character table, for the blocked
                                transforms ``forward`` and ``inverse``
  naive_convolve                direct summation, for the spectral ``convolve``
  v_component, v_maximal        the V terms summed point by point, for
                                ``v_component_grid`` and ``v_sup_grid``, and
                                the V side of W = sum V against ``_w_values``
  maximal_function              coset averages at one point, for
                                ``maximal_function_grid``

None of them reads a fast route, and no package route reads them: the CLI
(its verification suites and transform-bench) and the tests do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import character_table
from .group import check_int
from .kernels import r_factor_table
from .operators import _component_terms, _outer_add
from .sampled import SampledFunction, Spectrum, require_arity, require_same_structure


# -- transforms ----------------------------------------------------------------------


def naive_forward(f: SampledFunction) -> Spectrum:
    """Direct O(M_L^2) analysis through the full character table; the oracle
    of ``transform.forward``."""
    structure = f.structure
    table = character_table(structure).conj()
    n = structure.size
    if f.arity == 1:
        coeffs = table @ f.values / n
    else:
        coeffs = table @ f.values @ table.T / n**2
    return Spectrum(structure, coeffs)


def naive_inverse(spectrum: Spectrum) -> SampledFunction:
    """Direct synthesis through the full character table; the oracle of
    ``transform.inverse``."""
    structure = spectrum.structure
    table = character_table(structure)
    if spectrum.arity == 1:
        values = spectrum.coefficients @ table
    else:
        values = table.T @ spectrum.coefficients @ table
    return SampledFunction(structure, values)


def naive_convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Direct summation convolution, O(M_L^2) in 1-D and O(M_L^4) in 2-D; the
    oracle of ``transform.convolve``."""
    require_same_structure(f, g)
    structure = f.structure
    n = structure.size
    idx = np.arange(n)
    if f.arity == 1:
        out = np.zeros(n, dtype=np.complex128)
        for t in range(n):
            out += f.values[t] * g.values[structure.sub(idx, t)]
        return SampledFunction(structure, out / n)
    out = np.zeros((n, n), dtype=np.complex128)
    sub = np.stack([structure.sub(idx, t) for t in range(n)], axis=1)  # sub[x, t]
    for t in range(n):
        rows = g.values[sub[:, t]]  # rows[x, u'] = g[x - t, u']
        gathered = rows[:, sub]  # gathered[x, y, u] = g[x - t, y - u]
        out += np.tensordot(gathered, f.values[t], axes=([2], [0]))
    return SampledFunction(structure, out / n**2)


# -- the majorant components ------------------------------------------------------


def v_component(f: SampledFunction, x: int, y: int, n: int, comp: int) -> complex:
    """One majorant component V_n^(comp) f(x, y), evaluated verbatim.

    It sums the terms that define V at one point; ``v_component_grid`` and
    ``v_sup_grid`` convolve with the kernels built from the same terms on a
    quotient, and ``w_operator_2d`` reaches W = sum_c V^(c) through its own
    kernel, so this route checks both.
    """
    require_arity(f, 2, "v_component")
    structure = f.structure
    n = check_int("order", n, 0, structure.depth)
    structure.check_points(x, y)
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
    """Per-order component values at a point and the supremum of their sums."""

    x: int
    y: int
    orders: tuple[int, ...]
    components: np.ndarray  # (len(orders), 4) complex
    totals: np.ndarray  # (len(orders),) complex
    total_sup: float


def v_maximal(f: SampledFunction, x: int, y: int) -> OperatorProfile:
    """V f = sup_{1<=n<=L} |V_n f| with the per-order components alongside,
    from ``v_component``; the pointwise route of ``v_sup_grid``."""
    require_arity(f, 2, "v_maximal")
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
        total_sup=float(np.abs(totals).max()),
    )


# -- martingale maximal function ----------------------------------------------------


def maximal_function(f: SampledFunction, x: int, y: int) -> float:
    """Pointwise martingale maximal function, averaging f over each
    I_n(x) x I_n(y); the oracle of ``maximal_function_grid``."""
    require_arity(f, 2, "maximal_function")
    structure = f.structure
    structure.check_points(x, y)
    best = 0.0
    for n in range(structure.depth + 1):
        rows = structure.interval_indices(n, x)
        cols = structure.interval_indices(n, y)
        best = max(best, abs(f.values[np.ix_(rows, cols)].mean()))
    return float(best)
