"""Rectangular partial sums, Marcinkiewicz-Fejer means, and 1-D Fejer means.

The 2-D mean of order n averages the diagonal (cubic) partial sums.  Two
index conventions are in circulation: sums over j in [0, n-1] (the default,
matching the kernel K_n = (1/n) sum_{k<n} D_k D_k and the convolution
representation) and sums over j in [1, n] (available via ``index_base=1``
for comparison; only under that variant does a constant reproduce itself
exactly).

Three computation routes are kept deliberately distinct so they can check
one another:

  direct      average the masked partial sums S_{j,j}
  multiplier  apply lambda_n(a, b) = max(0, n - 1 - max(a, b) + base)/n to fhat
  kernel      convolve with the 2-D kernel of order n
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupStructure
from .kernels import marcinkiewicz_kernel, fejer_kernel_1d
from .sampled import SampledFunction, Spectrum
from .transform import convolve, forward, inverse

__all__ = [
    "MeansEvaluation",
    "evaluate_means",
    "fejer_means_1d",
    "marcinkiewicz_means",
    "means_error",
    "partial_sum_2d",
    "save_means_evaluation",
    "sigma_multiplier",
]

_METHODS = ("direct", "multiplier", "kernel")


@dataclass(frozen=True, eq=False)
class MeansEvaluation:
    """One mean evaluated by all three routes."""

    order: int
    method: str
    result: SampledFunction
    max_discrepancy: float


def partial_sum_2d(f: SampledFunction, M: int, N: int) -> SampledFunction:
    """Rectangular partial sum S_{M,N} f = sum_{i<M, j<N} fhat(i,j) psi_i psi_j."""
    if f.arity != 2:
        raise ValueError("partial_sum_2d needs a 2-D sample")
    size = f.structure.size
    if not (0 <= M <= size and 0 <= N <= size):
        raise ValueError(f"partial sum orders ({M}, {N}) not in [0, {size}]")
    coeffs = forward(f).coefficients.copy()
    coeffs[M:, :] = 0
    coeffs[:, N:] = 0
    return inverse(Spectrum(f.structure, coeffs))


def sigma_multiplier(structure: GroupStructure, n: int, index_base: int = 0) -> np.ndarray:
    """Spectral multiplier of the order-n mean on coefficient pairs (a, b).

    lambda_n(a, b) counts the diagonal partial sums containing (a, b):
    #{j in [base, n-1+base] : j > max(a, b)} / n.
    """
    if not 1 <= n <= structure.size:
        raise ValueError(f"mean order {n} not in [1, {structure.size}]")
    idx = np.arange(structure.size)
    top = np.maximum.outer(idx, idx)
    counts = np.clip(n - 1 + index_base - top, 0, n)
    return counts / n


def marcinkiewicz_means(
    f: SampledFunction, n: int, method: str = "multiplier", index_base: int = 0
) -> SampledFunction:
    """Order-n Marcinkiewicz-Fejer mean of a 2-D sample by the chosen route."""
    if f.arity != 2:
        raise ValueError("marcinkiewicz_means needs a 2-D sample")
    size = f.structure.size
    if not 1 <= n <= size:
        raise ValueError(f"mean order {n} not in [1, {size}]")
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    if method == "multiplier":
        coeffs = forward(f).coefficients * sigma_multiplier(f.structure, n, index_base)
        return inverse(Spectrum(f.structure, coeffs))
    if method == "direct":
        acc = np.zeros_like(f.values)
        for j in range(index_base, n + index_base):
            acc += partial_sum_2d(f, j, j).values
        return SampledFunction(f.structure, acc / n)
    if method == "kernel":
        kern = marcinkiewicz_kernel(f.structure, n, index_base).as_function()
        return convolve(f, kern)
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def evaluate_means(f: SampledFunction, n: int, index_base: int = 0) -> MeansEvaluation:
    """Run all three routes and record their maximal pairwise discrepancy."""
    results = {
        method: marcinkiewicz_means(f, n, method, index_base) for method in _METHODS
    }
    disc = 0.0
    values = [results[m].values for m in _METHODS]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            disc = max(disc, float(np.abs(values[i] - values[j]).max()))
    return MeansEvaluation(
        order=n, method="multiplier", result=results["multiplier"], max_discrepancy=disc
    )


def fejer_means_1d(f: SampledFunction, n: int, index_base: int = 0) -> SampledFunction:
    """1-D Fejer mean (1/n) sum_k S_k f; agrees with kernel convolution."""
    if f.arity != 1:
        raise ValueError("fejer_means_1d needs a 1-D sample")
    size = f.structure.size
    if not 1 <= n <= size:
        raise ValueError(f"mean order {n} not in [1, {size}]")
    idx = np.arange(size)
    counts = np.clip(n - 1 + index_base - idx, 0, n)
    coeffs = forward(f).coefficients * (counts / n)
    return inverse(Spectrum(f.structure, coeffs))


def means_error(
    f: SampledFunction, n: int, x: int, y: int, index_base: int = 0
) -> tuple[float, float]:
    """Pointwise |sigma_n f - f| next to its oscillation majorant.

    The majorant is (1/n) sum_{j<=A} M_j W_j(x, y; f) with A the order of n.
    For constant f the error is |c|/n under the default convention while the
    majorant vanishes, so the pair is reported rather than asserted against
    each other.
    """
    from .operators import w_operator_2d

    structure = f.structure
    sigma = marcinkiewicz_means(f, n, "multiplier", index_base)
    error = float(abs(sigma.values[x, y] - f.values[x, y]))
    A = structure.index_order(n)
    majorant = (
        sum(structure.orders[j] * w_operator_2d(f, x, y, j) for j in range(A + 1)) / n
    )
    return error, float(majorant)


def save_means_evaluation(evaluation: MeansEvaluation, path_base: str) -> tuple[str, str]:
    """Write a mean as grid CSV plus a JSON sidecar {n, method, max_discrepancy}.

    Returns the two paths written (``<base>.csv`` and ``<base>.json``).
    """
    import json

    from .sampled import write_csv

    csv_path = f"{path_base}.csv"
    json_path = f"{path_base}.json"
    with open(csv_path, "w", encoding="utf-8") as handle:
        write_csv(evaluation.result, handle)
    sidecar = {
        "n": evaluation.order,
        "method": evaluation.method,
        "max_discrepancy": evaluation.max_discrepancy,
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, json_path
