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
              on G/I_P, M_P >= n, where the mean lives (``_mean_on_quotient``)
  kernel      convolve with the 2-D kernel of order n
"""

from __future__ import annotations

import numpy as np

from .group import GroupStructure, check_int
from .kernels import check_index_base, marcinkiewicz_kernel
from .sampled import SampledFunction, Spectrum, _lift, require_arity
from .transform import _chrestenson, convolve, forward, inverse

_METHODS = ("direct", "multiplier", "kernel")


def partial_sum_2d(f: SampledFunction, M: int, N: int) -> SampledFunction:
    """Rectangular partial sum S_{M,N} f = sum_{i<M, j<N} fhat(i,j) psi_i psi_j."""
    require_arity(f, 2, "partial_sum_2d")
    size = f.structure.size
    M = check_int("partial sum order M", M, 0, size)
    N = check_int("partial sum order N", N, 0, size)
    return _masked_partial_sum(forward(f), M, N)


def _masked_partial_sum(spectrum: Spectrum, M: int, N: int) -> SampledFunction:
    """S_{M,N} from the coefficients of f: keep those with i < M, j < N."""
    coeffs = spectrum.coefficients.copy()
    coeffs[M:, :] = 0
    coeffs[:, N:] = 0
    return inverse(Spectrum(spectrum.structure, coeffs))


def sigma_multiplier(structure: GroupStructure, n: int, index_base: int = 0) -> np.ndarray:
    """Spectral multiplier of the order-n mean on coefficient pairs (a, b).

    lambda_n(a, b) counts the diagonal partial sums containing (a, b):
    #{j in [base, n-1+base] : j > max(a, b)} / n.  As a function of
    k = max(a, b) that share, c_k, does not increase, so lambda_n(a, b) =
    min(c_a, c_b): one outer minimum of c with itself.
    """
    n = check_int("mean order", n, 1, structure.size)
    index_base = check_index_base(index_base)
    c = np.clip(n - 1 + index_base - np.arange(structure.size), 0, n) / n
    return np.minimum.outer(c, c)


def _mean_on_quotient(coeffs, structure: GroupStructure, n: int, index_base: int) -> np.ndarray:
    """sigma_n f on G/I_P, P >= 1 the least level with M_P >= n, from f's 2-D
    coefficients: lambda_n vanishes outside their leading M_P x M_P block, so it
    is one synthesis of that block, and sigma_n f(x) is its value at x mod M_P.

    The grid is the bare synthesis, not a checked ``SampledFunction``: on a
    Walsh structure a real sample's mean stays float64, and callers read it
    at their points or wrap it themselves."""
    quotient = structure.quotient(structure.index_order(max(n - 1, 1)) + 1)
    order = quotient.size
    block = coeffs[:order, :order] * sigma_multiplier(quotient, n, index_base)
    return _chrestenson(block, quotient, 1)


def marcinkiewicz_means(
    f: SampledFunction, n: int, method: str = "multiplier", index_base: int = 0
) -> SampledFunction:
    """Order-n Marcinkiewicz-Fejer mean of a 2-D sample by the chosen route; the
    multiplier route synthesizes on G/I_P, M_P >= n, and tiles the mean to the grid."""
    require_arity(f, 2, "marcinkiewicz_means")
    n = check_int("mean order", n, 1, f.structure.size)
    index_base = check_index_base(index_base)
    if method == "multiplier":
        mean = _mean_on_quotient(forward(f).coefficients, f.structure, n, index_base)
        return SampledFunction(f.structure, _lift(mean, f.structure.size))
    if method == "direct":
        spectrum = forward(f)
        sums = (_masked_partial_sum(spectrum, j, j).values for j in range(index_base, n + index_base))
        return SampledFunction(f.structure, sum(sums) / n)
    if method == "kernel":
        kern = marcinkiewicz_kernel(f.structure, n, index_base)
        return convolve(f, SampledFunction(f.structure, kern))
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def evaluate_means(f: SampledFunction, n: int, index_base: int = 0) -> float:
    """The largest pairwise discrepancy between the three routes' means."""
    values = [marcinkiewicz_means(f, n, method, index_base).values for method in _METHODS]
    disc = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            disc = max(disc, float(np.abs(values[i] - values[j]).max()))
    return disc


def fejer_means_1d(f: SampledFunction, n: int, index_base: int = 0) -> SampledFunction:
    """1-D Fejer mean (1/n) sum_k S_k f; agrees with kernel convolution."""
    require_arity(f, 1, "fejer_means_1d")
    size = f.structure.size
    n = check_int("mean order", n, 1, size)
    index_base = check_index_base(index_base)
    idx = np.arange(size)
    counts = np.clip(n - 1 + index_base - idx, 0, n)
    coeffs = forward(f).coefficients * (counts / n)
    return inverse(Spectrum(f.structure, coeffs))
