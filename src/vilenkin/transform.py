"""Fast forward/inverse Vilenkin-Chrestenson transforms and group convolution.

Analysis carries the Haar weight,

    fhat(n) = (1/M_L) sum_x f(x) conj(psi_n(x)),

synthesis carries none, and with that normalization the convolution theorem
is (f * g)^ = fhat * ghat exactly.  The character table is the Kronecker
product of the DFT matrices of the coordinates (Chrestenson 1955; Van Loan,
Computational Frameworks for the FFT, 1992, ch. 1), so the fast path cuts the
digits, highest first as they lie in the C layout, into contiguous blocks of
at most BLOCK_POINTS points and applies each block as one dense Kronecker
product of small DFT matrices, stored on the structure.  The cut has the
fewest blocks, and among those the least summed block size, so 256 points
run as 16 x 16 rather than 64 x 4.  Each contraction is one BLAS product of
the transposed (block, rest) view with the block matrix, which reads the view
in place rather than copying it, and turns the block's axis to the back, so
after one pass over the blocks of every grid axis the layout is back in
place.  A radix above BLOCK_POINTS is a block by itself and runs through
numpy's FFT along its one axis.

A block of radix-2 digits is the real +-1 Hadamard matrix, one table for
both signs.  On a Walsh structure (every radix 2) a sample whose imaginary
part is zero everywhere is therefore contracted in float64 throughout;
complex samples, and every structure with another radix, are contracted in
complex128.  ``inverse`` wraps the synthesis in a checked, complex
``SampledFunction``; the package's own syntheses on a quotient (the means
sigma_n and the two-valued W) call ``_chrestenson`` bare and read its grid at
their points, so a real Walsh synthesis stays float64.  The naive O(M_L^2)
summation route that checks this one, and that transform-bench times against
it, is ``oracles.naive_forward``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod

import numpy as np

from .group import GroupStructure
from .sampled import SampledFunction, Spectrum, require_same_structure

# largest block of digits applied as one dense Kronecker matrix
BLOCK_POINTS = 64


def digit_blocks(structure: GroupStructure) -> tuple[tuple[int, ...], ...]:
    """The radices in C-axis order (digit L-1 first), cut into the fewest
    contiguous blocks of at most BLOCK_POINTS points, and among those cuts
    the one whose block sizes sum least; a larger radix is a block alone."""
    return _balanced_blocks(tuple(reversed(structure.radices)))


@lru_cache(maxsize=128)
def _balanced_blocks(digits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # best[i] = (block count, summed size, blocks) of the best cut of digits[i:];
    # longer leading blocks are tried first, so a tie keeps the larger one
    best = {len(digits): (0, 0, ())}
    for i in range(len(digits) - 1, -1, -1):
        cuts = []
        for j in range(len(digits), i, -1):
            points = prod(digits[i:j])
            if j == i + 1 or points <= BLOCK_POINTS:
                count, size, blocks = best[j]
                cuts.append((count + 1, size + points, (digits[i:j],) + blocks))
        best[i] = min(cuts, key=lambda cut: cut[:2])
    return best[0][2]


def _block_matrix(structure: GroupStructure, block: tuple[int, ...], sign: int) -> np.ndarray:
    """Kronecker product of the DFT_m matrices exp(sign 2 pi i jk / m) of a
    block; symmetric, so it acts the same from either side.  A block of radix-2
    digits is the exact real +-1 Hadamard matrix, the same for both signs."""
    walsh = set(block) == {2}

    def build() -> np.ndarray:
        factors = []
        for m in block:
            r = np.arange(m)
            jk = np.outer(r, r) % m
            factors.append(1.0 - 2.0 * jk if walsh else np.exp(sign * 2j * np.pi * jk / m))
        return reduce(np.kron, factors)

    return structure.table(("dft_block", block, 0 if walsh else sign), build)


def _chrestenson(values: np.ndarray, structure: GroupStructure, sign: int) -> np.ndarray:
    """Unnormalized transform of every grid axis, with kernel exp(sign 2 pi i ...).

    Each step contracts the leading block axis of the C-contiguous array and
    appends the result's axis at the back, so the next block comes to the
    front and every step is one matrix product, ``front.T @ block``: BLAS
    takes the transposed (block, rest) view as it lies, so no operand is
    copied.  On a Walsh structure a real sample stays float64.
    """
    out = values
    if set(structure.radices) == {2} and not values.imag.any():
        out = np.ascontiguousarray(values.real)
    for block in digit_blocks(structure) * values.ndim:
        points = prod(block)
        front = out.reshape(points, -1)
        if points > BLOCK_POINTS:
            if sign < 0:
                out = np.fft.fft(front.T, axis=1)
            else:
                out = np.fft.ifft(front.T, axis=1, norm="forward")
            out = np.ascontiguousarray(out)
        else:
            out = front.T @ _block_matrix(structure, block, sign)
    return out.reshape(values.shape)


def forward(f: SampledFunction) -> Spectrum:
    """Vilenkin-Fourier analysis of a 1-D or 2-D grid sample."""
    structure = f.structure
    coeffs = _chrestenson(f.values, structure, -1)
    coeffs /= structure.size**f.arity
    return Spectrum(structure, coeffs)


def inverse(spectrum: Spectrum) -> SampledFunction:
    """Synthesis sum_n fhat(n) psi_n(x) (tensor version in 2-D)."""
    return SampledFunction(
        spectrum.structure, _chrestenson(spectrum.coefficients, spectrum.structure, 1)
    )


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Group convolution (f * g)(x) = integral f(t) g(x - t) dmu(t).

    Computed spectrally: forward, pointwise product, inverse.
    """
    require_same_structure(f, g)
    fs = forward(f).coefficients
    gs = forward(g).coefficients
    return inverse(Spectrum(f.structure, fs * gs))
