"""Shared first-principles oracles, independent of the library's fast paths,
and the sample helpers the tests share.

The oracles work on raw radix tuples and digit lists with cmath, so an
agreement test against the package exercises two genuinely different routes.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest


def oracle_digits(radices, i):
    out = []
    for m in radices:
        out.append(i % m)
        i //= m
    return out


def oracle_index(radices, digits):
    value = 0
    for m, d in zip(reversed(radices), reversed(digits)):
        value = value * m + d
    return value


def oracle_add(radices, x, y):
    dx, dy = oracle_digits(radices, x), oracle_digits(radices, y)
    return oracle_index(radices, [(a + b) % m for a, b, m in zip(dx, dy, radices)])


def oracle_sub(radices, x, y):
    dx, dy = oracle_digits(radices, x), oracle_digits(radices, y)
    return oracle_index(radices, [(a - b) % m for a, b, m in zip(dx, dy, radices)])


def oracle_psi(radices, n, x):
    dn, dx = oracle_digits(radices, n), oracle_digits(radices, x)
    phase = sum(a * b / m for a, b, m in zip(dn, dx, radices))
    return cmath.exp(2j * cmath.pi * phase)


def oracle_dirichlet(radices, k, x):
    return sum(oracle_psi(radices, j, x) for j in range(k)) if k else 0j


def oracle_size(radices):
    size = 1
    for m in radices:
        size *= m
    return size


def oracle_forward_1d(radices, values):
    size = oracle_size(radices)
    return np.array(
        [
            sum(values[x] * oracle_psi(radices, n, x).conjugate() for x in range(size)) / size
            for n in range(size)
        ]
    )


def random_sample(structure, rng, arity=2, real=False):
    """Gaussian samples on the grid, stored as complex128; ``real=True``
    leaves the imaginary part zero."""
    from vilenkin import SampledFunction

    shape = (structure.size,) * arity
    if real:
        return SampledFunction(structure, rng.normal(size=shape))
    return SampledFunction(structure, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def translate(f, shift):
    """f(x - a) in 1-D, f(x - a, y - b) in 2-D (shift is an index or a pair)."""
    from vilenkin import SampledFunction

    structure = f.structure
    idx = np.arange(structure.size)
    if f.arity == 1:
        return SampledFunction(structure, f.values[structure.sub(idx, int(shift))])
    ax, ay = shift
    return SampledFunction(
        structure,
        f.values[np.ix_(structure.sub(idx, int(ax)), structure.sub(idx, int(ay)))],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
