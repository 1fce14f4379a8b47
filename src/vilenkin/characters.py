"""Generalized Rademacher functions, the Vilenkin character system, and
Dirichlet kernels with their structural identities.

The k-th Rademacher function depends only on coordinate k,

    r_k(x) = exp(2 pi i x_k / m_k),

and the characters are products of Rademacher powers indexed by the digits
of n.  Dirichlet kernels are the plain partial sums D_k = sum_{j<k} psi_j
with D_0 the empty sum.  Character values come out of precomputed
root-of-unity tables, so identity tests see exact unit-modulus factors.
"""

from __future__ import annotations

import numpy as np

from .group import GroupStructure, check_int


def rademacher(structure: GroupStructure, k: int, x: int) -> complex:
    """r_k(x) = exp(2 pi i x_k / m_k)."""
    k = check_int("coordinate", k, 0, structure.depth - 1)
    structure.check_points(x)
    return complex(structure.root_tables[k][structure.digit_table[x, k]])


def vilenkin(structure: GroupStructure, n: int, x):
    """psi_n(x), the product of Rademacher powers indexed by the digits of n.

    ``x`` is a point index or an index array; a scalar call returns a scalar.
    """
    n = check_int("index-overflow: index", n, 0, structure.size - 1)
    structure.check_points(x)
    dn = structure.digit_table[n]
    dx = structure.digit_table[x]
    values = np.ones(np.shape(x), dtype=np.complex128)
    for k in range(structure.depth):
        if dn[k]:
            table = structure.root_tables[k]
            values *= table[(dn[k] * dx[..., k]) % structure.radices[k]]
    return values[()]


def vilenkin_column(structure: GroupStructure, n: int) -> np.ndarray:
    """psi_n sampled on the whole grid, as a length-M_L array."""
    return vilenkin(structure, n, np.arange(structure.size))


def character_table(structure: GroupStructure) -> np.ndarray:
    """Full (size, size) table C[n, x] = psi_n(x); stored on the structure."""

    def build() -> np.ndarray:
        digits = structure.digit_table.astype(np.float64)
        weights = digits / np.array(structure.radices, dtype=np.float64)
        phase = weights @ structure.digit_table.T.astype(np.float64)
        return np.exp(2j * np.pi * phase)

    return structure.table("character_table", build)


def dirichlet(structure: GroupStructure, k: int, x):
    """D_k(x) = sum_{j<k} psi_j(x), read from the stored table; D_0 is the
    empty sum.  ``x`` is a point index or an index array."""
    structure.check_points(x)
    return dirichlet_table(structure, k)[x]


def dirichlet_table(structure: GroupStructure, k: int) -> np.ndarray:
    """D_k sampled on the whole grid."""
    k = check_int("kernel order", k, 0, structure.size)
    # k = 0 sums no rows: the zero table
    return structure.table(("dirichlet", k), lambda: character_table(structure)[:k].sum(axis=0))


def block_dirichlet(structure: GroupStructure, n: int, z) -> np.ndarray:
    """D_{M_n} evaluated via the closed form M_n * [z in I_n].

    Exact by construction; `z` is a point index or an index array.
    """
    n = check_int("block level", n, 0, structure.depth)
    structure.check_points(z)
    Mn = structure.orders[n]
    z = np.asarray(z)
    out = np.where(z % Mn == 0, float(Mn), 0.0)
    return out if out.ndim else float(out)


def dirichlet_shift(structure: GroupStructure, j: int, r: int, A: int, x):
    """Right-hand side of the block shift identity for D_{j + r * M_A}:

        (sum_{q<r} psi_{M_A}^q(x)) D_{M_A}(x) + psi_{M_A}^r(x) D_j(x).

    Must agree with dirichlet(j + r * M_A, x) for 0 <= j < M_A and
    1 <= r <= m_A - 1.  ``x`` is a point index or an index array.
    """
    A = check_int("block level", A, 0, structure.depth - 1)
    j = check_int("offset", j, 0, structure.orders[A] - 1)
    r = check_int("multiplier", r, 1, structure.radices[A] - 1)
    base = vilenkin(structure, structure.orders[A], x)
    prefix = sum(base**q for q in range(r))
    return prefix * block_dirichlet(structure, A, x) + base**r * dirichlet(structure, j, x)
