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

from .group import GroupStructure

__all__ = [
    "block_dirichlet",
    "character_table",
    "dirichlet",
    "dirichlet_shift",
    "dirichlet_table",
    "rademacher",
    "rademacher_power_sum",
    "vilenkin",
    "vilenkin_column",
]


def rademacher(structure: GroupStructure, k: int, x: int) -> complex:
    """r_k(x) = exp(2 pi i x_k / m_k)."""
    if not 0 <= k < structure.depth:
        raise ValueError(f"coordinate {k} not in [0, {structure.depth})")
    digit = int(structure.digit_table[int(x), k])
    return complex(structure.root_tables[k][digit])


def rademacher_power_sum(structure: GroupStructure, n: int, x: int) -> complex:
    """sum_{i=0}^{m_n - 1} r_n(x)^i, which is m_n when x_n = 0 and 0 otherwise."""
    if not 0 <= n < structure.depth:
        raise ValueError(f"coordinate {n} not in [0, {structure.depth})")
    base = rademacher(structure, n, x)
    return complex(sum(base**i for i in range(structure.radices[n])))


def vilenkin(structure: GroupStructure, n: int, x: int) -> complex:
    """psi_n(x), the product of Rademacher powers indexed by the digits of n."""
    if not 0 <= int(n) < structure.size:
        raise ValueError(f"index-overflow: {n} not in [0, {structure.size})")
    dn = structure.digit_table[int(n)]
    dx = structure.digit_table[int(x)]
    value = 1.0 + 0.0j
    for k in range(structure.depth):
        if dn[k]:
            table = structure.root_tables[k]
            value *= table[(dn[k] * dx[k]) % structure.radices[k]]
    return complex(value)


def vilenkin_column(structure: GroupStructure, n: int) -> np.ndarray:
    """psi_n sampled on the whole grid, as a length-M_L array."""
    if not 0 <= int(n) < structure.size:
        raise ValueError(f"index-overflow: {n} not in [0, {structure.size})")
    dn = structure.digit_table[int(n)]
    values = np.ones(structure.size, dtype=np.complex128)
    for k in range(structure.depth):
        if dn[k]:
            table = structure.root_tables[k]
            values *= table[(dn[k] * structure.digit_table[:, k]) % structure.radices[k]]
    return values


def character_table(structure: GroupStructure) -> np.ndarray:
    """Full (size, size) table C[n, x] = psi_n(x); stored on the structure."""

    def build() -> np.ndarray:
        digits = structure.digit_table.astype(np.float64)
        weights = digits / np.array(structure.radices, dtype=np.float64)
        phase = weights @ structure.digit_table.T.astype(np.float64)
        return np.exp(2j * np.pi * phase)

    return structure.table("character_table", build)


def dirichlet(structure: GroupStructure, k: int, x: int) -> complex:
    """D_k(x) = sum_{j<k} psi_j(x); D_0 is the empty sum."""
    k = int(k)
    if not 0 <= k <= structure.size:
        raise ValueError(f"kernel order {k} not in [0, {structure.size}]")
    if k == 0:
        return 0j
    return complex(dirichlet_table(structure, k)[int(x)])


def dirichlet_table(structure: GroupStructure, k: int) -> np.ndarray:
    """D_k sampled on the whole grid."""
    k = int(k)
    if not 0 <= k <= structure.size:
        raise ValueError(f"kernel order {k} not in [0, {structure.size}]")
    # k = 0 sums no rows: the zero table
    return structure.table(("dirichlet", k), lambda: character_table(structure)[:k].sum(axis=0))


def block_dirichlet(structure: GroupStructure, n: int, z) -> np.ndarray:
    """D_{M_n} evaluated via the closed form M_n * [z in I_n].

    Exact by construction; `z` may be a scalar index or an index array.
    """
    if not 0 <= n <= structure.depth:
        raise ValueError(f"block level {n} not in [0, {structure.depth}]")
    Mn = structure.orders[n]
    z = np.asarray(z)
    out = np.where(z % Mn == 0, float(Mn), 0.0)
    return out if out.ndim else float(out)


def dirichlet_shift(structure: GroupStructure, j: int, r: int, A: int, x: int) -> complex:
    """Right-hand side of the block shift identity for D_{j + r * M_A}:

        (sum_{q<r} psi_{M_A}^q(x)) D_{M_A}(x) + psi_{M_A}^r(x) D_j(x).

    Must agree with dirichlet(j + r * M_A, x) for 0 <= j < M_A and
    1 <= r <= m_A - 1.
    """
    if not 0 <= A < structure.depth:
        raise ValueError(f"block level {A} not in [0, {structure.depth})")
    if not 0 <= j < structure.orders[A]:
        raise ValueError(f"offset {j} not in [0, M_{A})")
    if not 1 <= r < structure.radices[A]:
        raise ValueError(f"multiplier {r} not in [1, m_{A})")
    base = vilenkin(structure, structure.orders[A], x)
    prefix = sum(base**q for q in range(r))
    block = complex(block_dirichlet(structure, A, x))
    return complex(prefix * block + base**r * dirichlet(structure, j, x))
