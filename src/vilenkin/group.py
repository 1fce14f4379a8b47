"""Mixed-radix arithmetic on depth-truncated bounded Vilenkin groups.

The group is the finite product Z_{m_0} x ... x Z_{m_{L-1}} with
coordinate-wise modular addition and normalized counting measure.  Elements
are addressed by their linear index

    i = sum_j x_j * M_j,      M_0 = 1,  M_{k+1} = m_k * M_k,

so digit 0 varies fastest.  Integers below M_L use the same mixed-radix
digit expansion, which makes the element layout and the spectral index
layout coincide.

All structures are immutable after construction; every function here is
pure, so concurrent use from multiple threads is safe.  Each structure also
keeps the read-only digit tables its kernels and operators derive from it
(``GroupStructure.table``); their stored bytes never exceed
TABLE_BUDGET_BYTES.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_GRID_CAP",
    "GroupStructure",
    "MixedRadixIndex",
    "TABLE_BUDGET_BYTES",
    "make_structure",
]

DEFAULT_GRID_CAP = 10**8  # cap on the number of 2-D grid points, i.e. M_L ** 2

# bytes of tables one structure keeps; the largest grid the default cap allows
# has 10**8 points, so a single float64 grid table there is 800 MB
TABLE_BUDGET_BYTES = 256 * 2**20

# guards the check-then-insert of a table miss; hits take no lock
_TABLE_LOCK = threading.Lock()


def _resolve_grid_cap(grid_cap: Optional[int]) -> int:
    if grid_cap is not None:
        return int(grid_cap)
    env = os.environ.get("VILENKIN_GRID_CAP")
    if env:
        return int(env)
    return DEFAULT_GRID_CAP


@dataclass(frozen=True)
class MixedRadixIndex:
    """An integer n < M_L together with its digit expansion.

    ``order`` is max{k : n_k != 0}; it is None for n = 0, which has no
    leading digit.
    """

    value: int
    digits: tuple[int, ...]
    order: Optional[int]


class GroupStructure:
    """Finite product of cyclic groups Z_{m_0} x ... x Z_{m_{L-1}}.

    Parameters
    ----------
    radices:
        The cyclic orders m_k, each >= 2.  The sequence length is the
        truncation depth L.
    grid_cap:
        Maximum admissible M_L ** 2 (the 2-D grid size).  Defaults to the
        VILENKIN_GRID_CAP environment variable or 10**8.
    """

    def __init__(self, radices: Sequence[int], *, grid_cap: Optional[int] = None):
        radices = tuple(int(m) for m in radices)
        if not radices:
            raise ValueError("invalid-radix: need at least one radix")
        for m in radices:
            if m < 2:
                raise ValueError(f"invalid-radix: radix {m} is < 2")
        orders = [1]
        for m in radices:
            orders.append(orders[-1] * m)
        cap = _resolve_grid_cap(grid_cap)
        if orders[-1] ** 2 > cap:
            raise ValueError(
                f"too-large: grid would have {orders[-1] ** 2} 2-D points, "
                f"cap is {cap}"
            )
        self.radices = radices
        self.depth = len(radices)
        self.orders = tuple(orders)
        self.size = orders[-1]
        self._tables: dict = {}
        self._table_bytes = 0

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupStructure) and self.radices == other.radices

    def __hash__(self) -> int:
        return hash(self.radices)

    def __repr__(self) -> str:
        return f"GroupStructure(radices={self.radices})"

    # -- digits ------------------------------------------------------------

    @cached_property
    def digit_table(self) -> np.ndarray:
        """(size, depth) array; row i holds the digits of linear index i."""
        idx = np.arange(self.size)
        table = np.empty((self.size, self.depth), dtype=np.int64)
        for k, m in enumerate(self.radices):
            table[:, k] = (idx // self.orders[k]) % m
        table.setflags(write=False)
        return table

    def digits(self, i: int) -> tuple[int, ...]:
        """Digit expansion of a linear index (digit 0 first)."""
        i = int(i)
        if not 0 <= i < self.size:
            raise ValueError(f"index-overflow: {i} not in [0, {self.size})")
        return tuple(int(d) for d in self.digit_table[i])

    def from_digits(self, digits: Sequence[int]) -> int:
        """Linear index of a digit sequence; validates each digit range."""
        digits = tuple(int(d) for d in digits)
        if len(digits) != self.depth:
            raise ValueError(
                f"structure-mismatch: expected {self.depth} digits, got {len(digits)}"
            )
        value = 0
        for k in range(self.depth - 1, -1, -1):
            d = digits[k]
            if not 0 <= d < self.radices[k]:
                raise ValueError(
                    f"invalid digit {d} at position {k} (radix {self.radices[k]})"
                )
            value = value * self.radices[k] + d
        return value

    def index_digits(self, n: int) -> MixedRadixIndex:
        """Mixed-radix expansion of n with its order |n| (None for n = 0)."""
        digits = self.digits(n)
        order = None
        for k, d in enumerate(digits):
            if d:
                order = k
        return MixedRadixIndex(value=int(n), digits=digits, order=order)

    def index_order(self, n: int) -> int:
        """|n|, the k with M_k <= n < M_{k+1}, for 1 <= n <= M_L (M_L maps to L)."""
        n = int(n)
        if not 1 <= n <= self.size:
            raise ValueError(f"order {n} not in [1, {self.size}]")
        return bisect_right(self.orders, n) - 1

    # -- group operations ----------------------------------------------------

    def add(self, x, y):
        """Coordinate-wise modular sum of linear indices (scalars or arrays)."""
        dx = self.digit_table[np.asarray(x)]
        dy = self.digit_table[np.asarray(y)]
        out = self._pack((dx + dy) % np.array(self.radices))
        return out if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else int(out)

    def sub(self, x, y):
        """Coordinate-wise modular difference of linear indices."""
        dx = self.digit_table[np.asarray(x)]
        dy = self.digit_table[np.asarray(y)]
        out = self._pack((dx - dy) % np.array(self.radices))
        return out if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else int(out)

    def _pack(self, digit_rows: np.ndarray) -> np.ndarray:
        return digit_rows @ np.array(self.orders[: self.depth])

    def add_outer(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Table of x + y over the cartesian product of two index arrays."""
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        dx = self.digit_table[xs][:, None, :]
        dy = self.digit_table[ys][None, :, :]
        return self._pack((dx + dy) % np.array(self.radices))

    def basis_element(self, k: int) -> int:
        """e_k, the element with digit 1 at position k; linear index M_k."""
        if not 0 <= k < self.depth:
            raise ValueError(f"basis position {k} not in [0, {self.depth})")
        return self.orders[k]

    # -- intervals and measure ------------------------------------------------

    def in_interval(self, center: int, n: int, y: int) -> bool:
        """Whether y lies in I_n(center) = {y : y_j = center_j for j < n}."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"interval depth {n} not in [0, {self.depth}]")
        return int(center) % self.orders[n] == int(y) % self.orders[n]

    def interval_indices(self, n: int, center: int = 0) -> np.ndarray:
        """Linear indices of I_n(center), an arithmetic progression mod M_n."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"interval depth {n} not in [0, {self.depth}]")
        base = int(center) % self.orders[n]
        return base + self.orders[n] * np.arange(self.size // self.orders[n])

    # -- stored tables ----------------------------------------------------------

    def table(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The table stored under ``key``, or ``build()`` made read-only.

        A built table is kept while the stored bytes stay within
        TABLE_BUDGET_BYTES; once the budget is spent, later tables are
        returned without being kept.  Nothing is evicted, so a scan that walks
        the same keys on every call keeps hitting the tables it kept first.
        """
        stored = self._tables.get(key)
        if stored is not None:
            return stored
        table = build()
        table.setflags(write=False)
        with _TABLE_LOCK:
            if key in self._tables:
                return self._tables[key]
            if self._table_bytes + table.nbytes <= TABLE_BUDGET_BYTES:
                self._tables[key] = table
                self._table_bytes += table.nbytes
        return table

    # -- root-of-unity tables ---------------------------------------------------

    @cached_property
    def root_tables(self) -> tuple[np.ndarray, ...]:
        """Per-coordinate tables of the m_k-th roots of unity.

        Precomputed once so that character evaluations index a table instead
        of calling transcendentals, keeping |psi| = 1 to machine precision.
        """
        tables = []
        for m in self.radices:
            tables.append(np.exp(2j * np.pi * np.arange(m) / m))
        return tuple(tables)


def make_structure(
    radices: Sequence[int], depth: Optional[int] = None, *, grid_cap: Optional[int] = None
) -> GroupStructure:
    """Build a GroupStructure, cycling the radix list to the requested depth.

    ``make_structure((2, 3), 4)`` yields radices (2, 3, 2, 3).  With
    depth=None the list is used as given.
    """
    radices = tuple(int(m) for m in radices)
    if not radices:
        raise ValueError("invalid-radix: need at least one radix")
    if depth is not None:
        depth = int(depth)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        radices = tuple(radices[k % len(radices)] for k in range(depth))
    return GroupStructure(radices, grid_cap=grid_cap)
