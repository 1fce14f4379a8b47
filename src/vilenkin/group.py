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
(``GroupStructure.table``), and holds the quotients G/I_K its operators
descend to (``GroupStructure.quotient``); the stored bytes of a structure
and its quotients together never exceed TABLE_BUDGET_BYTES.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_GRID_CAP = 10**8  # cap on the number of 2-D grid points, i.e. M_L ** 2

# bytes of tables one structure keeps; the largest grid the default cap allows
# has 10**8 points, so a single float64 grid table there is 800 MB
TABLE_BUDGET_BYTES = 256 * 2**20

# guards the check-then-insert of a table miss and of a new quotient; hits
# take no lock
_TABLE_LOCK = threading.Lock()


def _resolve_grid_cap(grid_cap: Optional[int]) -> int:
    if grid_cap is not None:
        return check_int("grid_cap", grid_cap, 1)
    env = os.environ.get("VILENKIN_GRID_CAP")
    if not env:
        return DEFAULT_GRID_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"VILENKIN_GRID_CAP {env!r} is not an integer") from None
    return check_int("VILENKIN_GRID_CAP", cap, 1)


def check_int(name: str, value, low: int, high: Optional[int] = None) -> int:
    """``value`` as an int if it is an integer (a Python int, not a bool or
    other subclass, or a numpy integer) in [low, high], with no upper bound
    when ``high`` is None; otherwise a ValueError naming ``name``.

    Every scalar order, level, depth, radix, digit, coordinate, index_base
    and center is checked here, so no entry truncates or computes with a
    non-integer.  The common case takes one type test and one comparison.
    """
    if type(value) is int or isinstance(value, np.integer):
        if low <= value and (high is None or value <= high):
            return int(value)
        top = "inf)" if high is None else f"{high}]"
        raise ValueError(f"{name} {value} not in [{low}, {top}")
    raise ValueError(f"{name} {value!r} is not an integer")


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a real number (a Python int or float, not
    a bool, or a numpy integer or float); otherwise a ValueError naming
    ``name``.  Ranges, and NaN, are left to the caller's own interval test."""
    if type(value) in (int, float) or isinstance(value, (np.integer, np.floating)):
        return float(value)
    raise ValueError(f"{name} {value!r} is not a real number")


def check_bool(name: str, value) -> bool:
    """``value`` as a bool if it is a Python or numpy bool; otherwise a
    ValueError naming ``name``, so a flag given as ``"no"``, 0 or None is
    refused rather than read by its truth value."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} {value!r} is not a bool")


class _TableStore:
    """Read-only tables under one byte budget, with lookup counters."""

    def __init__(self):
        self.tables: dict = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        stored = self.tables.get(key)
        if stored is not None:
            self.hits += 1
            return stored
        table = build()
        table.setflags(write=False)
        with _TABLE_LOCK:
            self.misses += 1
            if key in self.tables:
                return self.tables[key]
            if self.bytes + table.nbytes <= TABLE_BUDGET_BYTES:
                self.tables[key] = table
                self.bytes += table.nbytes
        return table


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
        radices = tuple(check_int("invalid-radix: radix", m, 2) for m in radices)
        if not radices:
            raise ValueError("invalid-radix: need at least one radix")
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
        self._store = _TableStore()
        # a quotient files its tables in its parent's store, under keys of its own
        self._shares_store = False
        self._quotients: dict[int, GroupStructure] = {}

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
        i = check_int("index-overflow: index", i, 0, self.size - 1)
        return tuple(int(d) for d in self.digit_table[i])

    def from_digits(self, digits: Sequence[int]) -> int:
        """Linear index of a digit sequence; validates each digit range."""
        digits = tuple(digits)
        if len(digits) != self.depth:
            raise ValueError(
                f"structure-mismatch: expected {self.depth} digits, got {len(digits)}"
            )
        value = 0
        for k in range(self.depth - 1, -1, -1):
            d = check_int(f"digits[{k}]", digits[k], 0, self.radices[k] - 1)
            value = value * self.radices[k] + d
        return value

    def index_order(self, n: int) -> int:
        """|n|, the k with M_k <= n < M_{k+1}, for 1 <= n <= M_L (M_L maps to L)."""
        n = check_int("order", n, 1, self.size)
        return bisect_right(self.orders, n) - 1

    def check_points(self, *indices) -> None:
        """Reject any point index, scalar or inside an array, that is not an
        integer in [0, M_L).

        The digit tables would wrap a negative index without error, so every
        evaluator at points calls this before reading them, or reads them only
        through ``add``, ``sub`` and ``characters.block_dirichlet``, which call
        it themselves.
        """
        for i in indices:
            i = np.asarray(i)
            if i.dtype.kind not in "iu":
                raise ValueError(f"point index of dtype {i.dtype} is not an integer")
            bad = i[(i < 0) | (i >= self.size)]
            if bad.size:
                raise ValueError(f"point index {bad.flat[0]} not in [0, {self.size})")

    # -- group operations ----------------------------------------------------

    def add(self, x, y):
        """Coordinate-wise modular sum of linear indices (scalars or arrays)."""
        self.check_points(x, y)
        dx = self.digit_table[np.asarray(x)]
        dy = self.digit_table[np.asarray(y)]
        out = self._pack((dx + dy) % np.array(self.radices))
        return out if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else int(out)

    def sub(self, x, y):
        """Coordinate-wise modular difference of linear indices."""
        self.check_points(x, y)
        dx = self.digit_table[np.asarray(x)]
        dy = self.digit_table[np.asarray(y)]
        out = self._pack((dx - dy) % np.array(self.radices))
        return out if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else int(out)

    def _pack(self, digit_rows: np.ndarray) -> np.ndarray:
        return digit_rows @ np.array(self.orders[: self.depth])

    def add_outer(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Table of x + y over the cartesian product of two 1-D index arrays."""
        xs, ys = np.asarray(xs), np.asarray(ys)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError(f"add_outer takes two 1-D index arrays, not {xs.ndim}-D and {ys.ndim}-D")
        return self.add(xs[:, None], ys[None, :])

    # -- intervals and measure ------------------------------------------------

    def interval_indices(self, n: int, center: int = 0) -> np.ndarray:
        """Linear indices of I_n(center), an arithmetic progression mod M_n;
        the center must be a point, an integer in [0, M_L)."""
        n = check_int("interval depth", n, 0, self.depth)
        center = check_int("point index", center, 0, self.size - 1)
        base = center % self.orders[n]
        return base + self.orders[n] * np.arange(self.size // self.orders[n])

    # -- quotients ---------------------------------------------------------------

    def quotient(self, depth: int) -> "GroupStructure":
        """G/I_depth, the structure of the first ``depth`` radices.

        A function constant on the I_depth cosets is a function on the
        quotient: its value at x is the quotient's at x mod M_depth, the
        digits of x below ``depth``.  Each quotient
        is built once and held here, and it keeps its tables in this
        structure's store under keys of its own, so the two share one budget
        and one ``table_stats``.  ``depth = L`` gives this structure itself.
        """
        depth = check_int("quotient depth", depth, 1, self.depth)
        if depth == self.depth:
            return self
        quotient = self._quotients.get(depth)
        if quotient is None:
            quotient = GroupStructure(self.radices[:depth], grid_cap=self.orders[depth] ** 2)
            quotient._store = self._store
            quotient._shares_store = True
            with _TABLE_LOCK:
                quotient = self._quotients.setdefault(depth, quotient)
        return quotient

    # -- stored tables ----------------------------------------------------------

    def table(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The table stored under ``key``, or ``build()`` made read-only.

        A built table is kept while the stored bytes of this structure and its
        quotients stay within TABLE_BUDGET_BYTES; once the budget is spent,
        later tables are returned without being kept.  Nothing is evicted, so
        a scan that walks the same keys on every call keeps hitting the tables
        it kept first.  A lookup that finds a kept table is a hit; one that
        builds is a miss.  A quotient's keys carry its depth, so no table is
        ever served to a structure of another depth.
        """
        if self._shares_store:
            key = ("quotient", self.depth, key)
        return self._store.get(key, build)

    def table_stats(self) -> dict:
        """Counters of the table store this structure shares with its
        quotients: lookups that hit and missed, and the number and bytes of
        the tables kept.  Hits taken concurrently from several threads may be
        undercounted; misses are counted exactly."""
        store = self._store
        return {
            "hits": store.hits,
            "misses": store.misses,
            "tables": len(store.tables),
            "bytes": store.bytes,
        }

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
    radices = tuple(radices)
    # an empty list is left to GroupStructure to reject
    if depth is not None and radices:
        depth = check_int("depth", depth, 1)
        radices = tuple(radices[k % len(radices)] for k in range(depth))
    return GroupStructure(radices, grid_cap=grid_cap)
