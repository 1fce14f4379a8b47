"""Grid-sampled functions and spectra, L^p norms, and ``_lift``, the one
tiling of a function on a quotient G/I_K up to the grid.

A 1-D sample holds M_L complex values in mixed-radix linear order (digit 0
fastest); a 2-D sample holds an (M_L, M_L) array indexed [x, y].  Its
integral against normalized Haar measure is ``f.values.mean()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupStructure, check_real


def _validate_values(structure: GroupStructure, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    n = structure.size
    if values.shape not in ((n,), (n, n)):
        raise ValueError(
            f"structure-mismatch: values shape {values.shape} does not match "
            f"grid size {n} (expected ({n},) or ({n}, {n}))"
        )
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError("values must be finite (no NaN/Inf)")
    return values


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex values of a function on the full truncated grid."""

    structure: GroupStructure
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_values(self.structure, self.values))

    @property
    def arity(self) -> int:
        return self.values.ndim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.structure == other.structure
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Vilenkin-Fourier coefficients indexed by mixed-radix integers."""

    structure: GroupStructure
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", _validate_values(self.structure, self.coefficients)
        )

    @property
    def arity(self) -> int:
        return self.coefficients.ndim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.structure == other.structure
            and np.array_equal(self.coefficients, other.coefficients)
        )


def require_same_structure(a, b) -> None:
    if a.structure != b.structure:
        raise ValueError("structure-mismatch: operands live on different groups")
    if a.arity != b.arity:
        raise ValueError("structure-mismatch: operands have different arity")


def _lift(grid: np.ndarray, size: int) -> np.ndarray:
    """A function on G/I_K, given on its M_K x M_K square, on a grid of side ``size``."""
    reps = size // grid.shape[0]
    return grid if reps == 1 else np.tile(grid, (reps, reps))


def require_arity(f: SampledFunction, arity: int, name: str) -> None:
    """Reject a sample that is not ``arity``-dimensional, naming the caller."""
    if f.arity != arity:
        raise ValueError(f"{name} needs a {arity}-D sample")


def check_exponent(p: float) -> float:
    """The exponent p as a float; rejects a non-real p, p <= 0 and NaN."""
    p = check_real("invalid-exponent: p", p)
    if not p > 0:
        raise ValueError(f"invalid-exponent: p must be positive, got {p}")
    return p


def lp_norm(f: SampledFunction, p: float) -> float:
    """(mean of |f|^p)^(1/p) for 0 < p < infinity; max |f| for p = infinity."""
    p = check_exponent(p)
    if p == np.inf:
        return float(np.abs(f.values).max())
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))

