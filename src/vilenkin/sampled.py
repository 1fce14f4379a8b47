"""Grid-sampled functions and spectra, Haar integration, and CSV serialization.

A 1-D sample holds M_L complex values in mixed-radix linear order (digit 0
fastest); a 2-D sample holds an (M_L, M_L) array indexed [x, y].  The same
layout is a file-format commitment: CSV rows carry the linear index next to
the real and imaginary parts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .group import GroupStructure, check_int


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


def haar_integrate(f: SampledFunction) -> complex:
    """Integral against normalized Haar measure: the mean of the samples."""
    return complex(f.values.mean())


def require_arity(f: SampledFunction, arity: int, name: str) -> None:
    """Reject a sample that is not ``arity``-dimensional, naming the caller."""
    if f.arity != arity:
        raise ValueError(f"{name} needs a {arity}-D sample")


def check_exponent(p: float) -> float:
    """The exponent p as a float; rejects p <= 0."""
    p = float(p)
    if p <= 0:
        raise ValueError(f"invalid-exponent: p must be positive, got {p}")
    return p


def lp_norm(f: SampledFunction, p: float) -> float:
    """(mean of |f|^p)^(1/p) for 0 < p < infinity; max |f| for p = infinity."""
    p = check_exponent(p)
    if p == np.inf:
        return float(np.abs(f.values).max())
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


# -- CSV format ---------------------------------------------------------------
#
# Header line: "radices=2,3,...;depth=L" plus ";kind=spectrum" for spectra.
# Then one CSV row per grid point:
#   1-D:  linear_index,re,im
#   2-D:  linear_index_x,linear_index_y,re,im


def _header(structure: GroupStructure, kind: str) -> str:
    radices = ",".join(str(m) for m in structure.radices)
    head = f"radices={radices};depth={structure.depth}"
    if kind == "spectrum":
        head += ";kind=spectrum"
    return head


def write_csv(obj: Union[SampledFunction, Spectrum], stream: IO[str]) -> None:
    """Serialize a sampled function or spectrum in the canonical CSV scheme."""
    kind = "spectrum" if isinstance(obj, Spectrum) else "sampled"
    values = obj.coefficients if isinstance(obj, Spectrum) else obj.values
    stream.write(_header(obj.structure, kind) + "\n")
    writer = csv.writer(stream)
    if values.ndim == 1:
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
    else:
        n = obj.structure.size
        for ix in range(n):
            for iy in range(n):
                v = values[ix, iy]
                writer.writerow([ix, iy, repr(float(v.real)), repr(float(v.imag))])


def read_csv(stream: IO[str]) -> Union[SampledFunction, Spectrum]:
    """Parse the CSV scheme produced by :func:`write_csv`."""
    header = stream.readline().strip()
    parts = [part for part in header.split(";") if part]
    if any("=" not in part for part in parts):
        raise ValueError(f"malformed header: {header!r}")
    fields = dict(part.split("=", 1) for part in parts)
    if not {"radices", "depth"} <= set(fields) <= {"radices", "depth", "kind"}:
        raise ValueError(f"malformed header: {header!r} (keys: radices, depth, kind)")
    radices = tuple(int(m) for m in fields["radices"].split(","))
    depth = int(fields["depth"])
    if len(radices) != depth:
        raise ValueError("header depth does not match the radix list")
    structure = GroupStructure(radices)
    kind = fields.get("kind")
    if kind not in (None, "spectrum"):
        raise ValueError(f"unknown kind {kind!r} in header; a spectrum says kind=spectrum")
    rows = list(csv.reader(stream))
    rows = [r for r in rows if r]
    n = structure.size
    if len(rows) == n and len(rows[0]) == 3:
        values = np.zeros(n, dtype=np.complex128)
    elif len(rows) == n * n and len(rows[0]) == 4:
        values = np.zeros((n, n), dtype=np.complex128)
    else:
        raise ValueError(f"unexpected row count {len(rows)} for grid size {n}")
    # as many rows as points, none out of range or repeated: every point is set
    seen = np.zeros(values.shape, dtype=bool)
    for number, row in enumerate(rows, start=1):
        if len(row) != values.ndim + 2:
            raise ValueError(f"row {number}: expected {values.ndim + 2} fields, got {row}")
        name = f"row {number}: index"
        index = tuple(check_int(name, int(i), 0, n - 1) for i in row[: values.ndim])
        if seen[index]:
            raise ValueError(f"row {number}: repeated index {index}")
        seen[index] = True
        values[index] = float(row[-2]) + 1j * float(row[-1])
    if kind == "spectrum":
        return Spectrum(structure, values)
    return SampledFunction(structure, values)


def dumps_csv(obj: Union[SampledFunction, Spectrum]) -> str:
    buf = io.StringIO()
    write_csv(obj, buf)
    return buf.getvalue()


def loads_csv(text: str) -> Union[SampledFunction, Spectrum]:
    return read_csv(io.StringIO(text))
