"""Built-in 2-D test functions for convergence experiments.

Each entry builds a full-grid sample from a parameter dict.  The catalog is
what the CLI lists and parses; parameters arrive as ``name:key=value,...``
strings.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .characters import vilenkin_column
from .group import GroupStructure
from .sampled import SampledFunction


def _character(structure: GroupStructure, a: int = 1, b: int = 1) -> SampledFunction:
    return SampledFunction(
        structure, np.outer(vilenkin_column(structure, a), vilenkin_column(structure, b))
    )


def _indicator(structure: GroupStructure, N: int = 1, center: int = 0) -> SampledFunction:
    N = int(N)
    if not 0 <= N <= structure.depth:
        raise ValueError(f"indicator depth N={N} not in [0, {structure.depth}]")
    mask = np.arange(structure.size) % structure.orders[N] == int(center) % structure.orders[N]
    return SampledFunction(structure, np.outer(mask, mask).astype(np.complex128))


def _fraction_values(structure: GroupStructure) -> np.ndarray:
    """Map linear indices to [0, 1) via x -> sum_j x_j / M_{j+1}."""
    weights = 1.0 / np.array(structure.orders[1:], dtype=float)
    return structure.digit_table @ weights


def _jump(structure: GroupStructure, theta: float = 1.0 / 3.0) -> SampledFunction:
    """Indicator of {fraction(x) < theta}, constant in y.

    For theta without a finite mixed-radix expansion the jump is never
    resolved by the digit structure, so oscillation persists near the
    interface at every depth.
    """
    frac = _fraction_values(structure)
    column = (frac < float(theta)).astype(np.complex128)
    return SampledFunction(structure, np.repeat(column[:, None], structure.size, axis=1))


def _polynomial(structure: GroupStructure, coeffs="1:1:1:0") -> SampledFunction:
    """Finite coefficient combination; ``coeffs`` is "a:b:re:im;a:b:re:im;..."."""
    if isinstance(coeffs, str):
        triples = []
        for chunk in coeffs.split(";"):
            a, b, re, im = chunk.split(":")
            triples.append((int(a), int(b), float(re) + 1j * float(im)))
    else:
        triples = [(int(a), int(b), complex(c)) for a, b, c in coeffs]
    values = np.zeros((structure.size, structure.size), dtype=np.complex128)
    for a, b, c in triples:
        values += c * np.outer(vilenkin_column(structure, a), vilenkin_column(structure, b))
    return SampledFunction(structure, values)


def _random(structure: GroupStructure, seed: int = 0) -> SampledFunction:
    rng = np.random.default_rng(int(seed))
    shape = (structure.size, structure.size)
    return SampledFunction(structure, rng.normal(size=shape) + 1j * rng.normal(size=shape))


CATALOG: dict[str, dict] = {
    "character": {
        "build": _character,
        "params": {"a": "int spectral index of the x factor", "b": "int, y factor"},
    },
    "indicator": {
        "build": _indicator,
        "params": {"N": "int interval depth", "center": "int linear index"},
    },
    "jump": {
        "build": _jump,
        "params": {"theta": "float jump location in [0, 1)"},
    },
    "polynomial": {
        "build": _polynomial,
        "params": {"coeffs": "a:b:re:im;... coefficient list"},
    },
    "random": {
        "build": _random,
        "params": {"seed": "int rng seed"},
    },
}


def list_test_functions() -> list[dict]:
    """Catalog entries with their parameter schemas."""
    return [
        {"name": name, "params": entry["params"]} for name, entry in sorted(CATALOG.items())
    ]


def parse_fn_spec(spec: str) -> tuple[str, dict]:
    """Parse "name" or "name:key=value,key=value" CLI specs."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown test function {name!r}; known: {known}")
    params: dict = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if not _:
                raise ValueError(f"malformed parameter {part!r} (expected key=value)")
            params[key.strip()] = value.strip()
    return name, params


def build_test_function(structure: GroupStructure, name: str, **params) -> SampledFunction:
    """Instantiate a catalog entry on a structure."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown test function {name!r}; known: {known}")
    unknown = sorted(set(params) - set(CATALOG[name]["params"]))
    if unknown:
        known = ", ".join(CATALOG[name]["params"])
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for {name!r}; known: {known}")
    build: Callable = CATALOG[name]["build"]
    return build(structure, **params)
