"""Built-in 2-D test functions for convergence experiments.

Each entry builds a full-grid sample from its parameters.  The catalog is
what the CLI lists and parses; parameters arrive as ``name:key=value,...``
strings, so each entry declares the parser of each parameter next to its
description, and ``build_test_function`` is the one place that converts a
string value.  The builders take typed values and leave their range checks
to ``check_int`` and the functions they call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .characters import vilenkin_column
from .group import GroupStructure, check_int, check_real
from .sampled import SampledFunction


def _character(structure: GroupStructure, a: int = 1, b: int = 1) -> SampledFunction:
    return SampledFunction(
        structure, np.outer(vilenkin_column(structure, a), vilenkin_column(structure, b))
    )


def _indicator(structure: GroupStructure, N: int = 1, center: int = 0) -> SampledFunction:
    N = check_int("indicator depth N", N, 0, structure.depth)
    mask = np.zeros(structure.size, dtype=bool)
    mask[structure.interval_indices(N, center)] = True
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
    theta = check_real("jump theta", theta)
    # a NaN fails the comparison, so it is refused here too
    if not 0 <= theta < 1:
        raise ValueError(f"jump theta={theta} is outside [0, 1)")
    frac = _fraction_values(structure)
    column = (frac < theta).astype(np.complex128)
    return SampledFunction(structure, np.repeat(column[:, None], structure.size, axis=1))


def _coefficients(text: str) -> list[tuple[int, int, complex]]:
    """Parse "a:b:re:im;a:b:re:im;..." into (a, b, re + i im) terms."""
    terms = []
    for chunk in text.split(";"):
        fields = chunk.split(":")
        if len(fields) != 4:
            raise ValueError(f"term {chunk!r} is not a:b:re:im")
        a, b, re, im = fields
        terms.append((int(a), int(b), float(re) + 1j * float(im)))
    return terms


def _polynomial(structure: GroupStructure, coeffs=((1, 1, 1 + 0j),)) -> SampledFunction:
    """Finite combination of the terms (a, b, c): c psi_a(x) psi_b(y)."""
    values = np.zeros((structure.size, structure.size), dtype=np.complex128)
    for a, b, c in coeffs:
        values += c * np.outer(vilenkin_column(structure, a), vilenkin_column(structure, b))
    return SampledFunction(structure, values)


def _random(structure: GroupStructure, seed: int = 0) -> SampledFunction:
    rng = np.random.default_rng(check_int("random seed", seed, 0))
    shape = (structure.size, structure.size)
    return SampledFunction(structure, rng.normal(size=shape) + 1j * rng.normal(size=shape))


# each parameter is (parser of its string form, description)
CATALOG: dict[str, dict] = {
    "character": {
        "build": _character,
        "params": {"a": (int, "int spectral index of the x factor"), "b": (int, "int, y factor")},
    },
    "indicator": {
        "build": _indicator,
        "params": {"N": (int, "int interval depth"), "center": (int, "int linear index")},
    },
    "jump": {
        "build": _jump,
        "params": {"theta": (float, "float jump location in [0, 1)")},
    },
    "polynomial": {
        "build": _polynomial,
        "params": {"coeffs": (_coefficients, "a:b:re:im;... coefficient list")},
    },
    "random": {
        "build": _random,
        "params": {"seed": (int, "int rng seed")},
    },
}


def list_test_functions() -> list[dict]:
    """Catalog entries with their parameter descriptions."""
    return [
        {"name": name, "params": {key: doc for key, (_, doc) in entry["params"].items()}}
        for name, entry in sorted(CATALOG.items())
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
            key = key.strip()
            if key in params:
                raise ValueError(f"parameter {key} given twice in {spec!r}")
            params[key] = value.strip()
    return name, params


def build_test_function(structure: GroupStructure, name: str, **params) -> SampledFunction:
    """Instantiate a catalog entry on a structure.

    A string value is converted by its parameter's declared parser, and one
    it cannot convert raises a ValueError naming the function, the key and
    the value; any other value is passed to the builder unchanged.
    """
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown test function {name!r}; known: {known}")
    declared = CATALOG[name]["params"]
    unknown = sorted(set(params) - set(declared))
    if unknown:
        known = ", ".join(declared)
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for {name!r}; known: {known}")
    for key, value in params.items():
        if isinstance(value, str):
            parse, _ = declared[key]
            try:
                params[key] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{name} parameter {key}={value}: {exc}") from None
    build: Callable = CATALOG[name]["build"]
    return build(structure, **params)
