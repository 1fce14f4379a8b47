import io

import numpy as np
import pytest

from vilenkin import (
    SampledFunction,
    Spectrum,
    dumps_csv,
    loads_csv,
    make_structure,
)

from conftest import random_sample


def test_csv_roundtrip_1d(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng, arity=1)
    restored = loads_csv(dumps_csv(f))
    assert isinstance(restored, SampledFunction)
    assert restored.structure == s
    np.testing.assert_allclose(restored.values, f.values, atol=0)


def test_csv_roundtrip_2d(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng, arity=2)
    restored = loads_csv(dumps_csv(f))
    assert restored.arity == 2
    np.testing.assert_allclose(restored.values, f.values, atol=0)


def test_csv_roundtrip_spectrum(rng):
    s = make_structure((2, 3, 2))
    spectrum = Spectrum(s, rng.normal(size=s.size) + 1j * rng.normal(size=s.size))
    text = dumps_csv(spectrum)
    assert text.splitlines()[0] == "radices=2,3,2;depth=3;kind=spectrum"
    restored = loads_csv(text)
    assert isinstance(restored, Spectrum)
    np.testing.assert_allclose(restored.coefficients, spectrum.coefficients, atol=0)


def test_csv_header_format():
    s = make_structure((2, 3))
    f = SampledFunction(s, np.zeros(s.size))
    lines = dumps_csv(f).splitlines()
    assert lines[0] == "radices=2,3;depth=2"
    assert lines[1].split(",")[:1] == ["0"]
    assert len(lines) == 1 + s.size


def test_csv_2d_rows_carry_both_indices(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng, arity=2)
    lines = dumps_csv(f).splitlines()
    assert len(lines) == 1 + s.size**2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"


def test_csv_malformed_inputs():
    with pytest.raises(ValueError, match="malformed header"):
        loads_csv("nonsense\n0,1,2\n")
    with pytest.raises(ValueError, match="depth does not match"):
        loads_csv("radices=2,3;depth=3\n")
    with pytest.raises(ValueError, match="row count"):
        loads_csv("radices=2,3;depth=2\n0,1.0,0.0\n")
    # an absent kind means a sampled function; only kind=spectrum is written
    rows = "".join(f"{i},1.0,0.0\n" for i in range(6))
    for kind in ("spectra", "sampled", ""):
        with pytest.raises(ValueError, match=f"unknown kind '{kind}'"):
            loads_csv(f"radices=2,3;depth=2;kind={kind}\n" + rows)
    # a key the reader does not read, a misspelt kind among them, is an error
    for extra in ("kidn=spectrum", "seed=3", "radix=2"):
        with pytest.raises(ValueError, match="malformed header"):
            loads_csv(f"radices=2,3;depth=2;{extra}\n" + rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["-1,1.0,0.0"] + [f"{i},1.0,0.0" for i in range(1, 6)], r"row 1: index -1 not in \[0, 5\]"),
        ([f"{i},1.0,0.0" for i in range(5)] + ["6,1.0,0.0"], r"row 6: index 6 not in \[0, 5\]"),
        ([f"{i},1.0,0.0" for i in range(5)] + ["4,2.0,0.0"], r"row 6: repeated index \(4,\)"),
        (
            [f"{x},{y},1.0,0.0" for x in range(6) for y in range(6)][:-1] + ["0,0,2.0,0.0"],
            r"row 36: repeated index \(0, 0\)",
        ),
        ([f"{i},1.0,0.0" for i in range(5)] + ["5,1.0"], r"row 6: expected 3 fields"),
    ],
)
def test_csv_rejects_bad_indices(rows, message):
    with pytest.raises(ValueError, match=message):
        loads_csv("radices=2,3;depth=2\n" + "\n".join(rows) + "\n")
