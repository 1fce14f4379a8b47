"""Property tests: group laws, the transform round trip and Parseval, and the
CSV round trip with malformed rows, over structures drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    Spectrum,
    dumps_csv,
    forward,
    inverse,
    loads_csv,
    make_structure,
)

from conftest import random_sample

# few examples, no deadline (an example may build tables the first time) and no
# example database written to the working tree
FEW = settings(max_examples=25, deadline=None, database=None)

# up to three digits of radix 2, 3 or 5: grids of at most 125 points
radix_lists = st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=3)


@FEW
@given(radix_lists, st.data())
def test_group_laws(radices, data):
    s = make_structure(radices)
    element = st.integers(0, s.size - 1)
    x, y, z = data.draw(element), data.draw(element), data.draw(element)
    assert s.add(s.add(x, y), z) == s.add(x, s.add(y, z))
    assert s.add(x, y) == s.add(y, x)
    assert s.add(x, 0) == x == s.sub(x, 0)
    assert s.sub(s.add(x, y), y) == x
    assert s.add(s.sub(x, y), y) == x
    assert s.add(x, s.sub(0, x)) == 0
    # an array call agrees with the scalar calls at its elements
    xs = np.array(data.draw(st.lists(element, min_size=1, max_size=8)))
    assert s.add(xs, y).tolist() == [s.add(int(v), y) for v in xs]
    assert s.sub(s.add(xs, y), y).tolist() == xs.tolist()


@FEW
@given(radix_lists, st.integers(0, 2**32 - 1), st.sampled_from((1, 2)))
def test_transform_round_trip_and_parseval(radices, seed, arity):
    s = make_structure(radices)
    f = random_sample(s, np.random.default_rng(seed), arity)
    spectrum = forward(f)
    back = inverse(spectrum).values
    assert np.abs(back - f.values).max() <= 1e-12 * max(1.0, np.abs(f.values).max())
    # analysis carries the Haar weight, so the mean square is the coefficient square sum
    energy = np.mean(np.abs(f.values) ** 2)
    assert np.sum(np.abs(spectrum.coefficients) ** 2) == pytest.approx(energy, rel=1e-12)


@FEW
@given(
    st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 2)),
    st.booleans(),
)
def test_csv_round_trip(radices, seed, arity, spectral):
    s = make_structure(radices)
    f = random_sample(s, np.random.default_rng(seed), arity)
    obj = Spectrum(s, f.values) if spectral else f
    restored = loads_csv(dumps_csv(obj))
    assert type(restored) is type(obj)
    assert restored == obj  # repr-written floats come back exactly


def _mutate(line, kind, other, size):
    fields = line.split(",")
    indices = len(fields) - 2
    if kind == "negative index":
        fields[0] = "-1"
    elif kind == "index past the grid":
        fields[indices - 1] = str(size)
    elif kind == "repeated index":
        fields[:indices] = other.split(",")[:indices]
    elif kind == "missing field":
        fields = fields[:-1]
    elif kind == "extra field":
        fields.append("0.0")
    elif kind == "not a number":
        fields[-2] = "one"
    elif kind == "fractional index":
        fields[0] = "0.5"
    elif kind == "non-finite value":
        fields[-1] = "nan"
    return ",".join(fields)


MUTATIONS = (
    "negative index",
    "index past the grid",
    "repeated index",
    "missing field",
    "extra field",
    "not a number",
    "fractional index",
    "non-finite value",
    "dropped row",
)


@FEW
@given(
    st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=2),
    st.sampled_from((1, 2)),
    st.sampled_from(MUTATIONS),
    st.data(),
)
def test_csv_malformed_rows_raise_value_error(radices, arity, kind, data):
    s = make_structure(radices)
    header, *rows = dumps_csv(random_sample(s, np.random.default_rng(0), arity)).splitlines()
    row = data.draw(st.integers(0, len(rows) - 1))
    other = data.draw(st.integers(0, len(rows) - 1).filter(lambda i: i != row))
    if kind == "dropped row":
        del rows[row]
    else:
        rows[row] = _mutate(rows[row], kind, rows[other], s.size)
    with pytest.raises(ValueError):
        loads_csv("\n".join([header, *rows]) + "\n")
