import cmath

import numpy as np
import pytest

from vilenkin import (
    block_dirichlet,
    character_table,
    dirichlet,
    dirichlet_shift,
    dirichlet_table,
    make_structure,
    r_factor,
    vilenkin,
    vilenkin_column,
)

from conftest import oracle_dirichlet, oracle_psi


def test_rademacher_values():
    # r_k = psi_{M_k}, the character at the order of level k
    s = make_structure((2, 3))
    assert vilenkin(s, s.orders[0], 0) == pytest.approx(1.0)
    assert vilenkin(s, s.orders[0], s.from_digits((1, 0))) == pytest.approx(-1.0)
    third = vilenkin(s, s.orders[1], s.from_digits((0, 1)))
    assert third == pytest.approx(complex(-0.5, 0.8660254037844387))


def test_rademacher_power_sum_collapses():
    # sum_{i<m_n} r_n(x)^i is the one-factor coupling product r_{n,n}(x, 0)
    s = make_structure((2, 3))
    assert r_factor(s, 1, 1, 0, 0) == pytest.approx(3.0)
    assert abs(r_factor(s, 1, 1, s.from_digits((0, 1)), 0)) < 1e-12
    assert abs(r_factor(s, 0, 0, s.from_digits((1, 0)), 0)) < 1e-12


def test_power_sum_exhaustive():
    s = make_structure((2, 3, 2))
    for k in range(s.depth):
        for x in range(s.size):
            expected = s.radices[k] if s.digits(x)[k] == 0 else 0.0
            assert r_factor(s, k, k, x, 0) == pytest.approx(expected, abs=1e-12)


def test_vilenkin_values():
    s2 = make_structure((2, 2))
    assert vilenkin(s2, 0, 3) == pytest.approx(1.0)
    assert vilenkin(s2, 3, s2.from_digits((1, 1))) == pytest.approx(1.0)
    s = make_structure((2, 3))
    value = vilenkin(s, 2, s.from_digits((0, 1)))
    assert value == pytest.approx(cmath.exp(2j * cmath.pi / 3))


def test_vilenkin_matches_oracle():
    radices = (2, 3, 2)
    s = make_structure(radices)
    for n in range(s.size):
        column = vilenkin_column(s, n)
        for x in range(s.size):
            assert column[x] == pytest.approx(oracle_psi(radices, n, x), abs=1e-12)
            assert vilenkin(s, n, x) == pytest.approx(oracle_psi(radices, n, x), abs=1e-12)


def test_vilenkin_unit_modulus_and_multiplicative(rng):
    s = make_structure((2, 3, 2, 3))
    for _ in range(60):
        n = int(rng.integers(s.size))
        x = int(rng.integers(s.size))
        y = int(rng.integers(s.size))
        assert abs(abs(vilenkin(s, n, x)) - 1.0) < 1e-12
        lhs = vilenkin(s, n, s.add(x, y))
        assert lhs == pytest.approx(vilenkin(s, n, x) * vilenkin(s, n, y), abs=1e-12)


@pytest.mark.parametrize("radices", [(2, 2, 2), (2, 3, 2), (2, 3, 2, 3), (4, 4, 4)])
def test_orthonormality_exhaustive(radices):
    s = make_structure(radices)
    table = character_table(s)
    gram = table.conj() @ table.T / s.size
    assert np.abs(gram - np.eye(s.size)).max() < 1e-12


def test_dirichlet_edges():
    s = make_structure((2, 3))
    assert dirichlet(s, 0, 3) == 0
    assert dirichlet(s, 1, 3) == pytest.approx(1.0)
    # block value at zero, and vanishing off the interval
    assert dirichlet(s, 2, 0) == pytest.approx(2.0)
    assert dirichlet(s, 2, s.from_digits((1, 0))) == pytest.approx(0.0, abs=1e-12)
    expected = oracle_dirichlet((2, 3), 2, s.from_digits((1, 0)))
    assert abs(expected) < 1e-12


def test_block_dirichlet_identity_everywhere():
    s = make_structure((2, 3, 2))
    for n in range(s.depth + 1):
        closed = block_dirichlet(s, n, np.arange(s.size))
        summed = dirichlet_table(s, s.orders[n])
        assert np.abs(summed - closed).max() < 1e-12


def test_dirichlet_shift_identity_exhaustive():
    s = make_structure((2, 3, 2))
    for A in range(s.depth):
        for j in range(s.orders[A]):
            for r in range(1, s.radices[A]):
                for x in range(s.size):
                    lhs = dirichlet_shift(s, j, r, A, x)
                    rhs = dirichlet(s, j + r * s.orders[A], x)
                    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_dirichlet_shift_examples():
    s = make_structure((2, 3))
    # j = 0 reduces to the prefix-sum times the block kernel
    base = vilenkin(s, s.orders[1], 4)
    expected = (1 + base) * block_dirichlet(s, 1, 4)
    assert dirichlet_shift(s, 0, 2, 1, 4) == pytest.approx(expected, abs=1e-12)
    assert dirichlet_shift(s, 1, 1, 1, 0) == pytest.approx(3.0)
    x = s.from_digits((0, 1))
    assert dirichlet_shift(s, 1, 2, 1, x) == pytest.approx(
        oracle_dirichlet((2, 3), 5, x), abs=1e-10
    )


def test_dirichlet_shift_rejects_bad_ranges():
    s = make_structure((2, 3))
    with pytest.raises(ValueError):
        dirichlet_shift(s, 2, 1, 1, 0)  # j >= M_A
    with pytest.raises(ValueError):
        dirichlet_shift(s, 0, 3, 1, 0)  # r >= m_A
    with pytest.raises(ValueError):
        dirichlet_shift(s, 0, 1, 2, 0)  # A >= depth
