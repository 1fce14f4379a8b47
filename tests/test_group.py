import itertools

import numpy as np
import pytest

from vilenkin import group
from vilenkin import (
    GroupStructure,
    SampledFunction,
    haar_integrate,
    lp_norm,
    make_structure,
    vilenkin_column,
)

from conftest import oracle_psi


def test_orders_direct_product():
    assert make_structure((2, 3), 2).orders == (1, 2, 6)
    assert make_structure((2, 2, 2), 3).orders == (1, 2, 4, 8)
    assert make_structure((2, 3, 2, 3), 4).orders == (1, 2, 6, 12, 36)


def test_radices_cycle_to_depth():
    assert make_structure((2, 3), 4).radices == (2, 3, 2, 3)
    assert make_structure((2,), 6).radices == (2,) * 6
    assert make_structure((2, 3, 2), 2).radices == (2, 3)


def test_invalid_radix_rejected():
    with pytest.raises(ValueError, match="invalid-radix"):
        make_structure((2, 1, 3))
    with pytest.raises(ValueError, match="invalid-radix"):
        make_structure(())


def test_grid_cap_rejects_large():
    with pytest.raises(ValueError, match="too-large"):
        make_structure((2,), 20, grid_cap=10**6)
    # cap applies to the square of the grid size
    make_structure((2,), 9, grid_cap=512**2)


def test_grid_cap_env_override(monkeypatch):
    monkeypatch.setenv("VILENKIN_GRID_CAP", "100")
    with pytest.raises(ValueError, match="too-large"):
        make_structure((2, 3, 2))
    monkeypatch.setenv("VILENKIN_GRID_CAP", "1000000")
    make_structure((2, 3, 2))


def test_index_digits_examples():
    s = make_structure((2, 3))
    idx = s.index_digits(5)
    assert idx.digits == (1, 2)
    assert idx.order == 1
    assert s.index_digits(0).order is None
    s2 = make_structure((2, 3, 2))
    idx = s2.index_digits(7)
    assert idx.digits == (1, 0, 1)
    assert idx.order == 2


def test_index_roundtrip_and_order_bracket():
    s = make_structure((2, 3, 2, 3))
    for n in range(s.size):
        idx = s.index_digits(n)
        assert s.from_digits(idx.digits) == n
        if n > 0:
            k = idx.order
            assert s.orders[k] <= n < s.orders[k + 1]
            assert s.index_order(n) == k
    assert s.index_order(s.size) == s.depth
    for bad in (0, s.size + 1):
        with pytest.raises(ValueError, match="order"):
            s.index_order(bad)


def test_index_overflow():
    s = make_structure((2, 3))
    with pytest.raises(ValueError, match="index-overflow"):
        s.digits(6)
    with pytest.raises(ValueError, match="index-overflow"):
        s.digits(-1)


def test_add_sub_examples():
    s = make_structure((2, 3))
    x = s.from_digits((1, 2))
    y = s.from_digits((1, 1))
    assert s.digits(s.add(x, y)) == (0, 0)
    assert s.sub(x, x) == 0
    a = s.from_digits((0, 1))
    b = s.from_digits((0, 2))
    assert s.digits(s.sub(a, b)) == (0, 2)


def test_abelian_group_axioms_exhaustive():
    s = make_structure((2, 3, 2))
    elems = range(s.size)
    table = {(x, y): s.add(x, y) for x in elems for y in elems}
    for x, y in itertools.product(elems, elems):
        assert table[(x, y)] == table[(y, x)]
        assert s.sub(table[(x, y)], y) == x
    for x, y, z in itertools.product(range(0, 12, 5), elems, elems):
        assert s.add(table[(x, y)], z) == s.add(x, table[(y, z)])
    assert all(table[(x, 0)] == x for x in elems)
    assert all(table[(x, s.sub(0, x))] == 0 for x in elems)


def test_basis_elements():
    s = make_structure((2, 3))
    assert s.digits(s.basis_element(0)) == (1, 0)
    assert s.digits(s.basis_element(1)) == (0, 1)
    e1 = s.basis_element(1)
    assert s.digits(s.add(e1, e1)) == (0, 2)
    with pytest.raises(ValueError):
        s.basis_element(2)


def test_in_interval():
    s = make_structure((2, 3))
    assert all(s.in_interval(0, 0, y) for y in range(s.size))
    center = s.from_digits((1, 2))
    assert all(s.in_interval(center, n, center) for n in range(s.depth + 1))
    assert not s.in_interval(0, 1, s.from_digits((1, 0)))


def test_interval_measure_by_exhaustive_count():
    s = make_structure((2, 3, 2))
    for n in range(s.depth + 1):
        for center in (0, 5, 11):
            members = [y for y in range(s.size) if s.in_interval(center, n, y)]
            assert len(members) == s.size // s.orders[n]
            assert sorted(members) == sorted(s.interval_indices(n, center).tolist())


def test_haar_integral_constant_and_interval():
    s = make_structure((2, 3))
    const = SampledFunction(s, np.full(s.size, 2.0 - 1.0j))
    assert haar_integrate(const) == pytest.approx(2.0 - 1.0j)
    indicator = np.zeros(s.size, dtype=complex)
    indicator[s.interval_indices(1, 0)] = 1.0
    assert haar_integrate(SampledFunction(s, indicator)) == pytest.approx(1 / 2)


def test_haar_integral_character_is_zero():
    s = make_structure((2, 3))
    expected = sum(oracle_psi((2, 3), 3, x) for x in range(6)) / 6
    assert abs(expected) < 1e-12  # oracle agrees the mass cancels
    f = SampledFunction(s, vilenkin_column(s, 3))
    assert abs(haar_integrate(f)) < 1e-12
    for n in range(1, s.size):
        assert abs(haar_integrate(SampledFunction(s, vilenkin_column(s, n)))) < 1e-12
    assert haar_integrate(SampledFunction(s, vilenkin_column(s, 0))) == pytest.approx(1.0)


def test_lp_norm_validates_exponent():
    s = make_structure((2, 3))
    f = SampledFunction(s, np.ones(s.size))
    assert lp_norm(f, 2.0) == pytest.approx(1.0)
    g = SampledFunction(s, np.arange(s.size) - 4.0)
    assert lp_norm(g, np.inf) == 4.0
    with pytest.raises(ValueError, match="invalid-exponent"):
        lp_norm(f, 0.0)


def test_table_store_returns_one_read_only_table():
    s = make_structure((2, 3))
    built = []

    def build():
        built.append(1)
        return np.arange(4.0)

    first = s.table("t", build)
    assert s.table("t", build) is first
    assert len(built) == 1
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0


def test_table_store_stays_within_budget(monkeypatch):
    monkeypatch.setattr(group, "TABLE_BUDGET_BYTES", 100)
    s = make_structure((2, 3))
    small = s.table("small", lambda: np.zeros(8))  # 64 bytes
    big = s.table("big", lambda: np.zeros(16))  # 128 bytes: over the budget alone
    assert big.shape == (16,) and not big.flags.writeable
    assert s.table("big", lambda: np.zeros(16)) is not big
    rest = s.table("rest", lambda: np.zeros(5))  # 40 bytes: 104 in all, over the budget
    assert s.table("rest", lambda: np.zeros(5)) is not rest
    assert s.table("small", lambda: np.ones(8)) is small
    assert s.table("last", lambda: np.zeros(4)) is s.table("last", lambda: np.ones(4))
    assert sum(t.nbytes for t in s._tables.values()) == 96 <= group.TABLE_BUDGET_BYTES


def test_structure_equality_and_hash():
    assert make_structure((2, 3)) == make_structure((2, 3))
    assert make_structure((2, 3)) != make_structure((3, 2))
    assert hash(GroupStructure((2, 3))) == hash(GroupStructure((2, 3)))
