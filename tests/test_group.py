import itertools
import re
import sys
import threading

import numpy as np
import pytest

from vilenkin import group
from vilenkin import (
    GroupStructure,
    SampledFunction,
    hardy_quasinorm,
    lp_norm,
    make_structure,
    vilenkin_column,
)

from conftest import oracle_digits, oracle_psi


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


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "VILENKIN_GRID_CAP 'abc' is not an integer"),
        ("1e8", "VILENKIN_GRID_CAP '1e8' is not an integer"),
        ("-3", "VILENKIN_GRID_CAP -3 not in [1, inf)"),
        ("0", "VILENKIN_GRID_CAP 0 not in [1, inf)"),
    ],
)
def test_grid_cap_env_must_be_an_integer_of_at_least_one(monkeypatch, value, message):
    # the rule the grid_cap argument follows; a negative cap once refused every structure
    monkeypatch.setenv("VILENKIN_GRID_CAP", value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_structure((2, 3))


def test_index_digits_examples():
    s = make_structure((2, 3))
    assert s.digits(5) == (1, 2)
    assert s.index_order(5) == 1
    assert s.digits(0) == (0, 0)
    s2 = make_structure((2, 3, 2))
    assert s2.digits(7) == (1, 0, 1)
    assert s2.index_order(7) == 2


def test_index_roundtrip_and_order_bracket():
    s = make_structure((2, 3, 2, 3))
    for n in range(s.size):
        digits = s.digits(n)
        assert s.from_digits(digits) == n
        if n > 0:
            # |n| is the position of the leading nonzero digit
            k = max(i for i, d in enumerate(digits) if d)
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
    assert s.digits(s.add(a, a)) == (0, 2)


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


def test_add_outer_is_add_over_the_product_and_rejects_points_outside_the_group():
    s = make_structure((2, 3))
    xs, ys = np.array([0, 1, 5]), np.array([2, 3])
    np.testing.assert_array_equal(s.add_outer(xs, ys), s.add(xs[:, None], ys[None, :]))
    for xs, ys, bad in (([-1], [0], -1), ([0], [6], 6), ([0, 1], [2, -3], -3)):
        with pytest.raises(ValueError, match=f"point index {bad} not in"):
            s.add_outer(xs, ys)
    # scalars, or a table where an array belongs, are not two index arrays
    for xs, ys in ((1, 2), ([1], 2), (np.zeros((2, 2), dtype=int), [0])):
        with pytest.raises(ValueError, match="^add_outer takes two 1-D index arrays"):
            s.add_outer(xs, ys)


def test_in_interval():
    s = make_structure((2, 3))
    assert sorted(s.interval_indices(0, 0).tolist()) == list(range(s.size))
    center = s.from_digits((1, 2))
    assert all(center in s.interval_indices(n, center) for n in range(s.depth + 1))
    assert s.from_digits((1, 0)) not in s.interval_indices(1, 0)
    # a center is a point, not an integer reduced mod M_n
    for n, center in itertools.product(range(s.depth + 1), (-1, 6, 99)):
        with pytest.raises(ValueError, match=f"point index {center} not in"):
            s.interval_indices(n, center)


def test_interval_measure_by_exhaustive_count():
    radices = (2, 3, 2)
    s = make_structure(radices)
    for n in range(s.depth + 1):
        for center in (0, 5, 11):
            # I_n(center): the points whose digits below n are center's
            lead = oracle_digits(radices, center)[:n]
            members = [y for y in range(s.size) if oracle_digits(radices, y)[:n] == lead]
            assert len(members) == s.size // s.orders[n]
            assert sorted(members) == sorted(s.interval_indices(n, center).tolist())


def test_haar_integral_constant_and_interval():
    s = make_structure((2, 3))
    const = SampledFunction(s, np.full(s.size, 2.0 - 1.0j))
    assert const.values.mean() == pytest.approx(2.0 - 1.0j)
    indicator = np.zeros(s.size, dtype=complex)
    indicator[s.interval_indices(1, 0)] = 1.0
    assert SampledFunction(s, indicator).values.mean() == pytest.approx(1 / 2)


def test_haar_integral_character_is_zero():
    s = make_structure((2, 3))
    expected = sum(oracle_psi((2, 3), 3, x) for x in range(6)) / 6
    assert abs(expected) < 1e-12  # oracle agrees the mass cancels
    f = SampledFunction(s, vilenkin_column(s, 3))
    assert abs(f.values.mean()) < 1e-12
    for n in range(1, s.size):
        assert abs(SampledFunction(s, vilenkin_column(s, n)).values.mean()) < 1e-12
    assert SampledFunction(s, vilenkin_column(s, 0)).values.mean() == pytest.approx(1.0)


def test_lp_norm_validates_exponent():
    s = make_structure((2, 3))
    f = SampledFunction(s, np.ones(s.size))
    assert lp_norm(f, 2.0) == pytest.approx(1.0)
    g = SampledFunction(s, np.arange(s.size) - 4.0)
    assert lp_norm(g, np.inf) == 4.0
    with pytest.raises(ValueError, match="invalid-exponent"):
        lp_norm(f, 0.0)
    # NaN fails `p <= 0` as well as `p > 0`, so it needs its own case
    f2 = SampledFunction(s, np.ones((s.size, s.size)))
    for call in (lambda: lp_norm(f, np.nan), lambda: hardy_quasinorm(f2, np.nan)):
        with pytest.raises(ValueError, match="invalid-exponent: p must be positive, got nan"):
            call()


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
    assert sum(t.nbytes for t in s._store.tables.values()) == 96 <= group.TABLE_BUDGET_BYTES


def test_table_store_counts_hits_misses_and_kept_bytes(monkeypatch):
    monkeypatch.setattr(group, "TABLE_BUDGET_BYTES", 100)
    s = make_structure((2, 3))
    assert s.table_stats() == {"hits": 0, "misses": 0, "tables": 0, "bytes": 0}
    s.table("small", lambda: np.zeros(8))  # 64 bytes: kept
    s.table("small", lambda: np.zeros(8))
    s.table("big", lambda: np.zeros(16))  # 128 bytes: over the budget, not kept
    s.table("big", lambda: np.zeros(16))
    s.table("last", lambda: np.zeros(4))  # 32 bytes: kept
    stats = s.table_stats()
    assert stats == {"hits": 1, "misses": 4, "tables": 2, "bytes": 96}
    stats["hits"] = 99  # a copy: the store's counters are not writable through it
    assert s.table_stats()["hits"] == 1
    assert make_structure((2, 3)).table_stats()["misses"] == 0


def test_table_store_counts_misses_exactly_under_threads():
    s = make_structure((2, 3))
    builds = []

    def build():
        builds.append(1)
        return np.zeros(1)

    def lookups():
        for i in range(400):
            s.table(i % 10, build)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = s.table_stats()
    assert stats["misses"] == len(builds) >= 10
    assert stats["tables"] == 10 and stats["bytes"] == 80
    assert stats["hits"] <= 8 * 400 - stats["misses"]


def test_structure_equality_and_hash():
    assert make_structure((2, 3)) == make_structure((2, 3))
    assert make_structure((2, 3)) != make_structure((3, 2))
    assert hash(GroupStructure((2, 3))) == hash(GroupStructure((2, 3)))


def test_quotients_are_held_and_share_the_store_under_their_own_keys(monkeypatch):
    monkeypatch.setattr(group, "TABLE_BUDGET_BYTES", 100)
    s = make_structure((2, 3), 4)
    q = s.quotient(2)
    assert q == make_structure((2, 3)) and q is s.quotient(2) and s.quotient(4) is s
    for bad in (0, 5):
        with pytest.raises(ValueError, match="quotient depth"):
            s.quotient(bad)
    mine = s.table("t", lambda: np.zeros(8))  # 64 bytes
    theirs = q.table("t", lambda: np.ones(4))  # 32 bytes: 96 in all, kept
    assert theirs.shape == (4,) and q.table("t", lambda: np.ones(4)) is theirs
    assert s.table("t", lambda: np.ones(8)) is mine
    # the quotient's quotient files under its own depth in the same store
    assert q.quotient(1).table("t", lambda: np.ones(2)).shape == (2,)  # 16 bytes: not kept
    assert s.table_stats() == q.table_stats() == {"hits": 2, "misses": 3, "tables": 2, "bytes": 96}
    assert make_structure((2, 3)).table_stats()["tables"] == 0
