import numpy as np
import pytest

from vilenkin import (
    block_shift_majorant,
    double_shift_majorant,
    estimate_scan,
    fejer_kernel_1d,
    kernel_decomposition_rhs,
    kernel_majorant_2d,
    make_structure,
    marcinkiewicz_kernel,
    r_factor,
    r_factor_closed,
    r_factor_table,
    scale_sum_majorant,
)

from conftest import oracle_dirichlet


def test_fejer_kernel_edges():
    s = make_structure((2, 3))
    np.testing.assert_allclose(fejer_kernel_1d(s, 1).values, np.zeros(s.size), atol=1e-12)
    np.testing.assert_allclose(
        fejer_kernel_1d(s, 2).values, np.full(s.size, 0.5), atol=1e-12
    )


def test_fejer_kernel_matches_direct_sum():
    radices = (2, 3)
    s = make_structure(radices)
    n = s.orders[2]
    table = fejer_kernel_1d(s, n).values
    for x in range(s.size):
        direct = sum(oracle_dirichlet(radices, k, x) for k in range(n)) / n
        assert table[x] == pytest.approx(direct, abs=1e-12)


def test_marcinkiewicz_kernel_edges_and_direct_sum():
    radices = (2, 3)
    s = make_structure(radices)
    np.testing.assert_allclose(
        marcinkiewicz_kernel(s, 1).values, np.zeros((s.size, s.size)), atol=1e-12
    )
    for n in (2, 4, 6):
        table = marcinkiewicz_kernel(s, n).values
        assert table[0, 0] == pytest.approx(sum(k**2 for k in range(n)) / n)
        for x in range(s.size):
            for y in range(s.size):
                direct = (
                    sum(
                        oracle_dirichlet(radices, k, x) * oracle_dirichlet(radices, k, y)
                        for k in range(n)
                    )
                    / n
                )
                assert table[x, y] == pytest.approx(direct, abs=1e-12)


def test_kernel_symmetry():
    s = make_structure((2, 3, 2))
    for n in (3, 7, 12):
        table = marcinkiewicz_kernel(s, n).values
        np.testing.assert_allclose(table, table.T, atol=1e-12)


def test_dyadic_kernels_are_real():
    # with mixed radices the kernels are genuinely complex; realness is a
    # feature of the all-radix-2 case only
    s = make_structure((2, 2, 2))
    for n in range(1, s.size + 1):
        assert np.abs(marcinkiewicz_kernel(s, n).values.imag).max() < 1e-12
    mixed = make_structure((3,))
    assert np.abs(marcinkiewicz_kernel(mixed, 3).values.imag).max() > 0.5


def test_r_factor_examples():
    s = make_structure((2, 3, 2))
    assert r_factor(s, 2, 1, 3, 5) == pytest.approx(1.0)  # empty product
    assert r_factor(s, 1, 2, 0, 0) == pytest.approx(6.0)
    s23 = make_structure((2, 3))
    x = s23.from_digits((0, 1))
    assert r_factor(s23, 1, 1, x, x) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("radices", [(2, 3, 2), (2, 2, 2, 2), (3, 3, 3)])
def test_r_factor_product_equals_closed_form(radices):
    s = make_structure(radices)
    for i in range(s.depth + 1):
        for n in range(i - 1, s.depth):
            table = r_factor_table(s, i, n) if n >= i else np.ones(s.size)
            for x in range(s.size):
                for y in range(0, s.size, 3):
                    product = r_factor(s, i, n, x, y)
                    closed = r_factor_closed(s, i, n, x, y)
                    assert product == pytest.approx(closed, abs=1e-12)
                    assert closed == table[s.add(x, y)]


def test_kernel_decomposition_level_one_collapse():
    s = make_structure((2, 3, 2))
    kernel = s.orders[1] * marcinkiewicz_kernel(s, s.orders[1]).values
    for x in range(s.size):
        for y in range(s.size):
            assert kernel_decomposition_rhs(s, 1, x, y) == pytest.approx(
                kernel[x, y], abs=1e-12
            )


def test_kernel_decomposition_origin_value():
    s = make_structure((2, 3, 2))
    for A in range(1, s.depth + 1):
        expected = sum(k**2 for k in range(s.orders[A])) / 1.0
        assert kernel_decomposition_rhs(s, A, 0, 0) == pytest.approx(expected, abs=1e-9)


def test_kernel_decomposition_exhaustive():
    s = make_structure((2, 3, 2))
    for A in range(1, s.depth + 1):
        kernel = s.orders[A] * marcinkiewicz_kernel(s, s.orders[A]).values
        for x in range(s.size):
            for y in range(s.size):
                assert kernel_decomposition_rhs(s, A, x, y) == pytest.approx(
                    kernel[x, y], abs=1e-9
                )


def test_kernel_decomposition_tail_breaks_identity():
    # the extra additive coupling-factor tail double-counts the bottom level
    s = make_structure((2, 2))
    kernel = s.orders[2] * marcinkiewicz_kernel(s, s.orders[2]).values
    tail = r_factor_table(s, 1, 1)
    worst = max(
        abs(kernel_decomposition_rhs(s, 2, x, y) + tail[s.add(x, y)] - kernel[x, y])
        for x in range(s.size)
        for y in range(s.size)
    )
    assert worst > 0.5


def test_block_shift_majorant_conventions():
    s = make_structure((2, 3))
    A = 1
    # at the origin only the diagonal shift covers the point
    with_diag = block_shift_majorant(s, A, 0, include_diagonal_shift=True)
    without = block_shift_majorant(s, A, 0, include_diagonal_shift=False)
    assert with_diag == pytest.approx((s.radices[A] - 1) * s.orders[A])
    assert without == 0.0
    # single-shift point x = e_0: the s = 0 term sees the full block kernel,
    # weighted (M_0 / M_1) * D_{M_1}(0) = (1/2) * 2
    x = s.basis_element(0)
    value = block_shift_majorant(s, A, x, include_diagonal_shift=False)
    assert value == pytest.approx(1.0)


def test_double_shift_majorant_reordering_agrees():
    s = make_structure((2, 3, 2))
    for n in (1, 4, 7, 11):
        for x in range(s.size):
            double_shift_majorant(s, n, x)  # internal reordering assertion


def test_kernel_majorant_2d_small_cases():
    s = make_structure((2, 3, 2))
    assert kernel_majorant_2d(s, 1, 0, 0) >= 0.0
    # n = 1 has zero left side
    lhs = 1 * abs(marcinkiewicz_kernel(s, 1).values[3, 4])
    assert lhs == 0.0
    # at the origin only the block-kernel groups survive
    value = kernel_majorant_2d(s, 7, 0, 0)
    assert value > 0.0
    ratios = []
    table = 7 * np.abs(marcinkiewicz_kernel(s, 7).values)
    for x in range(s.size):
        for y in range(s.size):
            rhs = kernel_majorant_2d(s, 7, x, y)
            if rhs > 0:
                ratios.append(table[x, y] / rhs)
            else:
                assert table[x, y] < 1e-9
    assert max(ratios) < 10.0


def test_estimate_scan_est2_table():
    s = make_structure((2, 2, 2))
    report = estimate_scan(s, "est2")
    assert [row["n"] for row in report.per_order] == list(range(1, 8))
    assert report.zero_mismatches == 0
    assert np.isfinite(report.observed_constant)
    payload = report.to_dict()
    assert set(payload) == {
        "estimate",
        "radices",
        "depth",
        "per_order",
        "observed_constant",
        "zero_mismatches",
    }


def test_estimate_scan_zero_sets_match():
    s = make_structure((2, 3), 3)
    for estimate in ("est1", "est2", "fejer", "lemma2"):
        assert estimate_scan(s, estimate).zero_mismatches == 0


def test_est1_alternative_convention_flags_origin():
    s = make_structure((2, 3), 3)
    report = estimate_scan(s, "est1", include_diagonal_shift=False)
    assert report.zero_mismatches > 0


def test_dyadic_chained_majorant_constant_monitored():
    # cross-depth comparison on the all-radix-2 family: the constant stays
    # bounded and moves slowly once past the shallowest depths
    constants = {}
    for depth in (3, 4, 5):
        s = make_structure((2,), depth)
        report = estimate_scan(s, "fejer")
        assert report.zero_mismatches == 0
        constants[depth] = report.observed_constant
    values = list(constants.values())
    assert max(values) < 3.0
    assert max(values) / min(values) < 1.5


def test_scale_sum_majorant_dominated_scan():
    s = make_structure((2, 3))
    for n in range(1, s.size):
        kernel = n * np.abs(fejer_kernel_1d(s, n).values)
        for x in range(s.size):
            rhs = scale_sum_majorant(s, n, x)
            if rhs == 0:
                assert kernel[x] < 1e-9
