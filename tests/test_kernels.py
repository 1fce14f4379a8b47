import json
from pathlib import Path

import numpy as np
import pytest

from vilenkin import (
    GroupStructure,
    block_dirichlet,
    block_shift_majorant,
    dirichlet,
    dirichlet_shift,
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
    vilenkin,
)
from vilenkin import kernels
from vilenkin.kernels import _fejer_sum_blocks, _kernel_sums, _shift_block_sum

from conftest import oracle_dirichlet


def test_fejer_kernel_edges():
    s = make_structure((2, 3))
    np.testing.assert_allclose(fejer_kernel_1d(s, 1), np.zeros(s.size), atol=1e-12)
    np.testing.assert_allclose(
        fejer_kernel_1d(s, 2), np.full(s.size, 0.5), atol=1e-12
    )


def test_fejer_kernel_matches_direct_sum():
    radices = (2, 3)
    s = make_structure(radices)
    n = s.orders[2]
    table = fejer_kernel_1d(s, n)
    for x in range(s.size):
        direct = sum(oracle_dirichlet(radices, k, x) for k in range(n)) / n
        assert table[x] == pytest.approx(direct, abs=1e-12)


def test_marcinkiewicz_kernel_edges_and_direct_sum():
    radices = (2, 3)
    s = make_structure(radices)
    np.testing.assert_allclose(
        marcinkiewicz_kernel(s, 1), np.zeros((s.size, s.size)), atol=1e-12
    )
    for n in (2, 4, 6):
        table = marcinkiewicz_kernel(s, n)
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
        table = marcinkiewicz_kernel(s, n)
        np.testing.assert_allclose(table, table.T, atol=1e-12)


def test_dyadic_kernels_are_real():
    # with mixed radices the kernels are genuinely complex; realness is a
    # feature of the all-radix-2 case only
    s = make_structure((2, 2, 2))
    for n in range(1, s.size + 1):
        assert np.abs(marcinkiewicz_kernel(s, n).imag).max() < 1e-12
    mixed = make_structure((3,))
    assert np.abs(marcinkiewicz_kernel(mixed, 3).imag).max() > 0.5


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
    kernel = s.orders[1] * marcinkiewicz_kernel(s, s.orders[1])
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
        kernel = s.orders[A] * marcinkiewicz_kernel(s, s.orders[A])
        for x in range(s.size):
            for y in range(s.size):
                assert kernel_decomposition_rhs(s, A, x, y) == pytest.approx(
                    kernel[x, y], abs=1e-9
                )


def test_kernel_decomposition_tail_breaks_identity():
    # the extra additive coupling-factor tail double-counts the bottom level
    s = make_structure((2, 2))
    kernel = s.orders[2] * marcinkiewicz_kernel(s, s.orders[2])
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
    x = s.orders[0]
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
    lhs = 1 * abs(marcinkiewicz_kernel(s, 1)[3, 4])
    assert lhs == 0.0
    # at the origin only the block-kernel groups survive
    value = kernel_majorant_2d(s, 7, 0, 0)
    assert value > 0.0
    ratios = []
    table = 7 * np.abs(marcinkiewicz_kernel(s, 7))
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


@pytest.mark.parametrize("estimate", ["est2", "fejer", "lemma2"])
def test_only_est1_takes_the_scan_without_diagonal_shift(estimate):
    s = make_structure((2, 3), 2)
    with pytest.raises(ValueError, match="applies to est1 only"):
        estimate_scan(s, estimate, include_diagonal_shift=False)


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
        kernel = n * np.abs(fejer_kernel_1d(s, n))
        for x in range(s.size):
            rhs = scale_sum_majorant(s, n, x)
            if rhs == 0:
                assert kernel[x] < 1e-9


# rows of the five scans of `vilenkin estimates` at (2,3) depth 4, written by
# the per-point scan; the whole-grid scan must reproduce them to the last bit
ESTIMATE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "estimates.json"


@pytest.mark.parametrize("radices, depth", [((2, 3), 3), ((3,), 3), ((2,), 5)])
def test_whole_grid_majorants_equal_their_scalar_calls(radices, depth):
    s = make_structure(radices, depth)
    xs = np.arange(s.size)
    points = range(s.size)
    fejer = [fejer_kernel_1d(s, s.orders[j]) for j in range(s.depth)]
    # at A = 0 without the diagonal shift the sum has no terms
    for A in range(s.depth + 1):
        for diagonal in (True, False):
            grid = block_shift_majorant(s, A, xs, include_diagonal_shift=diagonal)
            scalar = [block_shift_majorant(s, A, x, include_diagonal_shift=diagonal) for x in points]
            assert all(isinstance(v, float) for v in scalar)
            assert grid.shape == xs.shape
            assert grid.tolist() == scalar
    for A in range(s.depth):
        n = s.orders[A]
        # the modulus of the verbatim per-point sum is Python's abs(complex)
        verbatim = [
            sum(s.orders[j] * abs(complex(fejer[j][x])) for j in range(A + 1)) for x in points
        ]
        assert [scale_sum_majorant(s, n, x) for x in points] == verbatim
        for majorant in (scale_sum_majorant, double_shift_majorant):
            scalar = [majorant(s, n, x) for x in points]
            assert all(isinstance(v, float) for v in scalar)
            assert majorant(s, n, xs).tolist() == scalar
        grid = kernel_majorant_2d(s, n, xs[:, None], xs[None, :])
        assert grid.shape == (s.size, s.size)
        assert grid.tolist() == [[kernel_majorant_2d(s, n, x, y) for y in points] for x in points]


def test_estimate_scan_rows_equal_the_reference():
    reference = json.loads(ESTIMATE_REFERENCE.read_text(encoding="utf-8"))
    s = make_structure(reference["radices"])
    for label, rows in reference["rows"].items():
        estimate, _, convention = label.partition("_")
        report = estimate_scan(s, estimate, include_diagonal_shift=convention != "without_diagonal_shift")
        assert report.per_order == rows, label


def _rebuilt_rows(s, estimate, tol=1e-9):
    """Scan rows with each left side n |K_n| rebuilt from its kernel."""
    xs = np.arange(s.size)
    if estimate == "lemma2":
        kernel, grid, majorant = marcinkiewicz_kernel, (xs[:, None], xs[None, :]), kernel_majorant_2d
    else:
        kernel, grid = fejer_kernel_1d, (xs,)
        majorant = scale_sum_majorant if estimate == "est2" else double_shift_majorant
    rows = []
    for A in range(s.depth):
        rhs = majorant(s, s.orders[A], *grid)
        positive = rhs > 0
        for n in range(s.orders[A], s.orders[A + 1]):
            lhs = n * np.abs(kernel(s, n))
            ratios = lhs[positive] / rhs[positive]
            rows.append({
                "n": n,
                "max_ratio": float(ratios.max()) if ratios.size else 0.0,
                "zero_mismatches": int(np.count_nonzero(lhs[~positive] > tol)),
            })
    return rows


@pytest.mark.parametrize(
    "radices, depth",
    [((2, 3), 3), ((2, 3), 4), ((2, 3), 5), ((3, 2, 5), None), ((2,), 6), ((5, 5), None)],
)
def test_kernel_walk_equals_the_rebuilt_kernels(radices, depth):
    # the 1-D block walk adds the kernel's rows in its order, so its left
    # sides, taken as the scan takes them, are the kernel's to the last bit;
    # the 2-D einsum groups its terms otherwise, so grid values agree to a
    # relative 1e-15 and the rows are equal here
    s = make_structure(radices, depth)
    walked = []
    for orders, sums in _fejer_sum_blocks(s):
        n = orders[:, None]
        for order, lhs in zip(orders.tolist(), n * np.abs(sums / n)):
            assert np.array_equal(lhs, order * np.abs(fejer_kernel_1d(s, order))), order
            walked.append(order)
    assert walked == list(range(1, s.size))
    for n, total in _kernel_sums(s):
        oracle = n * np.abs(marcinkiewicz_kernel(s, n))
        assert np.abs(n * np.abs(total / n) - oracle).max() <= 1e-15 * oracle.max(), n
    for estimate in ("est2", "fejer", "lemma2"):
        assert estimate_scan(s, estimate).per_order == _rebuilt_rows(s, estimate), estimate


def test_kernel_walk_at_depth_six_agrees_with_the_rebuilt_kernel():
    # at (2,3) depth 6, 17 of the 215 lemma2 rows differ from the rebuilt
    # kernels' in the last bit; the left sides agree to a relative 1e-15 of
    # the grid's largest value at the first and last order of every level
    s = make_structure((2, 3), 6)
    ends = {n for A in range(s.depth) for n in (s.orders[A], s.orders[A + 1] - 1)}
    for n, total in _kernel_sums(s):
        if n in ends:
            oracle = n * np.abs(marcinkiewicz_kernel(s, n))
            assert np.abs(n * np.abs(total / n) - oracle).max() <= 1e-15 * oracle.max(), n


@pytest.mark.parametrize("radices, depth", [((2, 3), 3), ((3,), 3), ((3, 2, 5), None)])
def test_array_calls_equal_their_scalar_calls(radices, depth):
    # a vectorised complex product may round differently from numpy's scalar
    # path, so the two agree to a relative 1e-15, not to the bit
    s = make_structure(radices, depth)
    xs = np.arange(s.size)
    x, y = xs[:, None], xs[None, :]

    def check(grid, scalar):
        # scalar calls list the grid in C order and return scalars
        assert all(isinstance(v, (float, complex)) for v in scalar)
        assert np.abs(grid.ravel() - np.array(scalar)).max() <= 1e-15 * np.abs(grid).max()

    for A in range(1, s.depth + 1):
        check(
            kernel_decomposition_rhs(s, A, x, y),
            [kernel_decomposition_rhs(s, A, a, b) for a in xs for b in xs],
        )
    for i in range(s.depth + 1):
        for n in range(i - 1, s.depth):
            for evaluator in (r_factor, r_factor_closed):
                check(evaluator(s, i, n, x, y), [evaluator(s, i, n, a, b) for a in xs for b in xs])
    for n in range(s.size):
        check(vilenkin(s, n, xs), [vilenkin(s, n, a) for a in xs])
    for k in range(s.size + 1):
        check(dirichlet(s, k, xs), [dirichlet(s, k, a) for a in xs])
    for A in range(s.depth):
        for j in range(s.orders[A]):
            for r in range(1, s.radices[A]):
                check(dirichlet_shift(s, j, r, A, xs), [dirichlet_shift(s, j, r, A, a) for a in xs])


CLOSED_FORM_CASES = [((2, 3), d) for d in range(1, 6)] + [
    ((3, 2, 5), None),
    ((2,), 6),
    ((5, 5), None),
    ((7,), 2),
]


@pytest.mark.parametrize("radices, depth", CLOSED_FORM_CASES)
def test_shifted_block_kernels_in_closed_form_equal_the_shifted_ones(radices, depth):
    s = make_structure(radices, depth)
    xs = np.arange(s.size)
    for level in range(s.depth + 1):
        for shift in range(s.depth):
            shifted = [
                block_dirichlet(s, level, s.sub(xs, k * s.orders[shift]))
                for k in range(1, s.radices[shift])
            ]
            closed = _shift_block_sum(s, level, shift, xs)
            assert np.array_equal(closed, sum(shifted)), (level, shift)
            for x in range(s.size):
                scalar = _shift_block_sum(s, level, shift, x)
                assert isinstance(scalar, float) and scalar == sum(v[x] for v in shifted)
    # est1's majorant sums the closed forms; the reference shifts each point
    # with `sub` and evaluates one block kernel per shift, as the sum is written
    for A in range(s.depth + 1):
        for diagonal in (True, False):
            reference = np.zeros(s.size)
            for shift in range(min(A if diagonal else A - 1, s.depth - 1) + 1):
                weight = s.orders[shift] / s.orders[A]
                for k in range(1, s.radices[shift]):
                    reference += weight * block_dirichlet(s, A, s.sub(xs, k * s.orders[shift]))
            majorant = block_shift_majorant(s, A, xs, include_diagonal_shift=diagonal)
            assert majorant.tobytes() == reference.tobytes(), (A, diagonal)


def test_est2_fejer_and_lemma2_make_no_group_difference(monkeypatch):
    calls = []
    sub = GroupStructure.sub

    def counted(self, x, y):
        calls.append(1)
        return sub(self, x, y)

    monkeypatch.setattr(GroupStructure, "sub", counted)
    s = make_structure((2, 3), 4)
    # no estimate scan, est1 in either convention included, shifts with `sub`
    for estimate in ("est1", "est2", "fejer", "lemma2"):
        estimate_scan(s, estimate)
    estimate_scan(s, "est1", include_diagonal_shift=False)
    assert calls == []


@pytest.mark.parametrize(
    "estimate, name",
    [
        ("est2", "scale_sum_majorant"),
        ("fejer", "double_shift_majorant"),
        ("lemma2", "kernel_majorant_2d"),
    ],
)
def test_each_majorant_is_evaluated_once_per_level(monkeypatch, estimate, name):
    orders = []
    majorant = getattr(kernels, name)

    def counted(structure, n, *grid):
        orders.append(n)
        return majorant(structure, n, *grid)

    monkeypatch.setattr(kernels, name, counted)
    s = make_structure((2, 3), 4)
    estimate_scan(s, estimate)
    assert orders == list(s.orders[: s.depth])


@pytest.mark.parametrize("rows", [1, 2, 5, 7])
def test_a_level_over_several_blocks_gives_the_rows_of_one_block(monkeypatch, rows):
    # (2,3) depth 4 has levels of 1, 4, 6 and 24 orders: 5 and 7 rows divide
    # none of the last two, 2 divides both
    s = make_structure((2, 3), 4)
    whole = {estimate: estimate_scan(s, estimate).per_order for estimate in ("est2", "fejer")}
    bound = (rows + 1) * 16 * s.size  # a block also holds the carried row
    monkeypatch.setattr(kernels, "WALK_BLOCK_BYTES", bound)
    blocks = [orders.tolist() for orders, _ in _fejer_sum_blocks(s)]
    assert max(map(len, blocks)) == rows
    assert [n for block in blocks for n in block] == list(range(1, s.size))
    # no block straddles a level
    assert all(s.index_order(block[0]) == s.index_order(block[-1]) for block in blocks)
    assert len(blocks) > s.depth
    for estimate, rows_whole in whole.items():
        assert estimate_scan(s, estimate).per_order == rows_whole, estimate


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_estimate_scan_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    s = make_structure((2, 3), 3)
    for estimate in ("est1", "lemma2"):
        with pytest.raises(ValueError, match="tol"):
            estimate_scan(s, estimate, tol=tol)
