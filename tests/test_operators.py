import numpy as np
import pytest

import vilenkin
from vilenkin import means, operators, transform
from vilenkin import (
    SampledFunction,
    lebesgue_reports,
    make_structure,
    marcinkiewicz_means,
    maximal_function,
    maximal_function_grid,
    r_factor,
    v_component,
    v_component_grid,
    v_maximal,
    v_sup_grid,
    vilenkin_column,
    w_operator_2d,
    w_sequence,
)

from vilenkin.operators import v_kernel_table

from conftest import random_sample


def _character_2d(s, a, b):
    return SampledFunction(s, np.outer(vilenkin_column(s, a), vilenkin_column(s, b)))


def test_w2d_constant_zero_and_order_zero():
    s = make_structure((2, 3, 2))
    f = SampledFunction(s, np.full((s.size, s.size), -2.0 + 0.5j))
    for j in range(s.depth + 1):
        assert w_operator_2d(f, 5, 7, j) == 0.0
    g = random_sample(s, np.random.default_rng(1))
    # order zero keeps only the boundary sums with s = i = 0
    value = w_operator_2d(g, 2, 3, 0)
    absdiff = np.abs(g.values - g.values[2, 3])
    size = s.size
    everything = np.arange(size)
    expected = 0.0
    for shift in range(1, s.radices[0]):
        shifted = s.interval_indices(1, shift)  # digit 0 pinned to the shift
        expected += absdiff[np.ix_(s.sub(2, everything), s.sub(3, shifted))].sum()
        expected += absdiff[np.ix_(s.sub(2, shifted), s.sub(3, everything))].sum()
    assert value == pytest.approx(expected / size**2, abs=1e-12)


def test_w2d_character_strictly_positive_past_order():
    s = make_structure((2, 3, 2))
    for a in (1, 2):
        f = _character_2d(s, a, a)
        order = s.index_order(a)
        for j in range(order + 1, s.depth + 1):
            assert w_operator_2d(f, 0, 0, j) > 1e-3


def test_w_equals_sum_of_components(rng):
    s = make_structure((2, 3, 2))
    for _ in range(4):
        f = random_sample(s, rng)
        x = int(rng.integers(s.size))
        y = int(rng.integers(s.size))
        shifted = SampledFunction(s, np.abs(f.values - f.values[x, y]))
        for n in range(1, s.depth + 1):
            w = w_operator_2d(f, x, y, n)
            v = sum(v_component(shifted, x, y, n, c).real for c in range(1, 5))
            assert w == pytest.approx(v, abs=1e-10)


def test_w_subadditive_at_fixed_point(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    g = random_sample(s, rng)
    fg = SampledFunction(s, f.values + g.values)
    for x, y in [(0, 0), (2, 5), (4, 1)]:
        for n in range(1, s.depth + 1):
            assert w_operator_2d(fg, x, y, n) <= (
                w_operator_2d(f, x, y, n) + w_operator_2d(g, x, y, n) + 1e-10
            )


def test_v_components_nonnegative_for_nonnegative_input(rng):
    s = make_structure((2, 3))
    f = SampledFunction(s, np.abs(random_sample(s, rng).values))
    for n in range(s.depth + 1):
        for c in range(1, 5):
            assert v_component(f, 1, 2, n, c).real >= -1e-12


def test_v_maximal_profile(rng):
    s = make_structure((2, 3))
    zero = SampledFunction(s, np.zeros((s.size, s.size)))
    profile = v_maximal(zero, 2, 3)
    assert profile.total_sup == 0.0
    f = random_sample(s, rng)
    profile = v_maximal(f, 2, 3)
    assert profile.orders == (1, 2)
    assert profile.total_sup >= abs(profile.totals[-1]) - 1e-12
    assert profile.components.shape == (2, 4)
    np.testing.assert_allclose(profile.totals, profile.components.sum(axis=1), atol=1e-12)


def test_v_sublinearity_pointwise(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    g = random_sample(s, rng)
    fg = SampledFunction(s, f.values + g.values)
    vf = v_sup_grid(f)
    vg = v_sup_grid(g)
    vfg = v_sup_grid(fg)
    assert (vfg <= vf + vg + 1e-9).all()


def test_v_grid_matches_verbatim(rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng)
    for n in range(1, s.depth + 1):
        for c in range(1, 5):
            grid = v_component_grid(f, n, c)
            for x, y in [(0, 0), (5, 3), (11, 8)]:
                assert grid[x, y] == pytest.approx(v_component(f, x, y, n, c), abs=1e-10)


def test_v_sup_grid_is_the_sup_of_the_summed_components(rng):
    s = make_structure((2, 3), 3)
    f = random_sample(s, rng)
    want = np.zeros((s.size, s.size))
    for n in range(1, s.depth + 1):
        total = sum(v_component_grid(f, n, c) for c in range(1, 5))
        want = np.maximum(want, np.abs(total))
    np.testing.assert_allclose(v_sup_grid(f), want, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "radices, depth", [((2, 3), 1), ((2, 3), 2), ((2, 3), 4), ((3, 2, 5), None), ((2, 3), 5)]
)
@pytest.mark.parametrize("real", [True, False])
def test_v_sup_grid_with_packed_orders_is_the_sup_of_the_summed_components(
    rng, radices, depth, real
):
    # orders pair from L down, each pair on the finer quotient of its two;
    # an odd L leaves order 1 alone, and L = 5 has two pairs beside it
    s = make_structure(radices, depth)
    f = random_sample(s, rng, real=real)
    want = np.zeros((s.size, s.size))
    for n in range(1, s.depth + 1):
        want = np.maximum(want, np.abs(sum(v_component_grid(f, n, c) for c in range(1, 5))))
    assert np.abs(v_sup_grid(f) - want).max() <= 1e-12 * want.max()


def test_linf_bound_observed_and_stable_across_depths(rng):
    per_depth = []
    for radices in [(2, 3), (2, 3, 2), (2, 3, 2, 3)]:
        s = make_structure(radices)
        constants = []
        for _ in range(4):
            f = random_sample(s, rng)
            constants.append(v_sup_grid(f).max() / np.abs(f.values).max())
        per_depth.append(max(constants))
    assert max(per_depth) < 10.0
    assert max(per_depth) / min(per_depth) < 2.0  # monitored constant, stable in depth


def test_maximal_function_basics(rng):
    s = make_structure((2, 3))
    c = SampledFunction(s, np.full((s.size, s.size), 0.75))
    assert maximal_function(c, 3, 4) == pytest.approx(0.75)
    f = _character_2d(s, 3, 1)
    assert maximal_function(f, 0, 0) == pytest.approx(1.0)
    g = random_sample(s, rng)
    star = maximal_function_grid(g)
    assert (star >= np.abs(g.values) - 1e-12).all()
    for x, y in [(0, 0), (4, 2)]:
        assert star[x, y] == pytest.approx(maximal_function(g, x, y), abs=1e-12)


def test_classify_polynomial_converges_everywhere():
    # W scales linearly with the coefficient size, so a small-amplitude
    # polynomial clears the (absolute) verdict threshold at this depth
    s = make_structure((2,), 6)
    base = _character_2d(s, 1, 1)
    f = SampledFunction(s, 0.01 * base.values)
    points = [(0, 0), (17, 43), (63, 1)]
    for report in lebesgue_reports(f, points):
        assert report.verdict == "converging"
        assert report.w_values[-1] < 0.02
        assert report.sigma_errors[-1] < 0.05
    # the W sequence itself decays geometrically whatever the amplitude
    w = w_sequence(base, 0, 0)
    assert w[-1] < w[-3] < w[0]


def test_classify_interface_point_flags_divergence():
    s = make_structure((2,), 6)
    mask = np.arange(s.size) % 2 == 0
    f = SampledFunction(s, np.outer(mask, mask).astype(complex))
    (report,) = lebesgue_reports(f, [(0, 0)])
    assert report.verdict == "non-converging"
    assert report.w_values[-1] > 0.2


def test_classify_report_serialization(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    (report,) = lebesgue_reports(f, [(3, 4)])
    payload = report.to_dict()
    assert set(payload) == {"x_digits", "y_digits", "W", "sigma_err", "verdict"}
    assert len(payload["W"]) == s.depth
    assert len(payload["sigma_err"]) == s.depth
    assert payload["x_digits"] == list(s.digits(3))


def test_random_function_fraction_reported(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    reports = lebesgue_reports(f, [(x, y) for x in range(3) for y in range(3)])
    verdicts = {r.verdict for r in reports}
    assert verdicts <= {"converging", "non-converging", "inconclusive"}


def test_lebesgue_reports_transform_once_and_match_the_multiplier_means(monkeypatch, rng):
    for radices, depth in [((2, 3), 3), ((2,), 5), ((3, 2, 5), None)]:
        s = make_structure(radices, depth)
        f = random_sample(s, rng)
        points = [(0, 0), (5, 7), (11, 2), (s.size - 1, s.size // 3)]
        for index_base in (0, 1):
            calls = []

            def counted(g, _forward=transform.forward):
                calls.append(g)
                return _forward(g)

            # every namespace that binds forward, so no call escapes the count
            with monkeypatch.context() as patch:
                for module in (transform, operators, means, vilenkin):
                    patch.setattr(module, "forward", counted)
                reports = lebesgue_reports(f, points, index_base=index_base)
            assert len(calls) == 1
            for j in range(1, s.depth + 1):
                sigma = marcinkiewicz_means(f, s.orders[j], "multiplier", index_base).values
                for report in reports:
                    want = abs(sigma[report.x, report.y] - f.values[report.x, report.y])
                    assert report.sigma_errors[j - 1] == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("index_base", [0, 1])
def test_sigma_multiplier_lives_on_the_quotient(index_base):
    s = make_structure((2, 3), 4)
    for j in range(1, s.depth + 1):
        order = s.orders[j]
        full = means.sigma_multiplier(s, order, index_base)
        quotient = means.sigma_multiplier(s.quotient(j), order, index_base)
        assert np.array_equal(quotient, full[:order, :order])
        outside = full.copy()
        outside[:order, :order] = 0
        assert not outside.any()


def test_lebesgue_reports_invert_each_mean_on_its_quotient(monkeypatch, rng):
    s = make_structure((2, 3), 4)
    f = random_sample(s, rng)
    sizes = []

    def counted(spectrum, _inverse=transform.inverse):
        sizes.append(spectrum.structure.size)
        return _inverse(spectrum)

    # every namespace that binds inverse, so no call escapes the count
    for module in (transform, operators, means, vilenkin):
        monkeypatch.setattr(module, "inverse", counted)
    lebesgue_reports(f, [(0, 0), (7, 30)])
    assert sizes == list(s.orders[1:])


def _w_values_per_order(f, x, y, orders):
    """W_j(x, y) with each order's coset sums taken from the full gather."""
    s = f.structure
    everything = np.arange(s.size)
    gathered = np.abs(f.values - f.values[x, y])[np.ix_(s.sub(x, everything), s.sub(y, everything))]
    values = []
    for j in orders:
        kernel = operators._w_kernel(s, j)
        period, reps = len(kernel), s.size // len(kernel)
        sums = gathered.reshape(reps, period, reps, period).sum(axis=(0, 2))
        values.append(np.vdot(kernel, sums))
    return np.array(values)


@pytest.mark.parametrize("radices, depth", [((2, 3), 4), ((2,), 6), ((3, 2, 5), None)])
def test_w_values_summed_fine_to_coarse_match_the_per_order_sums(rng, radices, depth):
    s = make_structure(radices, depth)
    f = random_sample(s, rng)
    L = s.depth
    for orders in (range(L + 1), [1, L, 0, L - 1, 1], [0], [L]):
        for x, y in [(0, 0), (s.size - 1, 5), (7, s.size // 2)]:
            got = operators._w_values(f, x, y, orders)
            want = _w_values_per_order(f, x, y, orders)
            assert got.shape == (len(orders),)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _w_values_per_point(f, x, y, orders):
    """The per-point route, kept as the oracle: the np.ix_ gather of
    the complex |f - f(x, y)|, then the fine-to-coarse fold."""
    structure = f.structure
    orders = list(orders)
    everything = np.arange(structure.size)
    rows, cols = structure.sub(x, everything), structure.sub(y, everything)
    sums = np.abs(f.values - f.values[x, y])[np.ix_(rows, cols)]
    level = structure.depth
    values = {}
    for j in sorted(set(orders), reverse=True):
        kernel = operators._w_kernel(structure, j)
        while structure.orders[level] > len(kernel):
            level -= 1
            m, period = structure.radices[level], structure.orders[level]
            sums = sums.reshape(m, period, m, period).sum(axis=(0, 2))
        values[j] = np.vdot(kernel, sums)
    return np.array([values[j] for j in orders])


def _batch(s):
    """Points with a repeat and two on one row."""
    return np.array([0, s.size - 1, 7, 7, 7]), np.array([0, 5, s.size // 2, s.size // 2, 3])


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("radices, depth", [((2, 3), 4), ((2,), 6), ((3, 2, 5), None)])
def test_w_values_over_a_batch_equal_the_per_point_route(rng, radices, depth, real):
    s = make_structure(radices, depth)
    f = random_sample(s, rng, real=real)
    L = s.depth
    xs, ys = _batch(s)
    for orders in (range(L + 1), [1, L, 0, L - 1, 1], [0], [L]):
        got = operators._w_values(f, xs, ys, orders)
        want = [_w_values_per_point(f, x, y, orders) for x, y in zip(xs.tolist(), ys.tolist())]
        assert got.shape == (len(xs), len(orders))
        assert np.array_equal(got, want)


def test_one_imaginary_sample_point_takes_the_complex_read(rng):
    s = make_structure((2, 3), 4)
    values = random_sample(s, rng, real=True).values.copy()
    values[-1, -1] += 0.5j
    f = SampledFunction(s, values)
    orders = range(s.depth + 1)
    xs, ys = _batch(s)
    got = operators._w_values(f, xs, ys, orders)
    want = [_w_values_per_point(f, x, y, orders) for x, y in zip(xs.tolist(), ys.tolist())]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    # the real part alone gives other values, so a read that missed the
    # imaginary point would fail above
    real_part = SampledFunction(s, values.real)
    assert not np.allclose(operators._w_values(real_part, xs, ys, orders), want, rtol=1e-6)


def test_lebesgue_reports_call_w_values_once_per_batch(monkeypatch, rng):
    s = make_structure((2, 3), 4)
    f = random_sample(s, rng)
    batches = [[(0, 0), (5, 7), (5, 7), (11, 2), (11, 30)], [(s.size - 1, 3)]]
    calls = []
    w_values = operators._w_values

    def counted(*args):
        calls.append(args)
        return w_values(*args)

    monkeypatch.setattr(operators, "_w_values", counted)
    reports = [lebesgue_reports(f, points) for points in batches]
    assert len(calls) == len(batches)
    monkeypatch.undo()
    for batch, points in zip(reports, batches):
        for report, (x, y) in zip(batch, points):
            assert report.w_values == tuple(w_sequence(f, x, y))
            assert (report.x_digits, report.y_digits) == (s.digits(x), s.digits(y))
    assert reports[0][1] == reports[0][2]


@pytest.mark.parametrize(
    "radices, depth",
    [((2,), 8), ((2, 3), 6), ((3, 2, 5), None), ((67,), None), ((2, 67), None), ((3,), 1)],
)
def test_translation_rows_equal_the_group_difference(radices, depth):
    s = make_structure(radices, depth)
    xs = np.arange(s.size)
    rows = list(operators._translations(s, xs))
    assert np.array_equal(rows, s.sub(xs[:, None], np.arange(s.size)))


def test_lebesgue_reports_make_as_many_sub_calls_on_48_points_as_on_5(monkeypatch):
    s = make_structure((2,), 8)
    f = random_sample(s, np.random.default_rng(3), real=True)
    calls = []
    sub = vilenkin.GroupStructure.sub

    def counted(self, x, y):
        calls.append(1)
        return sub(self, x, y)

    monkeypatch.setattr(vilenkin.GroupStructure, "sub", counted)
    counts = []
    for size in (5, 48):
        calls.clear()
        lebesgue_reports(f, np.random.default_rng(size).integers(s.size, size=(size, 2)))
        counts.append(len(calls))
    assert counts[0] == counts[1] < 2 * 5


def test_lebesgue_reports_reject_a_1d_sample_and_a_bad_index_base(rng):
    s = make_structure((2, 3))
    with pytest.raises(ValueError, match="2-D"):
        lebesgue_reports(random_sample(s, rng, arity=1), [(0, 0)])
    with pytest.raises(ValueError, match="index_base"):
        lebesgue_reports(random_sample(s, rng), [(0, 0)], index_base=2)


def test_point_indices_out_of_range_rejected(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    f1 = random_sample(s, rng, arity=1)
    for bad in (-1, s.size):
        calls = [
            lambda: w_operator_2d(f, bad, 0, 1),
            lambda: w_operator_2d(f, 0, bad, 1),
            lambda: w_sequence(f, bad, 0),
            lambda: v_component(f, 0, bad, 1, 1),
            lambda: lebesgue_reports(f, [(bad, 0)]),
            lambda: lebesgue_reports(f, [(0, 0), (0, bad)]),
            lambda: maximal_function(f, bad, 0),
        ]
        # the evaluators that take index arrays reject a bad index inside one too
        for point in (bad, np.array([0, bad])):
            calls += [
                lambda point=point: vilenkin.rademacher(s, 0, point),
                lambda point=point: vilenkin.rademacher_power_sum(s, 0, point),
                lambda point=point: vilenkin.vilenkin(s, 1, point),
                lambda point=point: vilenkin.dirichlet(s, 2, point),
                lambda point=point: vilenkin.dirichlet_shift(s, 0, 1, 1, point),
                lambda point=point: vilenkin.r_factor(s, 0, 1, point, 0),
                lambda point=point: vilenkin.r_factor(s, 0, 1, 0, point),
                lambda point=point: vilenkin.r_factor_closed(s, 0, 1, point, 0),
                lambda point=point: vilenkin.r_factor_closed(s, 0, 1, 0, point),
                lambda point=point: vilenkin.kernel_decomposition_rhs(s, 1, point, 0),
                lambda point=point: vilenkin.kernel_decomposition_rhs(s, 1, 0, point),
                lambda point=point: vilenkin.scale_sum_majorant(s, 3, point),
                lambda point=point: vilenkin.double_shift_majorant(s, 3, point),
                lambda point=point: vilenkin.block_shift_majorant(s, 1, point),
                lambda point=point: vilenkin.kernel_majorant_2d(s, 3, point, 0),
                lambda point=point: vilenkin.kernel_majorant_2d(s, 3, 0, point),
                lambda point=point: s.add(point, 0),
                lambda point=point: s.add(0, point),
                lambda point=point: s.sub(point, 0),
                lambda point=point: s.sub(0, point),
                lambda point=point: vilenkin.block_dirichlet(s, 1, point),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="point index"):
                call()
    # a point that is not an integer, or not a pair, fails as loudly
    for call in (
        lambda: lebesgue_reports(f, [(1.5, 2)]),
        lambda: w_sequence(f, 1.0, 2),
        lambda: vilenkin.rademacher(s, 0, np.array([0.0, 1.0])),
    ):
        with pytest.raises(ValueError, match="point index"):
            call()
    for points in ([(1, 2, 3)], [1, 2]):
        with pytest.raises(ValueError, match="pairs"):
            lebesgue_reports(f, points)


def test_two_dimensional_operators_reject_a_1d_sample(rng):
    s = make_structure((2, 3))
    f1 = random_sample(s, rng, arity=1)
    # each of these checks the arity itself, and names itself
    own = {
        "w_operator_2d": lambda: w_operator_2d(f1, 0, 0, 1),
        "w_sequence": lambda: w_sequence(f1, 0, 0),
        "v_component": lambda: v_component(f1, 0, 0, 1, 1),
        "v_component_grid": lambda: v_component_grid(f1, 1, 1),
        "v_sup_grid": lambda: v_sup_grid(f1),
        "maximal_function": lambda: maximal_function(f1, 0, 0),
        "maximal_function_grid": lambda: maximal_function_grid(f1),
        "lebesgue_reports": lambda: lebesgue_reports(f1, [(0, 0)]),
        "partial_sum_2d": lambda: means.partial_sum_2d(f1, 1, 1),
        "marcinkiewicz_means": lambda: marcinkiewicz_means(f1, 2),
        "weak_type_check": lambda: vilenkin.weak_type_check(f1),
        "v_maximal": lambda: v_maximal(f1, 0, 0),
        "hardy_quasinorm": lambda: vilenkin.hardy_quasinorm(f1, 1.0),
    }
    for name, call in own.items():
        with pytest.raises(ValueError, match=f"^{name} needs a 2-D sample$"):
            call()
    f2 = random_sample(s, rng)
    with pytest.raises(ValueError, match="needs a 1-D sample"):
        means.fejer_means_1d(f2, 2)


def test_v_orders_out_of_range_rejected_before_anything_is_stored(rng):
    s = make_structure((2, 3), 3)
    f = random_sample(s, rng)
    for bad in (-1, s.depth + 1):
        for comp in range(1, 5):
            with pytest.raises(ValueError, match="order"):
                v_kernel_table(s, bad, comp)
            with pytest.raises(ValueError, match="order"):
                v_component_grid(f, bad, comp)
            with pytest.raises(ValueError, match="order"):
                v_component(f, 0, 0, bad, comp)
    assert s.table_stats()["tables"] == 0


def _r_product_loop(s, i, n):
    """r_{i,n} over the grid as the product of power sums, one digit at a time."""
    values = np.ones(s.size, dtype=np.complex128)
    for l in range(i, n + 1):
        m = s.radices[l]
        digit = s.digit_table[:, l]
        power_sum = np.zeros(s.size, dtype=np.complex128)
        for t in range(m):
            power_sum += s.root_tables[l][(t * digit) % m]
        values *= power_sum
    return values


@pytest.mark.parametrize("radices, depth", [((2, 3), 6), ((2,), 8), ((3, 2, 5), None)])
def test_r_product_table_equals_the_product_loop_bit_for_bit(radices, depth):
    s = make_structure(radices, depth)
    everything = np.arange(s.size)
    for i in range(s.depth + 1):
        for n in range(i - 1, s.depth):
            assert r_factor(s, i, n, 0, everything).tobytes() == _r_product_loop(s, i, n).tobytes()


@pytest.mark.parametrize("radices, depth", [((2, 3), 4), ((2,), 6), ((3, 2, 5), None)])
def test_tiled_w_kernel_equals_the_summed_v_kernels(radices, depth):
    # the kernel form of criterion 06: W's kernel, built from W's own sums and
    # the r product, against V's, built from the closed-form indicator
    s = make_structure(radices, depth)
    for j in range(s.depth + 1):
        period = operators._w_kernel(s, j)
        reps = s.size // period.shape[0]
        want = sum(v_kernel_table(s, j, comp) for comp in range(1, 5)) / s.size**2
        got = np.tile(period, (reps, reps))
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_w_kernels_store_one_period_each_and_own_their_bytes(rng):
    s = make_structure((2,), 8)
    w_sequence(random_sample(s, rng), 3, 200)
    kernels = {key[1]: table for key, table in s._store.tables.items() if key[0] == "w_kernel"}
    assert sorted(kernels) == list(range(1, s.depth + 1))
    # a view would keep its whole base grid alive, so count the base's bytes
    held = sum((table if table.base is None else table.base).nbytes for table in kernels.values())
    periods = [s.orders[min(j + 1, s.depth)] for j in kernels]
    assert held == 8 * sum(p * p for p in periods) == 1_223_296


def _v_depth(s, n, comp):
    """K with V_n^(comp)'s kernel depending only on the digits below K (at least 1)."""
    return max(1, min(n + (comp > 2), s.depth))


def test_v_component_grid_at_order_zero_matches_verbatim(rng):
    s = make_structure((2, 3), 3)
    f = random_sample(s, rng)
    for comp in range(1, 5):
        grid = v_component_grid(f, 0, comp)
        assert grid.shape == (s.size, s.size)
        for x, y in [(0, 0), (5, 3), (11, 7)]:
            assert abs(grid[x, y] - v_component(f, x, y, 0, comp)) <= 1e-12
        if comp in (1, 2):
            # no terms at order 0: the zero grid
            assert not grid.any()


@pytest.mark.parametrize("radices, depth", [((2, 3), 5), ((2,), 6), ((3, 2, 5), None)])
def test_every_v_component_grid_is_its_coset_period_tiled(rng, radices, depth):
    s = make_structure(radices, depth)
    f = random_sample(s, rng)
    for n in range(s.depth + 1):
        for comp in range(1, 5):
            g = v_component_grid(f, n, comp)
            period = s.orders[_v_depth(s, n, comp)]
            reps = s.size // period
            assert np.array_equal(g, np.tile(g[:period, :period], (reps, reps)))


@pytest.mark.parametrize("radices, depth", [((2, 3), 5), ((2,), 6), ((3, 2, 5), None)])
def test_quotient_kernel_is_the_leading_square_of_the_full_kernel(radices, depth):
    s = make_structure(radices, depth)
    for n in range(s.depth + 1):
        for comp in range(1, 5):
            quotient = s.quotient(_v_depth(s, n, comp))
            coarse = v_kernel_table(quotient, n, comp)
            full = v_kernel_table(s, n, comp)
            period, reps = quotient.size, s.size // quotient.size
            assert coarse.shape == (period, period) and full.shape == (s.size, s.size)
            assert np.array_equal(coarse, full[:period, :period])
            assert np.array_equal(full, np.tile(coarse, (reps, reps)))


def test_one_atom_keeps_its_quotient_kernels_in_the_parent_budget():
    from vilenkin import group, make_atom, quasilocality_integral, weak_type_check

    s = make_structure((2, 3), 6)
    for seed, p, N in ((1, 0.6, 1), (2, 0.8, 2)):
        atom = make_atom(s, p, N, seed=seed)
        quasilocality_integral(atom)
        weak_type_check(atom.function)
        if seed == 1:
            after_first = s.table_stats()
    stats = s.table_stats()
    # the second atom reads only tables the first one stored
    assert stats["misses"] == after_first["misses"]
    tables = s._store.tables
    quotient_kernels = [
        table for key, table in tables.items() if key[0] == "quotient" and key[2][0] == "v_kernel"
    ]
    # components 1-2 at n on G/I_n and 3-4 on G/I_{n+1}; v_sup_grid reads every
    # component of a pair of orders n, n + 1 on G/I_{min(n+2,L)}
    assert len(quotient_kernels) > 0
    # the parent keeps only the kernels whose quotient is the whole group
    assert all(key[1] >= s.depth - 1 for key in tables if key[0] == "v_kernel")
    assert stats["bytes"] == sum(table.nbytes for table in tables.values())
    assert stats["bytes"] <= group.TABLE_BUDGET_BYTES
    assert sum(table.nbytes for table in quotient_kernels) < stats["bytes"]
