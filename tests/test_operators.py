import numpy as np
import pytest

from vilenkin import (
    SampledFunction,
    classify_point,
    lebesgue_reports,
    make_structure,
    maximal_function,
    maximal_function_grid,
    v_component,
    v_component_grid,
    v_maximal,
    v_sup_grid,
    vilenkin_column,
    w_operator_1d,
    w_operator_2d,
    w_sequence,
)

from conftest import random_sample


def _character_2d(s, a, b):
    return SampledFunction(s, np.outer(vilenkin_column(s, a), vilenkin_column(s, b)))


def test_w1d_constant_and_empty():
    s = make_structure((2, 2, 2))
    f = SampledFunction(s, np.full(s.size, 4.2 + 1j))
    for A in range(s.depth + 1):
        assert w_operator_1d(f, 3, A) == 0.0
    g = random_sample(s, np.random.default_rng(0), arity=1)
    assert w_operator_1d(g, 5, 0) == 0.0


def test_w1d_indicator_decays_geometrically():
    s = make_structure((2,), 5)
    values = np.zeros(s.size, dtype=complex)
    values[s.interval_indices(1, s.basis_element(0))] = 1.0
    f = SampledFunction(s, values)
    x = 0  # interior of the complementary interval
    for A in range(1, s.depth + 1):
        # only the s = 0 shift reaches the support; its weight is 1/M_A
        assert w_operator_1d(f, x, A) == pytest.approx(1.0 / s.orders[A], abs=1e-12)


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
        order = s.index_digits(a).order
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
    report = classify_point(f, 0, 0)
    assert report.verdict == "non-converging"
    assert report.w_values[-1] > 0.2


def test_classify_report_serialization(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    report = classify_point(f, 3, 4)
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


def test_point_indices_out_of_range_rejected(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    f1 = random_sample(s, rng, arity=1)
    for bad in (-1, s.size):
        calls = [
            lambda: w_operator_1d(f1, bad, 1),
            lambda: w_operator_2d(f, bad, 0, 1),
            lambda: w_operator_2d(f, 0, bad, 1),
            lambda: w_sequence(f, bad, 0),
            lambda: v_component(f, 0, bad, 1, 1),
            lambda: classify_point(f, bad, 0),
            lambda: lebesgue_reports(f, [(0, 0), (0, bad)]),
            lambda: maximal_function(f, bad, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="point index"):
                call()
