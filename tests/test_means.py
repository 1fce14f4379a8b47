import numpy as np
import pytest

import vilenkin
from vilenkin import means, transform
from vilenkin import (
    SampledFunction,
    convolve,
    dirichlet_table,
    evaluate_means,
    fejer_kernel_1d,
    fejer_means_1d,
    make_structure,
    marcinkiewicz_kernel,
    marcinkiewicz_means,
    means_error,
    partial_sum_2d,
    sigma_multiplier,
    vilenkin_column,
)

from conftest import random_sample, translate


def _character_2d(s, a, b):
    return SampledFunction(s, np.outer(vilenkin_column(s, a), vilenkin_column(s, b)))


def test_partial_sum_edges(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    np.testing.assert_allclose(
        partial_sum_2d(f, 0, 0).values, np.zeros((s.size, s.size)), atol=1e-12
    )
    np.testing.assert_allclose(partial_sum_2d(f, s.size, s.size).values, f.values, atol=1e-12)


def test_partial_sum_single_character():
    s = make_structure((2, 3))
    a, b = 3, 1
    f = _character_2d(s, a, b)
    for M in range(s.size + 1):
        for N in (0, 2, 4, 6):
            out = partial_sum_2d(f, M, N).values
            if M > a and N > b:
                np.testing.assert_allclose(out, f.values, atol=1e-12)
            else:
                np.testing.assert_allclose(out, 0 * f.values, atol=1e-12)


def test_partial_sum_block_is_conditional_expectation(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    for n in range(s.depth + 1):
        Mn = s.orders[n]
        out = partial_sum_2d(f, Mn, Mn).values
        for x in range(s.size):
            rows = s.interval_indices(n, x)
            for y in range(s.size):
                cols = s.interval_indices(n, y)
                assert out[x, y] == pytest.approx(
                    f.values[np.ix_(rows, cols)].mean(), abs=1e-12
                )


def test_constant_mean_both_conventions():
    s = make_structure((2, 3))
    c = 1.5 - 2.0j
    f = SampledFunction(s, np.full((s.size, s.size), c))
    for n in range(1, s.size + 1):
        zero_based = marcinkiewicz_means(f, n, "multiplier", index_base=0)
        np.testing.assert_allclose(
            zero_based.values, np.full((s.size, s.size), c * (n - 1) / n), atol=1e-12
        )
        one_based = marcinkiewicz_means(f, n, "multiplier", index_base=1)
        np.testing.assert_allclose(one_based.values, f.values, atol=1e-12)


def test_character_multiplier_formula():
    s = make_structure((2, 3))
    for a, b in [(0, 0), (1, 2), (3, 1), (5, 5)]:
        f = _character_2d(s, a, b)
        for n in range(1, s.size + 1):
            lam = max(0, n - 1 - max(a, b)) / n
            out = marcinkiewicz_means(f, n, "direct")
            np.testing.assert_allclose(out.values, lam * f.values, atol=1e-12)


def test_order_one_mean_vanishes(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    np.testing.assert_allclose(
        marcinkiewicz_means(f, 1, "kernel").values, np.zeros((s.size, s.size)), atol=1e-10
    )


def test_direct_route_transforms_once_and_matches_the_partial_sums(monkeypatch, rng):
    s = make_structure((2, 3), 2)
    f = random_sample(s, rng)
    for index_base in (0, 1):
        calls = []

        def counted(g, _forward=transform.forward):
            calls.append(g)
            return _forward(g)

        # every namespace that binds forward, so no call escapes the count
        with monkeypatch.context() as patch:
            for module in (transform, means, vilenkin):
                patch.setattr(module, "forward", counted)
            direct = marcinkiewicz_means(f, 5, "direct", index_base).values
        assert len(calls) == 1
        # the mean of the partial sums S_{j,j}, each transforming f afresh
        want = sum(partial_sum_2d(f, j, j).values for j in range(index_base, 5 + index_base)) / 5
        assert direct.tobytes() == want.tobytes()


def test_three_methods_agree_exhaustively(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    for n in range(1, s.size + 1):
        for base in (0, 1):
            assert evaluate_means(f, n, index_base=base) < 1e-9


def test_mean_is_linear_and_translation_covariant(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    g = random_sample(s, rng)
    n = 5
    lhs = marcinkiewicz_means(
        SampledFunction(s, 2.0 * f.values + g.values), n
    ).values
    rhs = 2.0 * marcinkiewicz_means(f, n).values + marcinkiewicz_means(g, n).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    shift = (3, 4)
    lhs = marcinkiewicz_means(translate(f, shift), n).values
    rhs = translate(marcinkiewicz_means(f, n), shift).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_fejer_1d_edges_and_multiplier(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng, arity=1)
    np.testing.assert_allclose(fejer_means_1d(f, 1).values, np.zeros(s.size), atol=1e-12)
    for a in (0, 2, 4):
        psi = SampledFunction(s, vilenkin_column(s, a))
        for n in range(1, s.size + 1):
            lam = max(0, n - 1 - a) / n
            np.testing.assert_allclose(
                fejer_means_1d(psi, n).values, lam * psi.values, atol=1e-12
            )
    c = SampledFunction(s, np.full(s.size, 2.0 + 1.0j))
    for n in (1, 3, 6):
        np.testing.assert_allclose(
            fejer_means_1d(c, n).values,
            np.full(s.size, (2.0 + 1.0j) * (n - 1) / n),
            atol=1e-12,
        )


def test_fejer_1d_matches_kernel_convolution(rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng, arity=1)
    for index_base in (0, 1):
        for n in (1, 2, 5, 12):
            kernel = fejer_kernel_1d(s, n, index_base)
            # K_n = (1/n) sum of D_k over k in [base, n + base)
            terms = sum(dirichlet_table(s, k) for k in range(index_base, n + index_base))
            np.testing.assert_allclose(kernel, terms / n, rtol=0, atol=1e-12)
            via_kernel = convolve(f, SampledFunction(s, kernel))
            np.testing.assert_allclose(
                fejer_means_1d(f, n, index_base).values, via_kernel.values, atol=1e-10
            )


def test_tensor_with_constant_factorizes_but_general_tensor_does_not(rng):
    s = make_structure((2, 3))
    g = random_sample(s, rng, arity=1)
    f = SampledFunction(s, np.outer(g.values, np.ones(s.size)))
    for n in (2, 4, 6):
        lhs = marcinkiewicz_means(f, n).values
        rhs = np.outer(fejer_means_1d(g, n).values, np.ones(s.size))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # a genuine tensor product does not factor through the 1-D means
    h = random_sample(s, rng, arity=1)
    fh = SampledFunction(s, np.outer(g.values, h.values))
    n = 4
    factored = np.outer(fejer_means_1d(g, n).values, fejer_means_1d(h, n).values)
    assert np.abs(marcinkiewicz_means(fh, n).values - factored).max() > 1e-3


def test_block_order_errors_decrease_for_resolved_function():
    # f constant on depth-1 cosets: |sigma_{M_j} f - f| falls as j climbs
    s = make_structure((2, 3), 4)
    mask = np.arange(s.size) % s.orders[1] == 0
    f = SampledFunction(s, np.outer(mask, mask).astype(complex))
    errors = []
    for j in range(1, s.depth + 1):
        sigma = marcinkiewicz_means(f, s.orders[j], "multiplier")
        errors.append(float(np.abs(sigma.values - f.values).max()))
    assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
    assert errors[-1] < 0.05


def test_means_error_constant_reports_deficit():
    s = make_structure((2, 3))
    c = 3.0
    f = SampledFunction(s, np.full((s.size, s.size), c))
    for n in (2, 5):
        error, majorant = means_error(f, n, 1, 4)
        assert error == pytest.approx(c / n, abs=1e-12)
        assert majorant == 0.0
        error_one_based, _ = means_error(f, n, 1, 4, index_base=1)
        assert error_one_based == pytest.approx(0.0, abs=1e-12)


def test_means_error_character_formula():
    s = make_structure((2, 3))
    a = 1
    f = _character_2d(s, a, a)
    for n in (3, 5, 6):
        error, majorant = means_error(f, n, 2, 3)
        assert error == pytest.approx((a + 1) / n, abs=1e-12)
        assert majorant >= 0.0


def test_method_and_order_validation(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng)
    with pytest.raises(ValueError):
        marcinkiewicz_means(f, 0)
    with pytest.raises(ValueError):
        marcinkiewicz_means(f, s.size + 1)
    with pytest.raises(ValueError):
        marcinkiewicz_means(f, 2, method="magic")
    for bad in (0, s.size + 1):
        with pytest.raises(ValueError, match="mean order"):
            sigma_multiplier(s, bad)
    with pytest.raises(ValueError):
        marcinkiewicz_means(random_sample(make_structure((2, 3)), rng, arity=1), 2)
    f1 = random_sample(s, rng, arity=1)
    for call in (
        lambda: marcinkiewicz_means(f, 2, index_base=2),
        lambda: marcinkiewicz_kernel(s, 2, index_base=2),
        lambda: fejer_kernel_1d(s, 2, index_base=2),
        lambda: fejer_means_1d(f1, 2, index_base=2),
        lambda: sigma_multiplier(s, 2, index_base=2),
    ):
        with pytest.raises(ValueError, match=r"index_base 2 not in \[0, 1\]"):
            call()


def test_means_error_gathers_once_for_every_order(monkeypatch, rng):
    from vilenkin import operators, w_operator_2d

    s = make_structure((2,), 8)
    f = random_sample(s, rng)
    n, x, y = 200, 3, 5
    calls = []
    w_values = operators._w_values

    def counted(*args):
        calls.append(args[3])
        return w_values(*args)

    monkeypatch.setattr(operators, "_w_values", counted)
    _, majorant = means_error(f, n, x, y)
    assert len(calls) == 1 and list(calls[0]) == list(range(s.index_order(n) + 1))
    monkeypatch.undo()
    A = s.index_order(n)
    want = sum(s.orders[j] * w_operator_2d(f, x, y, j) for j in range(A + 1)) / n
    assert majorant == want
