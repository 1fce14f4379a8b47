import math

import numpy as np
import pytest

from vilenkin import (
    SampledFunction,
    Spectrum,
    character_table,
    convolve,
    forward,
    inverse,
    make_structure,
    naive_convolve,
    naive_forward,
    naive_inverse,
    vilenkin,
    vilenkin_column,
)
from vilenkin.group import GroupStructure
from vilenkin.transform import BLOCK_POINTS, _block_matrix, digit_blocks

from conftest import oracle_forward_1d, random_sample, translate


def test_constant_transforms_to_delta():
    s = make_structure((2, 3))
    f = SampledFunction(s, np.ones(s.size))
    coeffs = forward(f).coefficients
    expected = np.zeros(s.size)
    expected[0] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_character_transforms_to_delta():
    s = make_structure((2, 3, 2))
    for k in (0, 3, 7, 11):
        f = SampledFunction(s, vilenkin_column(s, k))
        coeffs = forward(f).coefficients
        expected = np.zeros(s.size)
        expected[k] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_interval_indicator_table_against_oracle():
    radices = (2, 3)
    s = make_structure(radices)
    values = np.zeros(s.size, dtype=complex)
    values[s.interval_indices(1, 0)] = 1.0
    coeffs = forward(SampledFunction(s, values)).coefficients
    oracle = oracle_forward_1d(radices, values)
    np.testing.assert_allclose(coeffs, oracle, atol=1e-12)
    assert coeffs[0] == pytest.approx(0.5)
    assert coeffs[1] == pytest.approx(0.5)
    assert np.abs(coeffs[2:]).max() < 1e-12


def test_delta_synthesizes_character():
    s = make_structure((2, 3))
    spec = np.zeros(s.size, dtype=complex)
    spec[0] = 1.0
    np.testing.assert_allclose(
        inverse(Spectrum(s, spec)).values, np.ones(s.size), atol=1e-12
    )
    spec = np.zeros(s.size, dtype=complex)
    spec[4] = 1.0
    np.testing.assert_allclose(
        inverse(Spectrum(s, spec)).values, vilenkin_column(s, 4), atol=1e-12
    )


@pytest.mark.parametrize("radices", [(2, 2, 2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 3), (6, 6, 6)])
def test_roundtrip_parseval_and_naive_1d(radices, rng):
    s = make_structure(radices)
    f = random_sample(s, rng, arity=1)
    spectrum = forward(f)
    np.testing.assert_allclose(inverse(spectrum).values, f.values, atol=1e-12)
    energy_grid = np.mean(np.abs(f.values) ** 2)
    energy_spec = np.sum(np.abs(spectrum.coefficients) ** 2)
    assert energy_grid == pytest.approx(energy_spec, abs=1e-12)
    np.testing.assert_allclose(
        spectrum.coefficients, naive_forward(f).coefficients, atol=1e-12
    )
    np.testing.assert_allclose(naive_inverse(spectrum).values, f.values, atol=1e-12)


def test_roundtrip_parseval_large_grid(rng):
    s = make_structure((2, 3), 8)  # grid 1296
    f = random_sample(s, rng, arity=1)
    spectrum = forward(f)
    np.testing.assert_allclose(inverse(spectrum).values, f.values, atol=1e-12)
    assert np.mean(np.abs(f.values) ** 2) == pytest.approx(
        np.sum(np.abs(spectrum.coefficients) ** 2), abs=1e-12
    )


@pytest.mark.parametrize("radices", [(2, 3), (2, 3, 2), (2, 3, 2, 3)])
def test_fast_equals_naive_2d(radices, rng):
    s = make_structure(radices)
    f = random_sample(s, rng)
    np.testing.assert_allclose(
        forward(f).coefficients, naive_forward(f).coefficients, atol=1e-12
    )
    np.testing.assert_allclose(inverse(forward(f)).values, f.values, atol=1e-12)


# radix lists with their digit blocks: balanced blocks, a tie of sizes that
# keeps the larger block first, and radices above BLOCK_POINTS, which are
# blocks of their own
BLOCKINGS = [
    ((2, 3, 2, 3, 2, 3), ((3, 2, 3), (2, 3, 2))),
    ((2, 2, 2, 2, 2, 2, 2), ((2, 2, 2, 2), (2, 2, 2))),
    ((67,), ((67,),)),
    ((2, 67), ((67,), (2,))),
]


@pytest.mark.parametrize("radices, blocks", BLOCKINGS)
def test_digit_blocks(radices, blocks):
    s = make_structure(radices)
    assert digit_blocks(s) == blocks


def _every_cut(digits):
    """Every cut of ``digits`` into contiguous runs."""
    for mask in range(2 ** (len(digits) - 1)):
        blocks, start = [], 0
        for i in range(1, len(digits)):
            if mask >> (i - 1) & 1:
                blocks.append(digits[start:i])
                start = i
        yield tuple(blocks) + (digits[start:],)


def test_digit_blocks_are_the_fewest_then_the_smallest_cut(rng):
    for _ in range(60):
        radices = [int(m) for m in rng.choice([2, 3, 5, 7], size=int(rng.integers(1, 10)))]
        if rng.random() < 0.5:
            radices.insert(int(rng.integers(len(radices) + 1)), 67)
        s = GroupStructure(radices, grid_cap=10**40)
        digits = tuple(reversed(s.radices))
        valid = [
            cut
            for cut in _every_cut(digits)
            if all(len(block) == 1 or math.prod(block) <= BLOCK_POINTS for block in cut)
        ]
        best = min((len(cut), sum(map(math.prod, cut))) for cut in valid)
        blocks = digit_blocks(s)
        assert blocks in valid
        assert (len(blocks), sum(map(math.prod, blocks))) == best


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("radices", [radices for radices, _ in BLOCKINGS])
def test_blocked_transform_equals_naive_and_round_trips(radices, arity, rng):
    s = make_structure(radices)
    f = random_sample(s, rng, arity=arity)
    spectrum = forward(f)
    back = inverse(spectrum).values
    exact = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectrum.coefficients, naive_forward(f).coefficients, **exact)
    np.testing.assert_allclose(back, naive_inverse(spectrum).values, **exact)
    np.testing.assert_allclose(back, f.values, **exact)
    energy_grid = np.mean(np.abs(f.values) ** 2)
    assert np.sum(np.abs(spectrum.coefficients) ** 2) == pytest.approx(energy_grid, rel=0, abs=1e-12)


def test_radix_above_the_block_cap_stores_no_dense_matrix(rng):
    s = make_structure((2, 67))
    inverse(forward(random_sample(s, rng)))
    # one real 2x2 Hadamard matrix for both signs and nothing of size 67
    assert s.table_stats()["bytes"] == 2 * 2 * 8


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("depth", range(1, 9))
def test_walsh_transform_of_a_real_sample_is_real(depth, arity, rng):
    s = make_structure((2,), depth)
    f = random_sample(s, rng, arity=arity, real=True)
    spectrum = forward(f)
    assert not spectrum.coefficients.imag.any()
    np.testing.assert_allclose(spectrum.coefficients, naive_forward(f).coefficients, rtol=0, atol=1e-12)
    back = inverse(spectrum).values
    assert not back.imag.any()
    np.testing.assert_allclose(back, f.values, rtol=0, atol=1e-12)


def test_one_imaginary_sample_point_takes_the_complex_transform(rng):
    s = make_structure((2,), 5)
    values = random_sample(s, rng, real=True).values.copy()
    values[-1, -1] += 0.5j
    f = SampledFunction(s, values)
    coeffs = forward(f).coefficients
    np.testing.assert_allclose(coeffs, naive_forward(f).coefficients, rtol=0, atol=1e-12)
    np.testing.assert_allclose(inverse(Spectrum(s, coeffs)).values, values, rtol=0, atol=1e-12)
    # the real part alone gives other coefficients, so a transform that
    # dropped the imaginary point would fail above
    real_part = forward(SampledFunction(s, values.real)).coefficients
    assert np.abs(coeffs - real_part).min() > 0.5 / s.size**2 - 1e-12


def test_walsh_convolution_theorem(rng):
    s = make_structure((2,), 5)
    for real in (True, False):
        f = random_sample(s, rng, arity=1, real=real)
        g = random_sample(s, rng, arity=1, real=real)
        lhs = forward(convolve(f, g)).coefficients
        rhs = forward(f).coefficients * forward(g).coefficients
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(convolve(f, g).values, naive_convolve(f, g).values, rtol=0, atol=1e-10)


def test_walsh_blocks_are_one_real_hadamard_table_and_others_stay_complex():
    walsh = make_structure((2,), 8)
    for block in digit_blocks(walsh):
        table = _block_matrix(walsh, block, -1)
        assert table is _block_matrix(walsh, block, 1)
        assert table.dtype == np.float64
        assert np.array_equal(table, np.sign(character_table(make_structure(block)).real))
    mixed = make_structure((2, 3), 6)
    for block in digit_blocks(mixed):
        for sign in (-1, 1):
            assert _block_matrix(mixed, block, sign).dtype == np.complex128


def test_convolution_theorem(rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng, arity=1)
    g = random_sample(s, rng, arity=1)
    lhs = forward(convolve(f, g)).coefficients
    rhs = forward(f).coefficients * forward(g).coefficients
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("arity", [1, 2])
def test_convolve_matches_naive(arity, rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng, arity=arity)
    g = random_sample(s, rng, arity=arity)
    np.testing.assert_allclose(
        convolve(f, g).values, naive_convolve(f, g).values, atol=1e-10
    )


def test_convolve_with_block_kernel_averages(rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng, arity=1)
    n = 1
    kernel = np.zeros(s.size, dtype=complex)
    kernel[s.interval_indices(n, 0)] = s.orders[n]
    smoothed = convolve(f, SampledFunction(s, kernel))
    for x in range(s.size):
        average = f.values[s.interval_indices(n, x)].mean()
        assert smoothed.values[x] == pytest.approx(average, abs=1e-12)


def test_convolve_with_constant_gives_mean(rng):
    s = make_structure((2, 3))
    f = random_sample(s, rng, arity=1)
    out = convolve(f, SampledFunction(s, np.ones(s.size)))
    np.testing.assert_allclose(out.values, np.full(s.size, f.values.mean()), atol=1e-12)


def test_characters_idempotent_under_convolution():
    s = make_structure((2, 3))
    for a in (1, 3, 5):
        psi = SampledFunction(s, vilenkin_column(s, a))
        np.testing.assert_allclose(convolve(psi, psi).values, psi.values, atol=1e-12)


def test_translation_covariance(rng):
    s = make_structure((2, 3, 2))
    f = random_sample(s, rng, arity=1)
    base = forward(f).coefficients
    for _ in range(5):
        a = int(rng.integers(s.size))
        shifted = forward(translate(f, a)).coefficients
        factors = np.array([vilenkin(s, n, a).conjugate() for n in range(s.size)])
        np.testing.assert_allclose(shifted, factors * base, atol=1e-12)


def test_structure_mismatch_rejected(rng):
    f = random_sample(make_structure((2, 3)), rng, arity=1)
    g = random_sample(make_structure((3, 2)), rng, arity=1)
    with pytest.raises(ValueError, match="structure-mismatch"):
        convolve(f, g)


def test_values_validation():
    s = make_structure((2, 3))
    with pytest.raises(ValueError, match="structure-mismatch"):
        SampledFunction(s, np.ones(5))
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(s, np.array([np.nan] * s.size))
