"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or look at captured
output).  Criterion 8a checks the exact law the oscillation operator obeys
past a polynomial's spectral depth d: M_{n+1} W_{n+1} - M_n W_n = 2 B(x, y),
with B the single-digit-shift oscillation of f, so W_n decays to 0 but stays
positive wherever B > 0.  Criterion 11b checks that truncation does
not change a scan's per-order rows: the depth-3 rows equal the leading
depth-4 rows, so the 3->4 drift of the observed constants (reported as
data) is the new order block raising a running maximum.  Criterion 10a
compares quasi-locality maxima of atoms with equal resolution and order
span across support depths 1..3; those maxima still move by more than the
pinned 2x, and no document in the package says for which p, or from which
depth, they should be stable, so the test keeps failing with the measured
maxima in its message.
"""

import time
from itertools import zip_longest

import numpy as np
import pytest

from vilenkin import (
    ESTIMATE_IDS,
    SampledFunction,
    dirichlet,
    dirichlet_shift,
    estimate_scan,
    evaluate_means,
    forward,
    inverse,
    kernel_decomposition_rhs,
    make_atom,
    make_structure,
    marcinkiewicz_kernel,
    marcinkiewicz_means,
    naive_forward,
    quasilocality_integral,
    r_factor,
    r_factor_closed,
    sigma_multiplier,
    v_component,
    vilenkin_column,
    w_operator_2d,
    w_sequence,
    weak_type_check,
)

from conftest import oracle_sub, random_sample


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_kernel_decomposition_exact():
    start = time.perf_counter()
    s = make_structure((2, 3, 2, 3), 4)
    worst = 0.0
    for A in range(1, s.depth + 1):
        lhs = s.orders[A] * marcinkiewicz_kernel(s, s.orders[A])
        for x in range(s.size):
            for y in range(s.size):
                worst = max(worst, abs(lhs[x, y] - kernel_decomposition_rhs(s, A, x, y)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report("01", ok, f"max decomposition error {worst:.3e} over 1296 pairs, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_02_block_shift_identity():
    start = time.perf_counter()
    s = make_structure((2, 3, 2))
    worst = 0.0
    for A in range(s.depth):
        for j in range(s.orders[A]):
            for r in range(1, s.radices[A]):
                for x in range(s.size):
                    worst = max(
                        worst,
                        abs(
                            dirichlet_shift(s, j, r, A, x)
                            - dirichlet(s, j + r * s.orders[A], x)
                        ),
                    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("02", ok, f"max shift-identity error {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


@pytest.mark.parametrize("radices", [(2, 3, 2, 3), (2, 2, 2, 2), (3, 3, 3), (2, 3)])
def test_criterion_03_coupling_factor_closed_form(radices):
    s = make_structure(radices)
    worst = 0.0
    zero_worst = 0.0
    for i in range(s.depth + 1):
        for n in range(i - 1, s.depth):
            for x in range(s.size):
                for y in range(s.size):
                    product = r_factor(s, i, n, x, y)
                    closed = r_factor_closed(s, i, n, x, y)
                    worst = max(worst, abs(product - closed))
                    if closed == 0.0:
                        zero_worst = max(zero_worst, abs(product))
    ok = worst <= 1e-12 and zero_worst <= 1e-12
    _report("03", ok, f"radices {radices}: max error {worst:.3e}, zeros {zero_worst:.3e}")
    assert worst <= 1e-12
    assert zero_worst <= 1e-12


def test_criterion_04_mean_route_agreement(rng):
    start = time.perf_counter()
    worst = 0.0
    for depth in (2, 4):
        s = make_structure((2, 3), depth)
        f = random_sample(s, rng)
        for n in range(1, s.size + 1):
            worst = max(worst, evaluate_means(f, n).max_discrepancy)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report("04", ok, f"max cross-route discrepancy {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_05_transform_correctness_and_speed(rng):
    worst_round = worst_parseval = worst_naive = 0.0
    for radices in [(2, 2, 2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 3)]:
        s = make_structure(radices)
        f = random_sample(s, rng, arity=1)
        spectrum = forward(f)
        worst_round = max(worst_round, np.abs(inverse(spectrum).values - f.values).max())
        worst_parseval = max(
            worst_parseval,
            abs(np.mean(np.abs(f.values) ** 2) - np.sum(np.abs(spectrum.coefficients) ** 2)),
        )
        worst_naive = max(
            worst_naive,
            np.abs(spectrum.coefficients - naive_forward(f).coefficients).max(),
        )
    # benchmark at grid size 1296
    from vilenkin.group import GroupStructure

    s = make_structure((2, 3), 8)
    f = random_sample(s, rng, arity=1)
    forward(f)
    t0 = time.perf_counter()
    for _ in range(5):
        forward(f)
    fast_s = (time.perf_counter() - t0) / 5
    t0 = time.perf_counter()
    for _ in range(3):
        fresh = GroupStructure(s.radices)
        naive_forward(SampledFunction(fresh, f.values))
    naive_s = (time.perf_counter() - t0) / 3
    speedup = naive_s / fast_s
    ok = max(worst_round, worst_parseval, worst_naive) <= 1e-12 and speedup >= 10.0
    _report(
        "05",
        ok,
        f"roundtrip {worst_round:.2e}, parseval {worst_parseval:.2e}, "
        f"fast-vs-naive {worst_naive:.2e}, speedup {speedup:.0f}x at grid 1296",
    )
    assert worst_round <= 1e-12
    assert worst_parseval <= 1e-12
    assert worst_naive <= 1e-12
    assert speedup >= 10.0


def test_criterion_06_oscillation_equals_component_sum():
    s = make_structure((2, 3, 2))
    rng = np.random.default_rng(606)
    worst = 0.0
    functions = [random_sample(s, rng) for _ in range(20)]
    points = [tuple(rng.integers(s.size, size=2)) for _ in range(20)]
    for f in functions:
        for x, y in points:
            shifted = SampledFunction(s, np.abs(f.values - f.values[x, y]))
            for n in range(1, s.depth + 1):
                w = w_operator_2d(f, x, y, n)
                v = sum(v_component(shifted, x, y, n, c).real for c in range(1, 5))
                worst = max(worst, abs(w - v))
    ok = worst <= 1e-10
    _report("06", ok, f"max |W - sum V| = {worst:.3e} over 20 functions x 20 points")
    assert worst <= 1e-10


def test_criterion_07_indicator_convergence_profile():
    start = time.perf_counter()
    s = make_structure((2,), 6)
    mask = np.arange(s.size) % s.orders[1] == 0
    f = SampledFunction(s, np.outer(mask, mask).astype(complex))
    rng = np.random.default_rng(707)
    outside = np.where(~mask)[0]
    inside = np.where(mask)[0]
    off_points = {
        (int(rng.choice(outside)), int(rng.choice(outside))) for _ in range(200)
    }
    off_points = sorted(off_points)[:50]
    assert len(off_points) == 50
    interface_points = [(int(rng.choice(inside)), int(rng.choice(inside))) for _ in range(10)]

    sigma = marcinkiewicz_means(f, s.size, "multiplier")
    worst_final_w = 0.0
    worst_sigma = 0.0
    monotone = True
    for x, y in off_points:
        w = w_sequence(f, x, y)
        worst_final_w = max(worst_final_w, w[-1])
        monotone = monotone and all(w[i] >= w[i + 1] - 1e-12 for i in range(len(w) - 1))
        worst_sigma = max(worst_sigma, abs(sigma.values[x, y] - f.values[x, y]))
    min_interface_w = min(
        min(w_sequence(f, x, y)) for x, y in interface_points
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_final_w < 0.02
        and monotone
        and worst_sigma < 0.05
        and min_interface_w > 0.2
        and elapsed < 300.0
    )
    _report(
        "07",
        ok,
        f"off-interface final W {worst_final_w:.4f} (monotone {monotone}), "
        f"mean error {worst_sigma:.4f}, interface W >= {min_interface_w:.3f}, {elapsed:.0f}s",
    )
    assert worst_final_w < 0.02
    assert monotone
    assert worst_sigma < 0.05
    assert min_interface_w > 0.2
    assert elapsed < 300.0


_POLYNOMIAL_SUPPORT = {(3, 1): 1.0, (2, 5): 0.5}


def _polynomial_fixture(radices=(2, 3, 2)):
    s = make_structure(radices)
    values = sum(
        c * np.outer(vilenkin_column(s, a), vilenkin_column(s, b))
        for (a, b), c in _POLYNOMIAL_SUPPORT.items()
    )
    # spectral depth d: the least d with every support index below M_d;
    # here the top index 5 is >= M_1 = 2 and < M_2 = 6, so d = 2
    top = max(max(index) for index in _POLYNOMIAL_SUPPORT)
    d = next(k for k in range(s.depth + 1) if top < s.orders[k])
    return s, SampledFunction(s, values), d


def _single_digit_oscillation(radices, values, d, x, y):
    """B(x, y) = sum_{q<d} M_q sum_{r=1}^{m_q-1} (|f(x - r e_q, y) - f(x, y)|
    + |f(x, y - r e_q) - f(x, y)|), from samples of f and oracle digit
    arithmetic only."""
    total = 0.0
    M_q = 1
    for q in range(d):
        for r in range(1, radices[q]):
            shift = r * M_q
            total += M_q * (
                abs(values[oracle_sub(radices, x, shift), y] - values[x, y])
                + abs(values[x, oracle_sub(radices, y, shift)] - values[x, y])
            )
        M_q *= radices[q]
    return total


def test_criterion_08a_polynomial_oscillation_vanishing():
    # Past the spectral depth d the polynomial is constant on I_d cosets, so
    # each further order adds every single-digit shift q < d once through
    # the r-weighted sums and once through the boundary sums:
    #   M_{n+1} W_{n+1} - M_n W_n = 2 B(x, y)   for d <= n < L.
    # Hence W_n = (M_d W_d + 2 (n - d) B) / M_n -> 0 at every point, while
    # W_n itself stays positive wherever B > 0.
    s, f, d = _polynomial_fixture((2, 3, 2, 3))
    worst = 0.0
    smallest_b = np.inf
    for x in range(s.size):
        for y in range(s.size):
            b = _single_digit_oscillation(s.radices, f.values, d, x, y)
            smallest_b = min(smallest_b, b)
            scaled = {
                n: s.orders[n] * w_operator_2d(f, x, y, n) for n in range(d, s.depth + 1)
            }
            for n in range(d, s.depth):
                worst = max(worst, abs(scaled[n + 1] - scaled[n] - 2.0 * b))
    ok = worst <= 1e-12
    detail = (
        f"max |M_(n+1) W_(n+1) - M_n W_n - 2B| = {worst:.3e} for n = {d}..{s.depth - 1} "
        f"over {s.size ** 2} points, min B = {smallest_b:.3f}"
    )
    _report("08a", ok, detail)
    assert worst <= 1e-12, detail


def test_criterion_08b_polynomial_multiplier_exactness():
    from vilenkin import Spectrum

    s, f, d = _polynomial_fixture()
    coeffs = forward(f).coefficients
    lam = sigma_multiplier(s, s.size)
    expected = inverse(Spectrum(s, coeffs * lam)).values
    actual = marcinkiewicz_means(f, s.size, "direct").values
    worst = float(np.abs(actual - expected).max())
    ok = worst <= 1e-10
    _report("08b", ok, f"full-order mean matches multiplier formula to {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_09_atom_vanishing_patterns():
    s = make_structure((2, 3), 3)
    worst_below = 0.0
    worst_regions = 0.0
    count = 0
    for N in (1, 2):
        for seed in range(50):
            report = quasilocality_integral(make_atom(s, 1.0, N, seed=seed))
            worst_below = max(worst_below, report.below_depth_max)
            worst_regions = max(worst_regions, max(report.vanishing_max.values()))
            count += 1
    ok = worst_below <= 1e-10 and worst_regions <= 1e-10
    _report(
        "09",
        ok,
        f"{count} atoms: below-depth max {worst_below:.2e}, region vanishing {worst_regions:.2e}",
    )
    assert count == 100
    assert worst_below <= 1e-10
    assert worst_regions <= 1e-10


def _quasilocality_maxima():
    # Each N gets the same resolution and order span: on (2,3) at depth N+2
    # the support square holds 6 x 6 values and the orders run over N..N+2,
    # so the maxima over seeds compare atoms of one kind across N.
    maxima: dict = {}
    for N in (1, 2, 3):
        s = make_structure((2, 3), N + 2)
        for p in (0.6, 0.8, 1.0):
            best = 0.0
            for seed in range(34):
                report = quasilocality_integral(make_atom(s, p, N, seed=seed))
                best = max(best, max(report.region_integrals.values()))
            maxima[(p, N)] = best
    return maxima


def test_criterion_10a_quasilocality_window_stability():
    maxima = _quasilocality_maxima()
    ratios = {}
    for p in (0.6, 0.8, 1.0):
        values = [maxima[(p, N)] for N in (1, 2, 3)]
        ratios[p] = max(values) / min(values)
    detail = ", ".join(
        f"p={p}: " + "/".join(f"{maxima[(p, N)]:.3f}" for N in (1, 2, 3)) + f" ratio {r:.1f}"
        for p, r in ratios.items()
    )
    ok = all(r < 2.0 for r in ratios.values())
    _report("10a", ok, detail)
    assert ok, f"equal-resolution maxima over 34 atoms for N = 1/2/3: {detail}"


def test_criterion_10b_weak_type_bounded_and_scale_invariant():
    s = make_structure((2, 3), 4)
    worst = 0.0
    for N in (1, 2, 3):
        for seed in range(10):
            atom = make_atom(s, 1.0, N, seed=seed)
            ratio = weak_type_check(atom.function)
            doubled = weak_type_check(SampledFunction(s, 2.0 * atom.function.values))
            assert doubled == ratio  # exact scale invariance
            worst = max(worst, ratio)
    ok = np.isfinite(worst)
    _report("10b", ok, f"weak-type ratio bounded by {worst:.3f}, exactly scale-invariant")
    assert np.isfinite(worst)


def test_criterion_11a_estimate_scans_zero_sets():
    detail = []
    mismatches = 0
    for depth in (3, 4):
        s = make_structure((2, 3), depth)
        for estimate in ("est1", "est2", "fejer", "lemma2"):
            report = estimate_scan(s, estimate)
            mismatches += report.zero_mismatches
            assert np.isfinite(report.observed_constant)
            detail.append(f"{estimate}@{depth}:{report.observed_constant:.3f}")
    ok = mismatches == 0
    _report("11a", ok, "finite constants, zero mismatches: " + ", ".join(detail))
    assert mismatches == 0


def test_criterion_11b_estimate_constant_drift():
    # The order-n row of a scan does not depend on the truncation depth, so
    # the observed constant at depth L is a running maximum over the order
    # blocks 1..L-1; the 3->4 drift is block 3 raising it, reported as data.
    # The law is checked at the depth pairs 3->4 and 4->5.
    structures = {depth: make_structure((2, 3), depth) for depth in (3, 4, 5)}
    reports = {
        depth: {estimate: estimate_scan(s, estimate) for estimate in ESTIMATE_IDS}
        for depth, s in structures.items()
    }
    differing = {}
    detail = []
    for estimate in ESTIMATE_IDS:
        for depth in (3, 4):
            rows, deeper = reports[depth][estimate].per_order, reports[depth + 1][estimate].per_order
            pairs = zip_longest(rows, deeper[: len(rows)])
            differing[f"{estimate}@{depth}->{depth + 1}"] = [(a, b) for a, b in pairs if a != b]
        blocks: dict = {}
        for row in reports[4][estimate].per_order:
            block = row["n"] if estimate == "est1" else structures[4].index_order(row["n"])
            if block:
                blocks[block] = max(blocks.get(block, 0.0), row["max_ratio"])
        c3, c4 = reports[3][estimate].observed_constant, reports[4][estimate].observed_constant
        detail.append(
            f"{estimate}: blocks " + "/".join(f"{v:.3f}" for _, v in sorted(blocks.items()))
            + f" drift {100 * (c4 - c3) / c3:.1f}%"
        )
    ok = not any(differing.values())
    _report("11b", ok, "depth-3/4 rows equal the leading depth-4/5 rows; " + ", ".join(detail))
    assert ok, f"shallow rows that differ one depth deeper: {differing}"


def test_criterion_12_constant_mean_exactness():
    c = -1.25 + 0.5j
    for radices, depth in [((2, 3), 2), ((2, 3, 2), 3)]:
        s = make_structure(radices, depth)
        f = SampledFunction(s, np.full((s.size, s.size), c))
        worst_zero = worst_one = 0.0
        for n in range(1, s.size + 1):
            zero_based = marcinkiewicz_means(f, n, "multiplier", index_base=0).values
            worst_zero = max(worst_zero, np.abs(zero_based - c * (n - 1) / n).max())
            one_based = marcinkiewicz_means(f, n, "multiplier", index_base=1).values
            worst_one = max(worst_one, np.abs(one_based - c).max())
    ok = worst_zero <= 1e-12 and worst_one <= 1e-12
    _report("12", ok, f"deficit-form error {worst_zero:.2e}, reproducing-form error {worst_one:.2e}")
    assert worst_zero <= 1e-12
    assert worst_one <= 1e-12
