import numpy as np
import pytest

from vilenkin import (
    SampledFunction,
    hardy_quasinorm,
    lp_norm,
    make_atom,
    make_structure,
    maximal_function_grid,
    quasilocality_integral,
    v_component_grid,
    v_sup_grid,
    verify_atom,
    weak_type_check,
)

from vilenkin import atoms, operators

from conftest import random_sample, translate


def test_make_atom_conditions_and_determinism():
    s = make_structure((2, 3, 2))
    a = make_atom(s, 1.0, 1, seed=7)
    ok, diagnostics = verify_atom(a)
    assert ok and diagnostics == {}
    assert abs(a.function.values.mean()) < 1e-12
    sup = np.abs(a.function.values).max()
    assert sup <= a.sup_bound
    assert sup >= 0.99 * a.sup_bound  # equality within 1%
    b = make_atom(s, 1.0, 1, seed=7)
    assert np.array_equal(a.function.values, b.function.values)
    c = make_atom(s, 1.0, 1, seed=8)
    assert not np.array_equal(a.function.values, c.function.values)


def test_make_atom_whole_group_support():
    s = make_structure((2, 3))
    a = make_atom(s, 0.75, 0, seed=1)
    ok, _ = verify_atom(a)
    assert ok
    assert a.sup_bound == pytest.approx(1.0)


def test_make_atom_validation():
    s = make_structure((2, 3))
    with pytest.raises(ValueError):
        make_atom(s, 0.5, 1)
    with pytest.raises(ValueError):
        make_atom(s, 1.2, 1)
    with pytest.raises(ValueError):
        make_atom(s, 1.0, s.depth + 1)
    with pytest.raises(ValueError, match="single point"):
        make_atom(s, 1.0, s.depth)
    # the recorded centers are points of the group, not integers reduced mod M_N
    with pytest.raises(ValueError, match="point index -1 not in"):
        make_atom(s, 0.8, 1, center_x=-1)
    with pytest.raises(ValueError, match="point index 7 not in"):
        make_atom(s, 0.8, 1, center_y=7)


def test_verify_atom_diagnostics():
    s = make_structure((2, 3, 2))
    atom = make_atom(s, 1.0, 1, seed=3)
    mask_x, mask_y = atom.support_masks()
    tampered = atom.function.values.copy()
    tampered[np.ix_(mask_x, mask_y)] += 0.01  # inject a nonzero mean on the support
    bad_mean = type(atom)(
        p=atom.p,
        support_depth=atom.support_depth,
        center_x=atom.center_x,
        center_y=atom.center_y,
        function=SampledFunction(s, tampered),
        seed=atom.seed,
    )
    ok, diagnostics = verify_atom(bad_mean)
    assert not ok and "mean" in diagnostics

    doubled = type(atom)(
        p=atom.p,
        support_depth=atom.support_depth,
        center_x=atom.center_x,
        center_y=atom.center_y,
        function=SampledFunction(s, 2.5 * atom.function.values),
        seed=atom.seed,
    )
    ok, diagnostics = verify_atom(doubled)
    assert not ok and "sup-bound" in diagnostics

    leaked_values = atom.function.values.copy()
    mask_x, mask_y = atom.support_masks()
    outside = np.where(~mask_x)[0][0]
    leaked_values[outside, np.where(~mask_y)[0][0]] = 0.5
    leaked = type(atom)(
        p=atom.p,
        support_depth=atom.support_depth,
        center_x=atom.center_x,
        center_y=atom.center_y,
        function=SampledFunction(s, leaked_values),
        seed=atom.seed,
    )
    ok, diagnostics = verify_atom(leaked)
    assert not ok and "support" in diagnostics


@pytest.mark.parametrize("N", [1, 2])
def test_quasilocality_vanishing_patterns(N):
    s = make_structure((2, 3), 3)
    for seed in range(5):
        report = quasilocality_integral(make_atom(s, 1.0, N, seed=seed))
        assert report.below_depth_max < 1e-10
        assert max(report.vanishing_max.values()) < 1e-10
        assert all(v >= 0.0 for v in report.region_integrals.values())


def test_quasilocality_translated_atom_matches_origin():
    from vilenkin import Atom

    s = make_structure((2, 3), 3)
    origin = make_atom(s, 0.8, 1, seed=9)
    moved = Atom(
        p=origin.p,
        support_depth=origin.support_depth,
        center_x=5,
        center_y=7,
        function=translate(origin.function, (5, 7)),
        seed=origin.seed,
    )
    ok, _ = verify_atom(moved)
    assert ok
    rep_origin = quasilocality_integral(origin)
    rep_moved = quasilocality_integral(moved)
    assert max(rep_moved.vanishing_max.values()) < 1e-10
    # translation covariance: the same region integrals, relocated
    for key in ("cc", "cs", "sc"):
        assert rep_moved.region_integrals[key] == pytest.approx(
            rep_origin.region_integrals[key], abs=1e-9
        )
    # and V itself relocates: V(translated atom) = translated V(atom)
    v_origin = v_sup_grid(origin.function)
    v_moved = v_sup_grid(moved.function)
    relocated = translate(SampledFunction(s, v_origin.astype(complex)), (5, 7))
    np.testing.assert_allclose(v_moved, relocated.values.real, atol=1e-9)
    # atoms drawn directly at a shifted center keep the exact vanishing too
    drawn = make_atom(s, 0.8, 1, center_x=5, center_y=7, seed=9)
    assert max(quasilocality_integral(drawn).vanishing_max.values()) < 1e-10


def _from_the_component_grids(atom, p):
    """quasilocality_integral's fields recomputed from v_component_grid, one
    convolution per (order, component), summed per order."""
    s = atom.structure
    L, N = s.depth, atom.support_depth
    grids = [[v_component_grid(atom.function, n, c) for c in range(1, 5)] for n in range(1, L + 1)]
    totals = np.abs([sum(row) for row in grids])
    sup_comp = np.abs(grids).max(axis=0)
    sup_total = totals.max(axis=0)
    sup_total[sup_total <= atoms._ZERO_FLOOR * sup_total.max()] = 0.0
    mask_x, mask_y = atom.support_masks()
    regions = {
        "cc": np.outer(~mask_x, ~mask_y),
        "cs": np.outer(~mask_x, mask_y),
        "sc": np.outer(mask_x, ~mask_y),
    }
    integrals = {name: (sup_total[mask] ** p).sum() / s.size**2 for name, mask in regions.items()}
    vanishing = {
        name: max(sup_comp[c - 1][regions[name]].max() for c in comps)
        for name, comps in atoms._REGION_VANISHING.items()
    }
    below = totals[: N - 1].max() if N > 1 else 0.0
    return integrals, vanishing, below, sup_total.max()


@pytest.mark.parametrize("radices, depth", [((2, 3), 4), ((3, 2, 5), 3)])
def test_quasilocality_packed_route_matches_the_component_grids(radices, depth):
    s = make_structure(radices, depth)
    for seed, p, N in ((60816030, 0.6, 2), (3, 0.6, 1), (4, 1.0, 2)):
        atom = make_atom(s, p, N, seed=seed)
        report = quasilocality_integral(atom)
        integrals, vanishing, below, top = _from_the_component_grids(atom, p)
        # with the structural zeros floored, the routes agree to rounding
        for name, want in integrals.items():
            assert abs(report.region_integrals[name] - want) <= 1e-13 * want
        # both routes read the structural zeros at rounding level
        assert abs(report.below_depth_max - below) <= 1e-14 * top
        for name, want in vanishing.items():
            assert abs(report.vanishing_max[name] - want) <= 1e-14 * top


def _count_convolve(monkeypatch) -> list:
    calls = []
    original = operators.convolve

    def counting(f, g):
        calls.append(f.structure.size)
        return original(f, g)

    monkeypatch.setattr(operators, "convolve", counting)
    return calls


@pytest.mark.parametrize("depth, N", [(1, 0), (2, 1), (4, 2)])
def test_a_real_atom_packs_two_v_kernels_into_each_convolution(monkeypatch, depth, N):
    s = make_structure((2, 3), depth)
    atom = make_atom(s, 0.8, N, seed=11)
    calls = _count_convolve(monkeypatch)
    quasilocality_integral(atom)
    # components 1-2 and 3-4 of each order share one call each
    assert len(calls) == 2 * depth
    calls.clear()
    v_sup_grid(atom.function)
    # the summed kernels pair from the end, each pair on the finer quotient
    # G/I_{min(n + 2, L)} of its orders n and n + 1
    assert calls == [s.orders[K] for K in {1: [1], 2: [2], 4: [3, 4]}[depth]]


def test_a_complex_sample_takes_a_call_per_part_of_a_pair(monkeypatch, rng):
    s = make_structure((2, 3), 4)
    f = random_sample(s, rng)
    calls = _count_convolve(monkeypatch)
    v_sup_grid(f)
    assert calls == [s.orders[3], s.orders[3], s.size, s.size]
    calls.clear()
    v_sup_grid(random_sample(s, rng, real=True))
    assert calls == [s.orders[3], s.size]


def test_an_atom_built_directly_checks_its_parameters():
    from vilenkin import Atom

    s = make_structure((2, 3))
    atom = make_atom(s, 0.8, 1, seed=0)
    fields = dict(
        p=atom.p,
        support_depth=atom.support_depth,
        center_x=atom.center_x,
        center_y=atom.center_y,
        function=atom.function,
    )
    # the centers are points of the group, not integers reduced mod M_N
    for bad, message in (
        (dict(center_x=-2), "point index -2 not in"),
        (dict(center_y=6), "point index 6 not in"),
        (dict(center_x=1.0), "point index 1.0 is not an integer"),
        (dict(support_depth=s.depth + 1), "support depth 3 not in"),
        (dict(support_depth=True), "support depth True is not an integer"),
        (dict(p=0.5), "atom exponent p"),
        (dict(p=1.2), "atom exponent p"),
        (dict(function=SampledFunction(s, np.zeros(s.size))), "Atom needs a 2-D sample"),
    ):
        with pytest.raises(ValueError, match=message):
            Atom(**{**fields, **bad})
    # numpy integers are integers, and are kept as Python ones
    kept = Atom(**{**fields, "support_depth": np.int64(1), "center_x": np.int64(5)})
    assert (kept.support_depth, kept.center_x) == (1, 5)
    assert type(kept.support_depth) is int and type(kept.center_x) is int


def test_quasilocality_rejects_invalid_atom():
    s = make_structure((2, 3))
    atom = make_atom(s, 1.0, 1, seed=0)
    broken = type(atom)(
        p=atom.p,
        support_depth=atom.support_depth,
        center_x=atom.center_x,
        center_y=atom.center_y,
        function=SampledFunction(s, 3.0 * atom.function.values),
        seed=atom.seed,
    )
    with pytest.raises(ValueError, match="invalid atom"):
        quasilocality_integral(broken)


def test_weak_type_ratio_properties(rng):
    s = make_structure((2, 3), 3)
    zero = SampledFunction(s, np.zeros((s.size, s.size)))
    with pytest.raises(ValueError):
        weak_type_check(zero)
    atom = make_atom(s, 1.0, 1, seed=4)
    ratio = weak_type_check(atom.function)
    assert np.isfinite(ratio) and ratio > 0
    doubled = SampledFunction(s, 2.0 * atom.function.values)
    assert weak_type_check(doubled) == ratio
    f = random_sample(s, rng)
    r1 = weak_type_check(f)
    r2 = weak_type_check(SampledFunction(s, 2.0 * f.values))
    assert r1 == r2


def test_hardy_quasinorm_properties(rng):
    s = make_structure((2, 3))
    c = SampledFunction(s, np.full((s.size, s.size), -1.5))
    assert hardy_quasinorm(c, 1.0) == pytest.approx(1.5)
    f = random_sample(s, rng)
    for p in (0.6, 1.0, 2.0):
        assert hardy_quasinorm(f, p) >= lp_norm(f, p) - 1e-12
    atom = make_atom(s, 1.0, 1, seed=2)
    assert hardy_quasinorm(atom.function, 1.0) >= lp_norm(atom.function, 1.0) - 1e-12
    with pytest.raises(ValueError):
        hardy_quasinorm(f, 0.0)


def test_hardy_quasinorm_at_infinity_is_the_sup_of_the_maximal_function(rng):
    s = make_structure((2, 3))
    for c in (3.0, 0.5, -1.5 + 2j):
        constant = SampledFunction(s, np.full((s.size, s.size), c))
        assert hardy_quasinorm(constant, np.inf) == pytest.approx(abs(c), abs=1e-12)
    f = random_sample(s, rng)
    assert hardy_quasinorm(f, np.inf) == maximal_function_grid(f).max()
    assert hardy_quasinorm(f, np.inf) >= lp_norm(f, np.inf) - 1e-12
