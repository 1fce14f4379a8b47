"""Every scalar order, level, depth, radix, digit, coordinate, index_base,
center and seed is checked once at the entry that takes it: an integer (a
Python or numpy integer, not a bool) in its range passes, and anything else
raises a ValueError that names the parameter.  No entry truncates a
non-integer or computes with it.  Every real-valued parameter (an exponent, a
tolerance, a jump location) is a Python or numpy int or float, not a bool or
a string, or a ValueError names it."""

import re

import numpy as np
import pytest

from vilenkin import (
    Atom,
    GroupStructure,
    block_dirichlet,
    block_shift_majorant,
    build_test_function,
    dirichlet_shift,
    dirichlet_table,
    estimate_scan,
    fejer_kernel_1d,
    fejer_means_1d,
    hardy_quasinorm,
    kernel_decomposition_rhs,
    lebesgue_reports,
    lp_norm,
    make_atom,
    make_structure,
    marcinkiewicz_kernel,
    marcinkiewicz_means,
    means_error,
    partial_sum_2d,
    r_factor,
    r_factor_table,
    scale_sum_majorant,
    sigma_multiplier,
    v_component,
    v_component_grid,
    vilenkin,
    w_operator_2d,
)
from vilenkin.group import check_bool, check_int, check_real
from vilenkin.operators import v_kernel_table

from conftest import random_sample

# at (2, 3): M_L = 6, L = 2
S = make_structure((2, 3))
F = random_sample(S, np.random.default_rng(0))
F1 = random_sample(S, np.random.default_rng(1), arity=1)
A = make_atom(S, 0.8, 1)


def _atom_with_seed(seed):
    fields = ("p", "support_depth", "center_x", "center_y", "function")
    return Atom(**{name: getattr(A, name) for name in fields}, seed=seed)


# (parameter name, the entry called with the value, an out-of-range value, a valid value)
ENTRIES = {
    "GroupStructure radix": ("invalid-radix: radix", lambda v: GroupStructure((v, 3)), 1, 2),
    "GroupStructure grid_cap": ("grid_cap", lambda v: GroupStructure((2, 3), grid_cap=v), 0, 36),
    "make_structure depth": ("depth", lambda v: make_structure((2, 3), v), 0, 3),
    "digits": ("index-overflow: index", lambda v: S.digits(v), 6, 5),
    "from_digits": ("digits[0]", lambda v: S.from_digits([v, 0]), 2, 1),
    "index_order": ("order", lambda v: S.index_order(v), 0, 6),
    "interval_indices depth": ("interval depth", lambda v: S.interval_indices(v, 0), 3, 2),
    "interval_indices center": ("point index", lambda v: S.interval_indices(1, v), 6, 5),
    "quotient": ("quotient depth", lambda v: S.quotient(v), 0, 1),
    "vilenkin": ("index-overflow: index", lambda v: vilenkin(S, v, 0), 6, 5),
    "dirichlet_table": ("kernel order", lambda v: dirichlet_table(S, v), 7, 6),
    "block_dirichlet": ("block level", lambda v: block_dirichlet(S, v, 0), 3, 2),
    "dirichlet_shift level": ("block level", lambda v: dirichlet_shift(S, 0, 1, v, 0), 2, 1),
    "dirichlet_shift offset": ("offset", lambda v: dirichlet_shift(S, v, 1, 1, 0), 2, 1),
    "dirichlet_shift multiplier": ("multiplier", lambda v: dirichlet_shift(S, 0, v, 1, 0), 3, 2),
    "fejer_kernel_1d": ("kernel order", lambda v: fejer_kernel_1d(S, v), 0, 3),
    "fejer_kernel_1d index_base": ("index_base", lambda v: fejer_kernel_1d(S, 2, v), 2, 1),
    "marcinkiewicz_kernel": ("kernel order", lambda v: marcinkiewicz_kernel(S, v), 7, 3),
    "r_factor start": ("factor start i", lambda v: r_factor(S, v, 1, 0, 0), -1, 1),
    "r_factor_table end": ("factor end n", lambda v: r_factor_table(S, 0, v), 2, 1),
    "kernel_decomposition_rhs": (
        "block level",
        lambda v: kernel_decomposition_rhs(S, v, 0, 0),
        0,
        2,
    ),
    "block_shift_majorant": ("block level", lambda v: block_shift_majorant(S, v, 0), 3, 1),
    "scale_sum_majorant": ("order", lambda v: scale_sum_majorant(S, v, 0), 0, 4),
    "partial_sum_2d M": ("partial sum order M", lambda v: partial_sum_2d(F, v, 1), 7, 3),
    "partial_sum_2d N": ("partial sum order N", lambda v: partial_sum_2d(F, 1, v), -1, 3),
    "sigma_multiplier": ("mean order", lambda v: sigma_multiplier(S, v), 0, 4),
    "sigma_multiplier index_base": ("index_base", lambda v: sigma_multiplier(S, 2, v), -1, 1),
    "marcinkiewicz_means": ("mean order", lambda v: marcinkiewicz_means(F, v), 7, 4),
    "marcinkiewicz_means kernel": (
        "mean order",
        lambda v: marcinkiewicz_means(F, v, "kernel"),
        0,
        4,
    ),
    "fejer_means_1d": ("mean order", lambda v: fejer_means_1d(F1, v), 0, 4),
    "means_error": ("mean order", lambda v: means_error(F, v, 0, 0), 7, 4),
    "lebesgue_reports index_base": (
        "index_base",
        lambda v: lebesgue_reports(F, [(0, 0)], index_base=v),
        2,
        1,
    ),
    "w_operator_2d": ("order", lambda v: w_operator_2d(F, 0, 0, v), 3, 2),
    "v_kernel_table": ("order", lambda v: v_kernel_table(S, v, 1), 3, 2),
    "v_component_grid": ("order", lambda v: v_component_grid(F, v, 1), -1, 2),
    "v_component": ("order", lambda v: v_component(F, 0, 0, v, 1), 3, 2),
    "v_component component": ("component", lambda v: v_component(F, 0, 0, 1, v), 5, 4),
    "make_atom support depth": ("support depth", lambda v: make_atom(S, 0.8, v), 3, 1),
    "make_atom center": ("point index", lambda v: make_atom(S, 0.8, 1, center_y=v), 6, 5),
    "make_atom seed": ("atom seed", lambda v: make_atom(S, 0.8, 1, seed=v), -1, 1),
    "Atom seed": ("atom seed", _atom_with_seed, -1, 1),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_takes_an_integer_in_range_and_names_anything_else(entry):
    name, call, out_of_range, valid = ENTRIES[entry]
    named = rf"^{re.escape(name)} "
    for bad in (2.5, True, float(valid), out_of_range):
        with pytest.raises(ValueError, match=named):
            call(bad)
    call(np.int64(valid))
    call(valid)


def test_check_int_returns_a_python_int_and_names_what_it_rejects():
    assert check_int("n", 3, 0, 3) == 3
    value = check_int("n", np.uint8(2), 0)
    assert value == 2 and type(value) is int
    assert check_int("n", 10**30, 1) == 10**30
    for bad, message in (
        (4, "n 4 not in [0, 3]"),
        (-1, "n -1 not in [0, 3]"),
        (1.0, "n 1.0 is not an integer"),
        (False, "n False is not an integer"),
        (np.bool_(True), "is not an integer"),
        ("2", "n '2' is not an integer"),
        (np.array([1]), "n array([1]) is not an integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_int("n", bad, 0, 3)
    with pytest.raises(ValueError, match=re.escape("n 0 not in [1, inf)")):
        check_int("n", 0, 1)


def test_an_atom_seed_is_an_integer_or_a_directly_built_atom_has_none():
    # a seed of None would draw from the OS entropy, and the atom could not
    # be reproduced from what it records
    with pytest.raises(ValueError, match="^atom seed None is not an integer"):
        make_atom(S, 0.8, 1, seed=None)
    with pytest.raises(ValueError, match="^atom seed 'x' is not an integer"):
        _atom_with_seed("x")
    assert _atom_with_seed(None).seed is None
    kept = _atom_with_seed(np.int64(3))
    assert kept.seed == 3 and type(kept.seed) is int
    assert make_atom(S, 0.8, 1, seed=np.uint8(7)).function == make_atom(S, 0.8, 1, seed=7).function


# (parameter name, the entry called with the value, a valid value)
REAL_ENTRIES = {
    "make_atom p": ("atom exponent p", lambda v: make_atom(S, v, 1), 0.8),
    "Atom p": ("atom exponent p", lambda v: Atom(v, 1, 0, 0, A.function), 0.8),
    "lp_norm": ("invalid-exponent: p", lambda v: lp_norm(F, v), 2),
    "hardy_quasinorm": ("invalid-exponent: p", lambda v: hardy_quasinorm(F, v), 1),
    "estimate_scan tol": ("tol", lambda v: estimate_scan(S, "est2", tol=v), 1e-9),
    "jump theta": ("jump theta", lambda v: build_test_function(S, "jump", theta=v), 0.25),
}


@pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
def test_each_real_parameter_takes_a_real_number_and_names_anything_else(entry):
    name, call, valid = REAL_ENTRIES[entry]
    named = rf"^{re.escape(name)} .* is not a real number$"
    bads = [True, np.bool_(False), None, complex(valid), np.array([valid])]
    # build_test_function parses a string with the parameter's declared parser
    if entry != "jump theta":
        bads.append(str(valid))
    for bad in bads:
        with pytest.raises(ValueError, match=named):
            call(bad)
    for good in (valid, float(valid), np.float64(valid), np.float32(valid)):
        call(good)


def test_check_real_returns_a_float_and_leaves_ranges_and_nan_to_the_caller():
    for value in (3, 2.5, np.int64(3), np.float32(0.5), float("inf")):
        got = check_real("x", value)
        assert got == float(value) and type(got) is float
    assert np.isnan(check_real("x", float("nan")))
    for bad, message in (
        (False, "x False is not a real number"),
        ("1", "x '1' is not a real number"),
        (None, "x None is not a real number"),
        (1 + 0j, "x (1+0j) is not a real number"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_real("x", bad)


# (the flag's entry, called with the value)
FLAG_ENTRIES = {
    "estimate_scan": lambda v: estimate_scan(S, "est1", include_diagonal_shift=v),
    "block_shift_majorant": lambda v: block_shift_majorant(S, 1, 0, include_diagonal_shift=v),
}


@pytest.mark.parametrize("entry", sorted(FLAG_ENTRIES))
def test_each_flag_takes_a_bool_and_names_anything_else(entry):
    # "no" once ran est1 with the diagonal shift and 0 or None without it
    call = FLAG_ENTRIES[entry]
    for bad in ("no", 0, None, 1.0):
        with pytest.raises(ValueError, match=r"^include_diagonal_shift .* is not a bool$"):
            call(bad)
    for good in (True, False, np.True_, np.False_):
        call(good)


def test_estimate_scan_names_an_unknown_estimate_before_its_options():
    # the flag's and tol's messages once came first and named no estimate id
    s = make_structure((2, 3), 3)
    for call in (
        lambda: estimate_scan(s, "bogus", include_diagonal_shift=False),
        lambda: estimate_scan(s, "bogus", tol=-1),
    ):
        with pytest.raises(ValueError, match=r"^unknown estimate id 'bogus'$"):
            call()


def test_check_bool_returns_a_python_bool_and_names_what_it_rejects():
    for value in (True, np.False_):
        got = check_bool("flag", value)
        assert got == bool(value) and type(got) is bool
    for bad, message in (("no", "flag 'no' is not a bool"), (1, "flag 1 is not a bool")):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_bool("flag", bad)


def test_a_bool_among_point_indices_is_refused_by_name():
    # numpy reads [True, 2] as the integers [1, 2], so a list or tuple is
    # scanned for bools where it first becomes an index array
    cases = (([True, 2], "True"), ((1, np.bool_(False)), "False"), ([[0, 1], [2, True]], "True"))
    for points, bad in cases:
        message = f"^point index {bad} is not an integer$"
        with pytest.raises(ValueError, match=message):
            S.check_points(points)
        with pytest.raises(ValueError, match=message):
            S.add(points, 0)
        with pytest.raises(ValueError, match=message):
            S.sub(0, points)
    with pytest.raises(ValueError, match="^point index True is not an integer$"):
        S.add_outer([True, 2], [0])
    for points in ([(True, 2)], ((1, 2), (3, np.bool_(False)))):
        with pytest.raises(ValueError, match="^point index (True|False) is not an integer$"):
            lebesgue_reports(F, points)
    # a lone bool, or an array of bools, fails its dtype test as before
    for bad in (True, np.array([True, False]), np.array([[1, 0]], dtype=bool)):
        with pytest.raises(ValueError, match="^point index of dtype bool is not an integer$"):
            S.check_points(bad)
    with pytest.raises(ValueError, match="^point index of dtype bool"):
        lebesgue_reports(F, np.array([[True, False]]))
    # the integers themselves pass, as a list, a tuple or an array
    S.check_points([1, 2], (3, 4), np.array([5, 0]))
    assert len(lebesgue_reports(F, [(1, 2)])) == len(lebesgue_reports(F, np.array([[1, 2]]))) == 1


def test_marcinkiewicz_means_of_a_fractional_order_are_refused_on_every_route():
    # a fractional order once gave the multiplier route order 2.7 and the
    # kernel route order 2, so the routes disagreed without a word
    for method in ("multiplier", "direct", "kernel"):
        with pytest.raises(ValueError, match="^mean order 2.7 is not an integer"):
            marcinkiewicz_means(F, 2.7, method)


def test_test_function_parameters_are_parsed_from_strings_and_then_checked():
    # the CLI passes every --fn parameter as a string
    assert build_test_function(S, "character", a="3", b="1") == build_test_function(
        S, "character", a=3, b=1
    )
    assert build_test_function(S, "indicator", N="1", center="4") == build_test_function(
        S, "indicator", N=1, center=4
    )
    with pytest.raises(ValueError, match="^index-overflow: index 6 not in"):
        build_test_function(S, "character", a="6")
    with pytest.raises(ValueError, match="^point index 6 not in"):
        build_test_function(S, "indicator", center="6")
    # a string the declared parser refuses is named with its function and key
    with pytest.raises(ValueError, match=re.escape("indicator parameter N=1.5: invalid literal")):
        build_test_function(S, "indicator", N="1.5")
    with pytest.raises(ValueError, match=re.escape("polynomial parameter coeffs=1:1: term '1:1'")):
        build_test_function(S, "polynomial", coeffs="1:1")
    assert build_test_function(S, "polynomial", coeffs="3:1:2:0") == build_test_function(
        S, "polynomial", coeffs=[(3, 1, 2)]
    )


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("indicator", {"N": 1.5}, "indicator depth N 1.5 is not an integer"),
        ("indicator", {"center": True}, "point index True is not an integer"),
        ("character", {"a": 2.7}, "index-overflow: index 2.7 is not an integer"),
        ("character", {"b": 1.0}, "index-overflow: index 1.0 is not an integer"),
        ("random", {"seed": 3.9}, "random seed 3.9 is not an integer"),
        ("random", {"seed": -1}, "random seed -1 not in [0, inf)"),
        ("jump", {"theta": float("nan")}, "jump theta=nan is outside [0, 1)"),
        ("jump", {"theta": 1.0}, "jump theta=1.0 is outside [0, 1)"),
        ("jump", {"theta": -0.5}, "jump theta=-0.5 is outside [0, 1)"),
        ("polynomial", {"coeffs": [(1, 0.5, 1.0)]}, "index-overflow: index 0.5 is not an integer"),
    ],
)
def test_a_test_function_value_that_is_not_a_string_is_checked_not_converted(name, params, message):
    # a library caller's value reaches the builder unchanged, and a
    # fractional or boolean one is refused, not truncated
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build_test_function(S, name, **params)
