"""Harmonic analysis on depth-truncated bounded Vilenkin groups.

Mixed-radix group arithmetic, the Vilenkin character system with fast
Chrestenson transforms, Fejer and Marcinkiewicz-Fejer kernels and means,
the localized-oscillation operators behind Lebesgue-point classification,
and a p-atom harness for quasi-locality and weak-type experiments.
"""

from .atoms import (
    Atom,
    QuasiLocalityReport,
    hardy_quasinorm,
    make_atom,
    quasilocality_integral,
    verify_atom,
    weak_type_check,
)
from .characters import (
    block_dirichlet,
    character_table,
    dirichlet,
    dirichlet_shift,
    dirichlet_table,
    vilenkin,
    vilenkin_column,
)
from .group import DEFAULT_GRID_CAP, GroupStructure, make_structure
from .kernels import (
    ESTIMATE_IDS,
    EstimateReport,
    block_shift_majorant,
    double_shift_majorant,
    estimate_scan,
    fejer_kernel_1d,
    kernel_decomposition_rhs,
    kernel_majorant_2d,
    marcinkiewicz_kernel,
    r_factor,
    r_factor_closed,
    r_factor_table,
    scale_sum_majorant,
)
from .means import (
    evaluate_means,
    fejer_means_1d,
    marcinkiewicz_means,
    partial_sum_2d,
    sigma_multiplier,
)
from .operators import (
    LebesgueReport,
    lebesgue_reports,
    maximal_function_grid,
    means_error,
    v_component_grid,
    v_sup_grid,
    w_operator_2d,
    w_sequence,
)
from .oracles import (
    OperatorProfile,
    maximal_function,
    naive_convolve,
    naive_forward,
    naive_inverse,
    v_component,
    v_maximal,
)
from .sampled import SampledFunction, Spectrum, lp_norm
from .testfunctions import build_test_function, list_test_functions, parse_fn_spec
from .transform import convolve, forward, inverse

__version__ = "0.1.0"
