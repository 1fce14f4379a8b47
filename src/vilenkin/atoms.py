"""p-atoms, quasi-locality integrals, weak-type checks, and Hardy quasi-norms.

A p-atom lives on a depth-N coset square, has vanishing integral there, and
obeys the sup-norm budget mu(square)^(-1/p) = M_N^(2/p).  Atom generation is
deterministic per seed regardless of evaluation order, so parallel sample
sweeps reproduce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .group import GroupStructure, check_int
from .operators import _lift, _v_grids, maximal_function_grid, v_sup_grid
from .sampled import SampledFunction, check_exponent, lp_norm, require_arity

# generated atoms sit this far inside the sup-norm budget; keeps the bound
# strict under roundoff while staying within 1% of equality
_SUP_MARGIN = 0.995

# values of sup_n |V_n a| at or below this share of its maximum are structural
# zeros carrying rounding, which a power p < 1 would make route-dependent
_ZERO_FLOOR = 64 * np.finfo(np.float64).eps

# how far verify_atom lets the mean, the sup bound and the off-support values
# stray before it names a failed condition
_ATOM_TOL = 1e-10


def _atom_parameters(structure: GroupStructure, p, N, center_x, center_y) -> tuple:
    """The exponent as a float in (1/2, 1], the support depth as an int in
    [0, L] and the centers as points of the group; rejects anything else."""
    p = float(p)
    if not 0.5 < p <= 1.0:
        raise ValueError(f"atom exponent p must lie in (1/2, 1], got {p}")
    N = check_int("support depth", N, 0, structure.depth)
    centers = (check_int("point index", c, 0, structure.size - 1) for c in (center_x, center_y))
    return (p, N, *centers)


@dataclass(frozen=True, eq=False)
class Atom:
    """A p-atom supported on I_N(center_x) x I_N(center_y).

    Construction checks the parameters as ``make_atom`` does and that the
    function is a 2-D sample; whether the function is an atom there is
    ``verify_atom``'s question.
    """

    p: float
    support_depth: int
    center_x: int
    center_y: int
    function: SampledFunction
    seed: Optional[int] = None

    def __post_init__(self):
        require_arity(self.function, 2, "Atom")
        checked = _atom_parameters(
            self.structure, self.p, self.support_depth, self.center_x, self.center_y
        )
        for name, value in zip(("p", "support_depth", "center_x", "center_y"), checked):
            object.__setattr__(self, name, value)

    @property
    def structure(self) -> GroupStructure:
        return self.function.structure

    @property
    def sup_bound(self) -> float:
        return float(self.structure.orders[self.support_depth] ** (2.0 / self.p))

    def support_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean masks of the two support cosets along each axis."""
        structure = self.structure
        MN = structure.orders[self.support_depth]
        idx = np.arange(structure.size)
        return idx % MN == self.center_x % MN, idx % MN == self.center_y % MN


def make_atom(
    structure: GroupStructure,
    p: float,
    N: int,
    center_x: int = 0,
    center_y: int = 0,
    seed: int = 0,
) -> Atom:
    """Draw a random real atom: uniform values on the support square,
    mean-subtracted, rescaled to sit just inside the sup-norm budget."""
    p, N, center_x, center_y = _atom_parameters(structure, p, N, center_x, center_y)
    rows = structure.interval_indices(N, center_x)
    cols = structure.interval_indices(N, center_y)
    if rows.size * cols.size < 2:
        raise ValueError(
            "support square has a single point; a mean-zero atom there is zero"
        )
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 1.0, size=(rows.size, cols.size))
    block -= block.mean()
    peak = np.abs(block).max()
    if peak == 0.0:
        raise ValueError("degenerate draw: all support values equal")
    bound = structure.orders[N] ** (2.0 / p)
    block *= _SUP_MARGIN * bound / peak
    values = np.zeros((structure.size, structure.size), dtype=np.complex128)
    values[np.ix_(rows, cols)] = block
    return Atom(
        p=p,
        support_depth=N,
        center_x=center_x,
        center_y=center_y,
        function=SampledFunction(structure, values),
        seed=seed,
    )


def verify_atom(atom: Atom) -> tuple[bool, dict]:
    """Check the three atom conditions; diagnostics name any failure."""
    values = atom.function.values
    mask_x, mask_y = atom.support_masks()
    off_support = values.copy()
    off_support[np.ix_(mask_x, mask_y)] = 0.0
    diagnostics = {}
    if abs(values.mean()) > _ATOM_TOL:
        diagnostics["mean"] = float(abs(values.mean()))
    sup = float(np.abs(values).max())
    if sup > atom.sup_bound * (1.0 + _ATOM_TOL):
        diagnostics["sup-bound"] = sup
    leak = float(np.abs(off_support).max())
    if leak > _ATOM_TOL:
        diagnostics["support"] = leak
    return not diagnostics, diagnostics


@dataclass
class QuasiLocalityReport:
    """Region-split integrals of (V a)^p off the support square.

    Region keys: "cc" complement x complement, "cs" complement x support,
    "sc" support x complement.  The vanishing fields certify the exact
    structural zeros: all components below the support depth, components 3-4
    on cc, components 2 and 4 on cs, and components 1 and 3 on sc.
    """

    region_integrals: dict
    below_depth_max: float
    vanishing_max: dict


_REGION_VANISHING = {"cc": (3, 4), "cs": (2, 4), "sc": (1, 3)}


def quasilocality_integral(atom: Atom) -> QuasiLocalityReport:
    """Integral of (V a)^p, p the atom's exponent, over the complement
    regions, with the exact vanishing patterns measured alongside."""
    ok, diagnostics = verify_atom(atom)
    if not ok:
        raise ValueError(f"invalid atom: {diagnostics}")
    structure = atom.structure
    f = atom.function
    N = atom.support_depth
    mask_x, mask_y = atom.support_masks()
    size = structure.size

    # every component of every order, convolved on the quotient G/I_K where it
    # lives and read there; sup_total is tiled up as K grows
    axes = {"cc": (~mask_x, ~mask_y), "cs": (~mask_x, mask_y), "sc": (mask_x, ~mask_y)}
    vanishing = dict.fromkeys(axes, 0.0)
    sup_total = np.zeros((1, 1))
    below_depth_max = 0.0
    specs = [(n, (comp,)) for n in range(1, structure.depth + 1) for comp in range(1, 5)]
    for (n, (comp,)), grid in zip(specs, _v_grids(f, specs)):
        period = len(grid)
        for name, comps in _REGION_VANISHING.items():
            if comp in comps:
                # a region meets G/I_K in the residues mod M_K of its points
                rx, ry = (m.reshape(-1, period).any(axis=0) for m in axes[name])
                top = np.abs(grid[np.ix_(rx, ry)]).max(initial=0.0)
                vanishing[name] = max(vanishing[name], float(top))
        if comp == 1:
            total_n = np.zeros((1, 1))
        total_n = _lift(total_n, period) + grid
        if comp == 4:
            if n < N:
                below_depth_max = max(below_depth_max, float(np.abs(total_n).max()))
            sup_total = np.maximum(_lift(sup_total, period), np.abs(total_n))
    sup_total[sup_total <= _ZERO_FLOOR * sup_total.max()] = 0.0

    integrals = {
        name: float((sup_total[np.outer(*m)] ** atom.p).sum() / size**2) for name, m in axes.items()
    }
    return QuasiLocalityReport(
        region_integrals=integrals, below_depth_max=below_depth_max, vanishing_max=vanishing
    )


def weak_type_check(f: SampledFunction) -> float:
    """sup over a lambda grid of lambda * mu{V f > lambda} / ||f||_1.

    The lambda grid is geometric and relative to max V f, so the ratio is
    exactly invariant under f -> c f.
    """
    require_arity(f, 2, "weak_type_check")
    norm1 = lp_norm(f, 1.0)
    if norm1 == 0.0:
        raise ValueError("weak-type ratio undefined for the zero function")
    vf = v_sup_grid(f)
    top = float(vf.max())
    if top == 0.0:
        return 0.0
    size = f.structure.size
    best = 0.0
    for lam in top * np.geomspace(1e-3, 1.0, 61):
        measure = float(np.count_nonzero(vf > lam)) / size**2
        best = max(best, lam * measure)
    return best / norm1


def hardy_quasinorm(f: SampledFunction, p: float) -> float:
    """||f||_{H_p} = ||f*||_p with f* the martingale maximal function;
    sup f* for p = infinity."""
    require_arity(f, 2, "hardy_quasinorm")
    p = check_exponent(p)
    star = maximal_function_grid(f)
    if p == np.inf:
        return float(star.max())
    return float(np.mean(star**p) ** (1.0 / p))
