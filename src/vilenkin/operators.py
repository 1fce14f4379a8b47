"""Localized-oscillation operators, their nonnegative-kernel majorant
components, the maximal operator, and Lebesgue-point classification.

The 2-D operator W_j has four sums: two r-weighted sums over coset pairs
I_k x I_k(shift), with the coupling factor read from the product of
Rademacher power sums, and two boundary sums over I_j x I_i(shift) pairs.
No weight depends on the point, so each order's
sums are folded once into a stored kernel K_j, and W_j(x, y) is the dot of
K_j with |f(x - t, y - u) - f(x, y)| gathered once per point.  K_j has
period M_{min(j+1,L)}, so the dot reads the gather's sums over the cosets
of that level; they are taken fine to coarse, each level's sums from the
level above, so a point's whole W sequence costs about (4/3) M_L^2 reads
at radix 2 rather than L M_L^2.  ``_w_values`` is the one W route, for a
point or a batch.

``means_error`` sets the error of a Marcinkiewicz-Fejer mean at a point
beside its majorant (1/n) sum_j M_j W_j.  ``lebesgue_reports`` sets each W
sequence beside the errors of the means sigma_{M_j} f, each a function on
the quotient G/I_j.

The components V_n^(1..4) re-express the same geometry with indicator
weights instead of the r product, applied to f itself:

  V^(1)  first-axis digit shifts over I_k(t_q e_q) x I_k
  V^(2)  second-axis digit shifts over I_k x I_k(u_q e_q)
  V^(3)  boundary sums over I_i(t_s e_s) x I_n (first axis shifted)
  V^(4)  boundary sums over I_n x I_i(u_s e_s) (first axis localized)

A shifted coset I_k(u_q e_q) pins digit q only when q < k; when the shift
position coincides with the coset level the notation pins nothing.  Here
the shifted digit is always pinned (the q = k domains are read at level
k + 1), so the shift information is never silently lost.  That reading is
what makes the region-wise vanishing patterns on atoms exact: components
3-4 vanish off the support square in both axes, components 2 and 4 vanish
when only the first axis leaves the support, and components 1 and 3 vanish
in the mirrored case.

For every f, point, and order the exact equivalence

  W_n(x, y; f) = sum_i V_n^(i)(|f - f(x,y)|)(x, y)

holds because the r product equals (M_n / M_{k+1}) times the digit-sum
indicator.  Both sides are evaluated by independent routes so the
equivalence stays a real check: K_j is built from W's own sums and the r
product, and ``oracles.v_component`` sums the V terms with the closed-form
indicator point by point.

On the whole grid each V_n^(c) is a group convolution f * H with a stored
kernel H (``v_kernel_table``).  H depends only on the digits below K = n
for components 1-2 and K = min(n + 1, L) for components 3-4, so f * H is
constant on I_K x I_K cosets and is convolved on the quotient G/I_K
(``GroupStructure.quotient``): f's coset means m against the kernel built
there, an M_K x M_K problem in place of an M_L x M_L one.  Every V grid
comes from one engine, ``_v_grids``, which takes a list of kernels (n,
comps), each the sum of the named components of order n, and alone holds
the rule for K.  It packs two real kernels into one complex kernel:
m * (H_a + i H_b) = m * H_a + i (m * H_b) for a real m, so two consecutive
kernels, paired from the end of the list, take one convolution on the
finer of their quotients.  Components 1-2 of an order then share one call
and components 3-4 another, and the L summed kernels of ``v_sup_grid`` take
ceil(L/2).  A complex sample takes one call per part of m.  Sups over the
orders stay on the current quotient and are tiled up (``_lift``) only as K
grows.  The verbatim per-point route is ``oracles.v_component``.

Shift positions beyond the truncation depth (the s = L boundary terms at
order L) are dropped; for grid-resolved functions those terms integrate a
difference over a single-coset sweep and vanish identically.

Everything is pure and per-point evaluations are independent, so callers
may parallelize over points freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import GroupStructure, check_int
from .kernels import check_index_base, r_factor, r_factor_table
from .means import marcinkiewicz_means, sigma_multiplier
from .sampled import SampledFunction, Spectrum, require_arity
from .transform import convolve, forward, inverse


# -- shared index helpers -------------------------------------------------------


def _shift_level(level: int, pos: int) -> int:
    """Coset level that actually pins the shifted digit at ``pos``."""
    return level if pos < level else level + 1


def _outer_add(structure: GroupStructure, kt: int, bt: int, ku: int, bu: int) -> np.ndarray:
    """Stored table of t + u over I_kt(bt) x I_ku(bu)."""
    bt, bu = bt % structure.orders[kt], bu % structure.orders[ku]
    return structure.table(
        ("outer_add", kt, bt, ku, bu),
        lambda: structure.add_outer(
            structure.interval_indices(kt, bt), structure.interval_indices(ku, bu)
        ),
    )


# -- the oscillation operators ---------------------------------------------------


def _w_kernel(structure: GroupStructure, j: int) -> np.ndarray:
    """One period of K_j, W_j(x, y) = sum_{t,u} K_j(t, u) |f(x-t, y-u) - f(x, y)|.

    The u-shifted sums of W are accumulated as written and the t-shifted ones
    are their transpose.  K_j depends only on the digits below min(j + 1, L),
    so only its leading M_{min(j+1,L)} square is stored.
    """

    def build() -> np.ndarray:
        size = structure.size
        everything = np.arange(size)
        half = np.zeros((size, size))
        for k in range(j):
            Mk = structure.orders[k]
            T = structure.interval_indices(k)
            # the coupling factor as the product of Rademacher power sums
            r = r_factor(structure, k + 1, j - 1, 0, everything).real
            for q in range(k + 1):
                Mq = structure.orders[q]
                weight = Mq * Mk**2 / (structure.orders[j] * size**2)
                level = _shift_level(k, q)
                for shift in range(1, structure.radices[q]):
                    base = shift * Mq
                    U = structure.interval_indices(level, base)
                    half[np.ix_(T, U)] += weight * r[_outer_add(structure, k, 0, level, base)]
        T_j = structure.interval_indices(j)
        for s in range(min(j, structure.depth - 1) + 1):
            Ms = structure.orders[s]
            for i in range(s, j + 1):
                level = _shift_level(i, s)
                for shift in range(1, structure.radices[s]):
                    U = structure.interval_indices(level, shift * Ms)
                    half[np.ix_(T_j, U)] += Ms * structure.orders[i] / size**2
        period = structure.orders[min(j + 1, structure.depth)]
        corner = half[:period, :period]
        return corner + corner.T

    return structure.table(("w_kernel", j), build)


def _translations(structure: GroupStructure, xs):
    """For each x in ``xs``, the row x - t over every t in [0, M_L), one at a time.

    Digit-wise subtraction has no carries, so with M_h the order nearest
    M_L / M_h, x - t = (x_hi - t_hi) M_h + (x_lo - t_lo), each difference
    digit-wise.  The two half tables of differences are made with two ``sub``
    calls, and each row is then their broadcast sum, O(M_L) per point.
    """
    size = structure.size
    half = min(structure.orders, key=lambda Mh: Mh**2 + (size // Mh) ** 2)
    lows, highs = np.arange(half), np.arange(0, size, half)
    low = structure.sub(lows[:, None], lows)
    high = structure.sub(highs[:, None], highs)
    for x in np.asarray(xs).ravel().tolist():
        yield (high[x // half, :, None] + low[x % half]).ravel()


def _w_values(f: SampledFunction, xs, ys, orders) -> np.ndarray:
    """W_j(x, y; f) for j in ``orders`` at one point or at arrays of points:
    each K_j dotted with the coset sums of |f(x - t, y - u) - f(x, y)|.

    A scalar point gives shape ``(len(orders),)``, arrays of points
    ``(points, len(orders))``.  The stored kernels and the reshapes that
    fold each level are worked out once per call, and the sample is read
    once: as a float64 copy of its real part when its imaginary part is zero
    everywhere, since |a - c| of real parts is the complex modulus
    hypot(a - c, 0) bit for bit, and as complex128 otherwise.  Each point then
    takes one gather of its differences (two ``take`` calls along the rows of
    ``_translations``) and its modulus in place.

    K_j has period M_P, P = min(j + 1, L), so W_j needs the sums over the
    I_P x I_P cosets.  They are taken fine to coarse: the orders are visited
    from the finest period down, and each level's sums fold one digit of the
    level above, about (4/3) M_L^2 reads at radix 2 in place of one full-grid
    pass per order.  Every level is folded the same way whatever ``orders``
    holds, so an order's value does not depend on which others are asked for.
    The values come back in the order of ``orders``.
    """
    structure = f.structure
    orders = list(orders)
    plan, level = [], structure.depth
    for j in sorted(set(orders), reverse=True):
        kernel = _w_kernel(structure, j)
        folds = []
        while structure.orders[level] > len(kernel):
            level -= 1
            m, period = structure.radices[level], structure.orders[level]
            folds.append((m, period, m, period))
        plan.append((j, kernel, folds))
    values = f.values
    if not values.imag.any():
        values = np.ascontiguousarray(values.real)
    xs, ys = np.asarray(xs), np.asarray(ys)
    out = np.empty((xs.size, len(orders)))
    points = zip(
        xs.ravel().tolist(), ys.ravel().tolist(), _translations(structure, xs), _translations(structure, ys)
    )
    for row, (x, y, x_rows, y_rows) in enumerate(points):
        sums = values.take(x_rows, 0).take(y_rows, 1)
        sums -= values[x, y]
        sums = np.abs(sums, out=sums if sums.dtype == np.float64 else None)
        w = {}
        for j, kernel, folds in plan:
            for shape in folds:
                sums = sums.reshape(shape).sum(axis=(0, 2))
            w[j] = np.vdot(kernel, sums)
        out[row] = [w[j] for j in orders]
    return out.reshape(xs.shape + (len(orders),))


def w_operator_2d(f: SampledFunction, x: int, y: int, j: int) -> float:
    """The 2-D localized-oscillation operator W_j(x, y; f)."""
    require_arity(f, 2, "w_operator_2d")
    structure = f.structure
    j = check_int("order", j, 0, structure.depth)
    structure.check_points(x, y)
    return float(_w_values(f, x, y, [j])[0])


def w_sequence(f: SampledFunction, x: int, y: int) -> np.ndarray:
    """W_1 .. W_L at one point (one gather of |f - f(x,y)|)."""
    require_arity(f, 2, "w_sequence")
    structure = f.structure
    structure.check_points(x, y)
    return _w_values(f, x, y, range(1, structure.depth + 1))


def means_error(
    f: SampledFunction, n: int, x: int, y: int, index_base: int = 0
) -> tuple[float, float]:
    """Pointwise |sigma_n f - f| next to its oscillation majorant.

    The majorant is (1/n) sum_{j<=A} M_j W_j(x, y; f) with A the order of n.
    For constant f the error is |c|/n under the default convention while the
    majorant vanishes, so the pair is reported rather than asserted against
    each other.
    """
    structure = f.structure
    structure.check_points(x, y)
    sigma = marcinkiewicz_means(f, n, "multiplier", index_base)
    error = float(abs(sigma.values[x, y] - f.values[x, y]))
    A = structure.index_order(n)
    # one gather of |f - f(x, y)| serves every order
    w = _w_values(f, x, y, range(A + 1))
    majorant = sum(structure.orders[j] * float(w[j]) for j in range(A + 1)) / n
    return error, float(majorant)


# -- the majorant components ------------------------------------------------------


def _component_terms(structure: GroupStructure, n: int, comp: int):
    """Yield (weight, t_level, t_base, u_level, u_base, indicator_lo_hi)."""
    comp = check_int("component", comp, 1, 4)
    if comp in (1, 2):
        for q in range(n):
            Mq = structure.orders[q]
            for k in range(q, n):
                Mk = structure.orders[k]
                weight = Mq * Mk / structure.radices[k]
                level = _shift_level(k, q)
                for shift in range(1, structure.radices[q]):
                    base = shift * Mq
                    if comp == 1:
                        yield weight, level, base, k, 0, (k + 1, n - 1)
                    else:
                        yield weight, k, 0, level, base, (k + 1, n - 1)
        return
    for s in range(min(n, structure.depth - 1) + 1):
        Ms = structure.orders[s]
        for i in range(s, n + 1):
            weight = Ms * structure.orders[i]
            level = _shift_level(i, s)
            for shift in range(1, structure.radices[s]):
                base = shift * Ms
                if comp == 3:
                    yield weight, level, base, n, 0, None
                else:
                    yield weight, n, 0, level, base, None


# -- grid-wide component evaluation via kernel tables ------------------------------


def v_kernel_table(structure: GroupStructure, n: int, comp: int) -> np.ndarray:
    """The convolution kernel H with V_n^(comp) f = f * H (group convolution).

    H(t, u) accumulates the term weights over the coset-pair domains, with
    the digit-sum indicator thinning the shifted-coset sums.  It depends only
    on the digits below n (components 1-2) or min(n + 1, L) (components
    3-4), and on any quotient deep enough to hold those digits it is the
    full kernel's leading square.  Stored on the structure; cross-checked
    against the verbatim per-point route in tests.
    """
    n = check_int("order", n, 0, structure.depth)

    def build() -> np.ndarray:
        size = structure.size
        H = np.zeros((size, size), dtype=np.float64)
        for weight, kt, bt, ku, bu, ind in _component_terms(structure, n, comp):
            T = structure.interval_indices(kt, bt)
            U = structure.interval_indices(ku, bu)
            block = np.full((T.size, U.size), float(weight))
            if ind is not None:
                mask = r_factor_table(structure, *ind)[_outer_add(structure, kt, bt, ku, bu)] > 0
                block = block * mask
            H[np.ix_(T, U)] += block
        return H

    return structure.table(("v_kernel", n, comp), build)


def _coset_means(f: SampledFunction, period: int) -> np.ndarray:
    """Means of a 2-D sample over the I_K x I_K cosets, M_K = ``period``,
    indexed by the digits below K."""
    reps = f.structure.size // period
    return f.values.reshape(reps, period, reps, period).mean(axis=(0, 2))


def _lift(grid: np.ndarray, size: int) -> np.ndarray:
    """A function on G/I_K, given on its M_K x M_K square, on a grid of side ``size``."""
    reps = size // grid.shape[0]
    return grid if reps == 1 else np.tile(grid, (reps, reps))


def _v_grids(f: SampledFunction, kernels: Sequence[tuple[int, Sequence[int]]]):
    """Yield m * H for each kernel spec (n, comps), H = sum_{c in comps} H_n^(c),
    in list order: m is f's coset means on the quotient G/I_K where H lives,
    and each grid is given on its M_K x M_K square.

    K = n when comps holds only components 1-2 and min(n + 1, L) otherwise,
    at least 1.  Two consecutive kernels, paired from the end of the list (an
    odd list leaves its first kernel alone), share one convolution on the
    finer of their quotients with H_a + i H_b, summed into one complex
    buffer, whose real and imaginary parts are m * H_a and m * H_b when m is
    real; a complex m takes one such call per part.  The means are reused
    while K is unchanged.
    """
    structure = f.structure
    depths = [max(1, min(n + (max(comps) > 2), structure.depth)) for n, comps in kernels]
    lone = len(kernels) % 2
    units = ([[0]] if lone else []) + [[i, i + 1] for i in range(lone, len(kernels), 2)]
    period = 0
    for unit in units:
        quotient = structure.quotient(max(depths[i] for i in unit))
        if quotient.size != period:
            period, means = quotient.size, _coset_means(f, quotient.size)
        packed = np.zeros(means.shape, dtype=np.complex128)
        for part, i in zip((packed.real, packed.imag), unit):
            n, comps = kernels[i]
            for comp in comps:
                part += v_kernel_table(quotient, n, comp)
        kernel = SampledFunction(quotient, packed)
        if len(unit) == 1 or not means.imag.any():
            whole = convolve(SampledFunction(quotient, means), kernel).values
            grids = [whole] if len(unit) == 1 else [whole.real, whole.imag]
        else:
            real = convolve(SampledFunction(quotient, means.real), kernel).values
            imag = convolve(SampledFunction(quotient, means.imag), kernel).values
            grids = [real.real + 1j * imag.real, real.imag + 1j * imag.imag]
        for i, grid in zip(unit, grids):
            side = structure.orders[depths[i]]
            yield grid[:side, :side]


def v_component_grid(f: SampledFunction, n: int, comp: int) -> np.ndarray:
    """V_n^(comp) f on the whole grid, convolved on the quotient G/I_K where
    its kernel lives and tiled back: K = n for components 1-2 and min(n + 1, L)
    for 3-4, at least 1 (at n = 0 components 1-2 have no terms)."""
    require_arity(f, 2, "v_component_grid")
    n = check_int("order", n, 0, f.structure.depth)
    (grid,) = _v_grids(f, [(n, (comp,))])
    return _lift(grid, f.structure.size)


def v_sup_grid(f: SampledFunction) -> np.ndarray:
    """V f = sup_{1<=n<=L} |V_n f| on the whole grid.

    V_n f = f * (H_1 + ... + H_4) by linearity, so each order is one summed
    kernel, on G/I_K with K = min(n + 1, L); paired as ``_v_grids`` pairs
    them, the L orders take ceil(L/2) convolutions.  The running sup stays on
    the current quotient and is tiled up as K grows.
    """
    require_arity(f, 2, "v_sup_grid")
    out = np.zeros((1, 1))
    for grid in _v_grids(f, [(n, (1, 2, 3, 4)) for n in range(1, f.structure.depth + 1)]):
        out = np.maximum(_lift(out, len(grid)), np.abs(grid))
    return out


# -- martingale maximal function ----------------------------------------------------


def maximal_function_grid(f: SampledFunction) -> np.ndarray:
    """f*(x, y) = sup_{0<=n<=L} |average of f over I_n(x) x I_n(y)|, the
    running sup kept on each quotient G/I_n and tiled up as n grows."""
    require_arity(f, 2, "maximal_function_grid")
    structure = f.structure
    out = np.zeros((1, 1))
    for n in range(structure.depth + 1):
        Mn = structure.orders[n]
        out = np.maximum(_lift(out, Mn), np.abs(_coset_means(f, Mn)))
    return out


# -- Lebesgue-point classification ----------------------------------------------------


@dataclass(frozen=True)
class LebesgueReport:
    """W-sequence, companion mean errors, and a convergence verdict at a point."""

    x: int
    y: int
    x_digits: tuple[int, ...]
    y_digits: tuple[int, ...]
    w_values: tuple[float, ...]
    sigma_errors: tuple[float, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "x_digits": list(self.x_digits),
            "y_digits": list(self.y_digits),
            "W": list(self.w_values),
            "sigma_err": list(self.sigma_errors),
            "verdict": self.verdict,
        }


# verdict levels for the deepest W values
_THRESHOLD = 0.02
_ESCAPE_FACTOR = 10.0


def _verdict(w: Sequence[float]) -> str:
    w = list(w)
    if w[-1] > _ESCAPE_FACTOR * _THRESHOLD:
        return "non-converging"
    deep = w[-2:] if len(w) >= 2 else w
    tail = w[-3:]
    nonincreasing = all(tail[i] >= tail[i + 1] - 1e-12 for i in range(len(tail) - 1))
    if all(v < _THRESHOLD for v in deep) and nonincreasing:
        return "converging"
    return "inconclusive"


def lebesgue_reports(
    f: SampledFunction,
    points: Sequence[tuple[int, int]],
    index_base: int = 0,
) -> list[LebesgueReport]:
    """Classify several points, sharing one transform of f.

    The mean of order M_j is the multiplier route of ``marcinkiewicz_means``
    applied to that transform, taken on the quotient G/I_j: its multiplier
    vanishes outside the leading M_j x M_j block of coefficients, whose
    characters depend only on the digits below j, so sigma_{M_j} f is a
    function on G/I_j.  It is one M_j x M_j inverse of that block, read at
    (x mod M_j, y mod M_j).  W_1..W_L come from one ``_w_values`` call for
    the whole batch: one gather per point, summed over the cosets fine to
    coarse.
    """
    require_arity(f, 2, "lebesgue_reports")
    index_base = check_index_base(index_base)
    structure = f.structure
    pairs = np.asarray(points)
    if pairs.size == 0:
        return []
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"points must be (x, y) pairs, got an array of shape {pairs.shape}")
    xs, ys = pairs.T
    structure.check_points(xs, ys)
    coeffs = forward(f).coefficients
    # the mean grids are read at the points only, so none of them is kept
    sigma_errors = np.empty((structure.depth, len(xs)))
    for j in range(1, structure.depth + 1):
        quotient = structure.quotient(j)
        order = quotient.size
        block = coeffs[:order, :order] * sigma_multiplier(quotient, order, index_base)
        mean = inverse(Spectrum(quotient, block))
        sigma_errors[j - 1] = np.abs(mean.values[xs % order, ys % order] - f.values[xs, ys])
    w = _w_values(f, xs, ys, range(1, structure.depth + 1)).tolist()
    digits = structure.digit_table
    rows = zip(
        xs.tolist(), ys.tolist(), digits[xs].tolist(), digits[ys].tolist(), w, sigma_errors.T.tolist()
    )
    return [
        LebesgueReport(
            x=x,
            y=y,
            x_digits=tuple(dx),
            y_digits=tuple(dy),
            w_values=tuple(wv),
            sigma_errors=tuple(errors),
            verdict=_verdict(wv),
        )
        for x, y, dx, dy, wv, errors in rows
    ]
