"""Density-grid arithmetic for the per-step energy balance.

The balance of one step is ``B = G - D`` with generation ``G`` and demand
``D`` independent.  Both are discretized onto uniform mass grids, and the
window probabilities (deficit / overflow / self-sufficiency) are read from
the cdf of their difference-convolution.  A window query needs that cdf at
two points only, so for two cell grids it is summed from the inputs at
those points and the balance masses are never formed.  Every grid measure
reads its cdf through one interpolation, ``_GridMeasure.cdf``, from the
cumulative masses at the two edges around the point.  For deterministic
generation and Weibull demand the same triple also has a closed form
(:func:`weibull_closed_form`).  The grid never calls it, and the Monte Carlo
sampler imports nothing from this module; the routes meet only in the CLI,
so they can check each other.

Grid conventions
----------------
Cell ``i`` of a grid covers ``[origin + i*step, origin + (i+1)*step)`` and
carries a probability mass.  Mass is treated as uniform within its cell,
so the grid cdf is piecewise linear between cell edges.  A grid is its
cumulative masses at its edges, which that cdf interpolates, and
``DensityGrid(origin, step, cum)`` is its one constructor: ``discretize``
passes ``cdf(edges) - cdf(edges[0])``, ``resample`` the interpolated cdf
at its new edges, a histogram or an atom the running sum of its cell
masses.  The cell masses are their differences, formed only where a dot
product needs them.  A grid with a single cell is a point mass (atom) at
``origin``: its width is zero and its ``step`` is a placeholder.  Atoms
enter the difference exactly, as pure shifts, and are never smeared
across cells.

Probability conventions
-----------------------
``self_sufficiency(b, s_prev, storage)`` checks ``s_prev`` against the
storage window and forms its own half-open query window ``(lo, hi] =
(s_min - s_prev, s_max - s_prev]``: deficit counts ``B <= lo`` (closed)
and overflow counts ``B > hi`` (open).  The distinction is
immaterial for continuous balances but fixes deterministic tie-breaking
when the balance carries atoms.

Mass accounting
---------------
Discretization truncates far tails, so a grid's total mass, its last
cumulative mass, may fall slightly below one; the shortfall is reported
(``truncated_mass``), never silently renormalized.  Every grid passes one
check, in its constructor: ``cum`` is 1-d, has at least two values and
starts at 0, and its masses are finite, none below -1e-12 (rounding dust,
read as 0), with a total of at most 1 + 1e-9.  Probability evaluation
refuses grids whose shortfall exceeds ``MASS_TRUNCATION_BUDGET``.  The
self-sufficiency triple returned from a grid sums to the grid's total
mass exactly; the truncated remainder is accounted against ``p_self``'s
error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Deterministic, Distribution, Empirical, Weibull
from .storage import StorageSpec

__all__ = [
    "DEFAULT_CELLS",
    "DEFAULT_COVERAGE",
    "MASS_TRUNCATION_BUDGET",
    "DensityGrid",
    "ProbabilityTriple",
    "TruncationBudgetError",
    "MAX_BALANCE_CELLS",
    "CellBudgetError",
    "discretize",
    "difference_density",
    "self_sufficiency",
    "weibull_closed_form",
]

DEFAULT_CELLS = 4096
DEFAULT_COVERAGE = 1.0 - 1e-8
MASS_TRUNCATION_BUDGET = 1e-6
# Largest balance grid difference_density builds.  Refining the coarser
# input to the finer step can ask for far more cells than either input has
# (a near-atom input against a wide one); past this it refuses instead.
MAX_BALANCE_CELLS = 2**22


class TruncationBudgetError(ValueError):
    """Too much probability mass was truncated for a reliable evaluation."""


class CellBudgetError(ValueError):
    """A grid cannot be built within the cell budget.

    Either a balance grid would need more than ``MAX_BALANCE_CELLS`` cells,
    or a distribution's quantile window is too narrow for any float step or
    for its cells to hold all but ``MASS_TRUNCATION_BUDGET`` of its mass.
    """


class _GridMeasure:
    """What a window query reads from a probability measure on a uniform grid.

    Subclasses give ``origin``, ``step``, ``n_cells``, ``is_atom``,
    ``total_mass`` and ``_cum_pair(k)``, the cumulative masses at edges ``k``
    and ``k + 1``; the geometry and the cdf follow from them.
    """

    @property
    def width(self) -> float:
        """Support width; zero for an atom."""
        return 0.0 if self.is_atom else self.n_cells * self.step

    @property
    def truncated_mass(self) -> float:
        """Probability mass lost to tail truncation (>= 0)."""
        return max(0.0, 1.0 - self.total_mass)

    @property
    def edges(self) -> np.ndarray:
        """Cell edge positions, length ``n_cells + 1``."""
        return self.origin + self.step * np.arange(self.n_cells + 1)

    def cdf(self, x: float) -> float:
        """Grid measure of ``(-inf, x]`` under the piecewise-uniform model.

        0 up to the first edge, the total mass from the last one on (``±inf``
        included), and in between ``np.interp(x, edges, cum)`` bit for bit,
        without building ``edges``.  An atom's mass sits exactly at
        ``origin`` (closed on the right, per the window convention).
        """
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf argument must not be NaN")
        origin, step, n = self.origin, self.step, self.n_cells
        if self.is_atom:
            return self.total_mass if x >= origin else 0.0
        if x < origin:
            return 0.0
        if not x < origin + step * n:
            return self.total_mass
        # The last cell k with edges[k] <= x (edges that round together hold
        # one value), as np.interp's search finds it.
        k = int(min((x - origin) / step, n - 1))
        while k > 0 and origin + step * k > x:
            k -= 1
        while k < n - 1 and origin + step * (k + 1) <= x:
            k += 1
        below, above = self._cum_pair(k)
        left = origin + step * k
        if x == left:
            return below
        # x > left, so np.interp's retry for a NaN product cannot arise.
        return (above - below) / (origin + step * (k + 1) - left) * (x - left) + below


@dataclass(frozen=True, eq=False)
class DensityGrid(_GridMeasure):
    """A probability measure on a uniform grid: its cumulative masses at its edges.

    ``DensityGrid(origin, step, cum)`` is the one constructor.  ``cum[k]`` is
    the mass below edge ``origin + k*step`` (``cum[0]`` is 0), and
    ``masses[i] = cum[i + 1] - cum[i]`` is the probability of
    ``[origin + i*step, origin + (i+1)*step)``.  ``cum`` is read, not copied,
    through a read-only view.  A grid with two cumulative masses (one cell)
    is an atom at ``origin``.
    """

    origin: float
    step: float
    cum: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        """Check the grid and keep ``cum`` read-only.

        ``cum`` is 1-d, has at least 2 values and starts at 0; its masses are
        finite, none below -1e-12, and its total is at most 1 + 1e-9.
        """
        origin, step = float(self.origin), float(self.step)
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {step!r}")
        cum = np.asarray(self.cum, dtype=float).view()
        if cum.ndim != 1 or cum.size < 2:
            raise ValueError("cum must be a 1-d array of at least 2 cumulative masses")
        if not cum[0] == 0.0:
            raise ValueError(f"cum must start at 0, got {float(cum[0])!r}")
        # A NaN or infinite cumulative mass gives a NaN or -inf difference,
        # or an infinite total, so these two tests also refuse non-finite masses.
        low = float(np.diff(cum).min())
        if not low >= -1e-12:  # only rounding dust from upstream arithmetic passes
            raise ValueError(f"masses must be finite and >= 0, found {low!r}")
        total = float(cum[-1])
        if not total <= 1.0 + 1e-9:
            raise ValueError(f"total mass must not exceed 1, got {total!r}")
        cum.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "cum", cum)

    @property
    def masses(self) -> np.ndarray:
        """Cell masses (read-only): the differences of ``cum``, rounding dust clipped to 0."""
        masses = np.diff(self.cum)
        if masses.min() < 0.0:
            np.maximum(masses, 0.0, out=masses)
        masses.flags.writeable = False
        return masses

    @property
    def n_cells(self) -> int:
        return self.cum.size - 1

    @property
    def is_atom(self) -> bool:
        """True when this grid is a point mass at ``origin``."""
        return self.cum.size == 2

    @property
    def total_mass(self) -> float:
        return float(self.cum[-1])

    def _cum_pair(self, k: int) -> tuple[float, float]:
        return float(self.cum[k]), float(self.cum[k + 1])


@dataclass(frozen=True)
class ProbabilityTriple:
    """Deficit / overflow / self-sufficiency probabilities for one step."""

    p_deficit: float
    p_overflow: float
    p_self: float

    def __post_init__(self) -> None:
        for name in ("p_deficit", "p_overflow", "p_self"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < -1e-9 or v > 1.0 + 1e-9:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
            object.__setattr__(self, name, min(max(v, 0.0), 1.0))


def discretize(spec: Distribution, cells: int = DEFAULT_CELLS) -> DensityGrid:
    """Project a distribution onto a uniform mass grid.

    Continuous families are gridded over their central ``DEFAULT_COVERAGE``
    quantile window with per-cell mass ``cdf(right) - cdf(left)`` exactly.
    ``Deterministic`` becomes an atom; ``Empirical`` becomes a normalized
    histogram over its sample range (no truncation).  A quantile window or a
    sample range too narrow to cut into ``cells`` increasing float edges has
    no step to grid it with and raises :class:`CellBudgetError`, as does a
    continuous grid whose cells hold less than ``1 - MASS_TRUNCATION_BUDGET``
    of the mass (a window a few ulps wide, whose quantiles round together).
    """
    cells = int(cells)
    if cells < 2:
        raise ValueError(f"cell count must be >= 2, got {cells}")

    if isinstance(spec, Deterministic):
        return DensityGrid(spec.value, 1.0, [0.0, 1.0])

    if isinstance(spec, Empirical):
        values = np.asarray(spec.samples, dtype=float)
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            return DensityGrid(lo, 1.0, [0.0, 1.0])
        # np.histogram's own edges, which it refuses unless they increase.
        edges = np.linspace(lo, hi, cells + 1)
        if np.any(edges[:-1] >= edges[1:]):
            raise CellBudgetError(f"cannot grid Empirical: no {cells} float cells in [{lo}, {hi}]")
        counts, _ = np.histogram(values, bins=cells, range=(lo, hi))
        return DensityGrid(lo, (hi - lo) / cells, np.append(0.0, np.cumsum(counts / values.size)))

    tail = (1.0 - DEFAULT_COVERAGE) / 2.0
    lo, hi = spec.quantile(tail), spec.quantile(1.0 - tail)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise CellBudgetError(
            f"cannot grid {type(spec).__name__}: degenerate quantile window [{lo}, {hi}]"
        )
    step = (hi - lo) / cells
    # One name for the edges and then their cdf values, so the edges are
    # freed before the grid is checked; the cumulative masses are measured
    # from the first edge.
    cum = lo + step * np.arange(cells + 1)
    cum = spec.cdf(cum)
    cum -= cum[0]
    grid = DensityGrid(lo, step, cum)
    if grid.truncated_mass > MASS_TRUNCATION_BUDGET:
        raise CellBudgetError(
            f"cannot grid {type(spec).__name__}: its cells on the quantile window "
            f"[{lo}, {hi}] hold only {grid.total_mass:.6g} of its mass"
        )
    return grid


def resample(grid: DensityGrid, step: float) -> DensityGrid:
    """Rebin a grid onto spacing ``step``, conserving total mass.

    Mass moves by piecewise-uniform splitting (linear interpolation of the
    cumulative masses at the new edges).  Atoms are returned unchanged:
    their location is exact and must not be smeared.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if grid.is_atom or step == grid.step:
        return grid
    # One name for the new edges and then their cumulative masses, so the
    # edges are freed before the grid is checked.
    cum = grid.origin + step * np.arange(_resampled_cells(grid, step) + 1)
    cum = np.interp(cum, grid.edges, grid.cum)
    return DensityGrid(grid.origin, step, cum)


def _resampled_cells(grid: DensityGrid, step: float) -> int:
    """Cell count of ``resample(grid, step)``; over ``MAX_BALANCE_CELLS`` is refused."""
    if grid.is_atom or step == grid.step:
        return grid.n_cells
    # Compared as a float: a huge grid's ratio may be inf, which has no int.
    cells = grid.width / step - 1e-12
    if not cells <= MAX_BALANCE_CELLS:
        raise CellBudgetError(
            f"a grid {grid.width:.3g} wide needs {cells:.3g} cells at step {step:.3g}, "
            f"over the budget of {MAX_BALANCE_CELLS}"
        )
    # At least two cells so the result is never mistaken for an atom.
    return max(2, int(math.ceil(cells)))


def difference_density(gen: DensityGrid, dem: DensityGrid) -> DensityGrid | _CellBalance:
    """Distribution of the balance ``B = G - D`` (independent inputs).

    The result is read through ``origin``, ``step``, ``n_cells``, ``width``,
    ``edges``, ``is_atom``, ``total_mass``, ``truncated_mass`` and
    ``cdf(x)``, as on a :class:`DensityGrid`.  It has ``n_gen + n_dem``
    cells, origin ``gen.origin - (dem.origin + dem.width)``, and total mass
    equal to the product of the input masses.

    Unequal grid spacings are reconciled by refining the coarser grid to
    the finer one first; :class:`CellBudgetError` is raised, before any
    refinement, when the result would have more than ``MAX_BALANCE_CELLS``
    cells.  For two cell-mass grids the exact difference density of the
    piecewise-uniform model is the cross-correlation of the masses with
    each product triangle split evenly between the two cells it straddles.
    ``cdf`` sums that correlation from the two inputs at the cells it
    needs, in time linear in the inputs, and no balance-sized array is
    built.  An atom on either side shifts (and on the demand side, flips)
    the other grid exactly, and the result is a :class:`DensityGrid`.
    """
    if gen.is_atom or dem.is_atom:
        return DensityGrid(
            gen.origin - (dem.origin + dem.width),
            dem.step if gen.is_atom else gen.step,
            np.append(0.0, np.cumsum(np.outer(gen.masses, dem.masses[::-1]))),
        )

    h = min(gen.step, dem.step)
    n_cells = _resampled_cells(gen, h) + _resampled_cells(dem, h)
    if n_cells > MAX_BALANCE_CELLS:
        raise CellBudgetError(
            f"the balance grid needs {n_cells} cells at the finer input step {h:.3g}, "
            f"over the budget of {MAX_BALANCE_CELLS}; one input is much narrower "
            f"than the other"
        )
    return _CellBalance(resample(gen, h), resample(dem, h))


@dataclass(frozen=True, eq=False)
class _CellBalance(_GridMeasure):
    """The balance ``G - D`` of two cell grids on one step, kept as its inputs.

    With ``g`` the generation masses and ``d`` the demand masses, the
    balance masses are ``0.5 * (corr[k] + corr[k - 1])`` for the correlation
    ``corr = np.convolve(g, d[::-1])`` (zero outside ``[0, n_corr)``).  The
    cumulative masses at the edges are therefore
    ``cum[k] = 0.5 * (C[k - 2] + C[k - 1])`` with ``C`` the running sum of
    ``corr``, and each ``C[j]`` is one dot product of the inputs.
    """

    gen: DensityGrid
    dem: DensityGrid
    # The generation cell masses, formed once for the queries' dot products.
    _gen_mass: np.ndarray = field(init=False, repr=False)
    # _tail[m] is the demand mass of cells m and up.
    _tail: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_gen_mass", self.gen.masses)
        object.__setattr__(self, "_tail", self.dem.cum[-1] - self.dem.cum[:-1])

    @property
    def origin(self) -> float:
        return self.gen.origin - (self.dem.origin + self.dem.width)

    @property
    def step(self) -> float:
        return self.gen.step

    @property
    def n_cells(self) -> int:
        return self.gen.n_cells + self.dem.n_cells

    is_atom = False

    @property
    def total_mass(self) -> float:
        return float(self._tail[0] * self.gen.total_mass)

    def _corr_cum(self, j: int) -> float:
        """``C[j] = corr[0] + ... + corr[j]``: 0 for ``j < 0``, the total from ``n_corr - 1``."""
        if j < 0:
            return 0.0
        n_gen, n_dem = self.gen.n_cells, self.dem.n_cells
        # Generation cells below lo meet all of the demand; cells lo..hi-1
        # meet the demand cells from n_dem - 1 - (j - i) up.
        lo = min(max(j - n_dem + 2, 0), n_gen)
        hi = min(j + 1, n_gen)
        shift = n_dem - 1 - j
        partial = np.dot(self._gen_mass[lo:hi], self._tail[lo + shift : hi + shift])
        return float(self._tail[0] * self.gen.cum[lo] + partial)

    def _cum_pair(self, k: int) -> tuple[float, float]:
        c = [self._corr_cum(j) for j in (k - 2, k - 1, k)]
        return 0.5 * (c[0] + c[1]), 0.5 * (c[1] + c[2])


def self_sufficiency(b: _GridMeasure, s_prev: float, storage: StorageSpec) -> ProbabilityTriple:
    """Deficit / overflow / self-sufficiency probabilities of a balance grid.

    The step starts at level ``s_prev``, checked against the storage window,
    and stays in the window iff the balance lands in ``(lo, hi] =
    (s_min - s_prev, s_max - s_prev]``.  ``p_deficit = Pr[B <= lo]``,
    ``p_overflow = Pr[B > hi]``, and ``p_self`` is the grid mass of
    ``(lo, hi]``, so the triple sums to the grid's total mass exactly; any
    truncated tail mass is accounted against ``p_self``'s error budget.
    Raises :class:`TruncationBudgetError` when the grid truncated more than
    ``MASS_TRUNCATION_BUDGET`` of its distribution.
    """
    s_prev = storage.check_level(s_prev)
    if b.truncated_mass > MASS_TRUNCATION_BUDGET:
        raise TruncationBudgetError(
            f"grid truncated {b.truncated_mass:.3e} of its mass, "
            f"exceeding the evaluation budget {MASS_TRUNCATION_BUDGET:.3e}"
        )
    below_lo, below_hi = b.cdf(storage.s_min - s_prev), b.cdf(storage.s_max - s_prev)
    p_overflow = max(0.0, b.total_mass - below_hi)
    # ProbabilityTriple clamps p_self to [0, 1].
    return ProbabilityTriple(p_deficit=below_lo, p_overflow=p_overflow, p_self=below_hi - below_lo)


def _weibull_power(x: float, dem: Weibull) -> float:
    """``(x / scale) ** shape``; inf past the float range, as ``Weibull.cdf`` reads it."""
    try:
        return (x / dem.scale) ** dem.shape
    except OverflowError:
        return math.inf


def weibull_closed_form(
    g_next: float,
    s_prev: float,
    storage: StorageSpec,
    dem: Weibull,
) -> ProbabilityTriple:
    """Exact step probabilities for known generation and Weibull demand.

    With ``g_next`` certain, the step ends in deficit iff demand reaches
    ``x_A = g_next + s_prev - s_min`` (all the energy available above the
    floor) and in overflow iff demand stays below
    ``x_B = g_next + s_prev - s_max`` (too little draw to absorb the
    surplus).  For Weibull demand:

        p_deficit  = exp(-(x_A / scale) ** shape),   1 when x_A <= 0,
        p_overflow = 1 - exp(-(x_B / scale) ** shape), 0 when x_B <= 0,
        p_self     = 1 - p_deficit - p_overflow.

    The clamps reflect the nonnegative demand support; ``x_B < x_A``
    always, so the two events are disjoint.
    """
    g_next = float(g_next)
    if not (math.isfinite(g_next) and g_next >= 0.0):
        raise ValueError(f"g_next must be finite and >= 0, got {g_next!r}")
    s_prev = storage.check_level(s_prev)
    if not isinstance(dem, Weibull):
        raise TypeError(f"demand must be a Weibull distribution, got {type(dem).__name__}")

    x_a = g_next + s_prev - storage.s_min
    x_b = g_next + s_prev - storage.s_max
    p_deficit = 1.0 if x_a <= 0.0 else math.exp(-_weibull_power(x_a, dem))
    p_overflow = 0.0 if x_b <= 0.0 else -math.expm1(-_weibull_power(x_b, dem))
    return ProbabilityTriple(
        p_deficit=p_deficit,
        p_overflow=p_overflow,
        p_self=1.0 - p_deficit - p_overflow,
    )
