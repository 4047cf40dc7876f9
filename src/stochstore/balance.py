"""Density-grid arithmetic for the per-step energy balance.

The balance of one step is ``B = G - D`` with generation ``G`` and demand
``D`` independent.  A step with a point-mass side (``Deterministic`` or
``Empirical``) is read exactly: its balance cdf is a finite sum of the
other side's own cdf (:func:`point_mass_balance`).  Two continuous sides
are discretized onto uniform mass grids, and the window probabilities
(deficit / overflow / self-sufficiency) are read from the cdf of their
difference-convolution at two points, summed from the inputs there through
one interpolation, ``_GridMeasure.cdf``.  For deterministic generation and
Weibull demand the triple also has a closed form (:func:`weibull_closed_form`),
which no other code here calls; the Monte Carlo sampler imports nothing
from this module.  The routes meet only in the CLI, so they can check each other.

Grid conventions
----------------
Cell ``i`` of a grid covers ``[origin + i*step, origin + (i+1)*step)`` and
carries a probability mass, uniform within its cell, so the grid cdf is
piecewise linear between cell edges.  A grid is its cumulative masses at
its edges, and ``DensityGrid(origin, step, cum)`` is its one constructor:
``discretize`` passes ``cdf(edges) - cdf(edges[0])``.  A balance refines the
coarser of its two grids to the finer step as the interpolated cdf at the new
edges, an array it reads without a grid around it.  The cell masses are the
differences of the cumulative masses, formed only where a dot product needs them.

Probability conventions
-----------------------
``self_sufficiency(b, s_prev, storage)`` checks ``s_prev`` against the
storage window and forms its own half-open query window ``(lo, hi] =
(s_min - s_prev, s_max - s_prev]``: deficit counts ``B <= lo`` (closed)
and overflow counts ``B > hi`` (open), which fixes tie-breaking when the
balance has point masses.

Mass accounting
---------------
Discretization truncates far tails, so a grid's total mass, its last
cumulative mass, may fall slightly below one; the shortfall is reported
(``truncated_mass``), never silently renormalized.  Every grid passes one
check, in its constructor: ``cum`` is 1-d, has at least two values and
starts at 0, and its masses are finite, none below -1e-12 (rounding dust,
read as 0), with a total of at most 1 + 1e-9.  Probability evaluation
refuses grids whose shortfall exceeds ``MASS_TRUNCATION_BUDGET``.  The
self-sufficiency triple sums to the balance's total mass exactly (1 for a
point-mass balance); the truncated remainder is accounted against
``p_self``'s error budget.
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
    "point_mass_balance",
    "self_sufficiency",
    "weibull_closed_form",
]

DEFAULT_CELLS = 4096
DEFAULT_COVERAGE = 1.0 - 1e-8
MASS_TRUNCATION_BUDGET = 1e-6
# Largest balance grid difference_density builds.  Refining the coarser
# input to the finer step can ask for far more cells than either input has
# (a very narrow input against a wide one); past this it refuses instead.
MAX_BALANCE_CELLS = 2**22


class TruncationBudgetError(ValueError):
    """Too much probability mass was truncated for a reliable evaluation."""


class CellBudgetError(ValueError):
    """A grid cannot be built within the cell budget: a balance grid over
    ``MAX_BALANCE_CELLS`` cells, or an input whose quantile window is too narrow
    for its cells to hold all but ``MASS_TRUNCATION_BUDGET`` of its mass."""


def _edges(origin: float, step: float, n_cells: int) -> np.ndarray:
    """``origin + step * k`` for ``k = 0 .. n_cells``, scaled and shifted in place.

    A float ``arange`` holds each ``k`` exactly, so the values are those of
    the int ``arange`` without its array or its cast.
    """
    edges = np.arange(n_cells + 1, dtype=float)
    edges *= step
    edges += origin
    return edges


def _masses(cum: np.ndarray) -> np.ndarray:
    """Cell masses (read-only) of cumulative masses ``cum``: their differences,
    rounding dust clipped to 0."""
    masses = np.diff(cum)
    if masses.min() < 0.0:
        np.maximum(masses, 0.0, out=masses)
    masses.flags.writeable = False
    return masses


class _GridMeasure:
    """What a window query reads from a probability measure on a uniform grid.

    Subclasses give ``origin``, ``step``, ``n_cells``, ``total_mass`` and
    ``_cum_pair(k)``, the cumulative masses at edges ``k`` and ``k + 1``; the
    geometry and the cdf follow from them.
    """

    @property
    def width(self) -> float:
        """Support width."""
        return self.n_cells * self.step

    @property
    def truncated_mass(self) -> float:
        """Probability mass lost to tail truncation (>= 0)."""
        return max(0.0, 1.0 - self.total_mass)

    @property
    def edges(self) -> np.ndarray:
        """Cell edge positions, length ``n_cells + 1``."""
        return _edges(self.origin, self.step, self.n_cells)

    def cdf(self, x: float) -> float:
        """Grid measure of ``(-inf, x]`` under the piecewise-uniform model.

        0 up to the first edge, the total mass from the last one on (``±inf``
        included), and in between ``np.interp(x, edges, cum)`` bit for bit,
        without building ``edges``.
        """
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf argument must not be NaN")
        origin, step, n = self.origin, self.step, self.n_cells
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
    through a read-only view.
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
        return _masses(self.cum)

    @property
    def n_cells(self) -> int:
        return self.cum.size - 1

    # Read by perfbench/spans.py's _convolve_counter on each difference_density
    # input; nothing in this package reads it.
    is_atom = False

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

    A continuous family is gridded over its central ``DEFAULT_COVERAGE``
    quantile window with per-cell mass ``cdf(right) - cdf(left)`` exactly.
    A window whose cells hold less than ``1 - MASS_TRUNCATION_BUDGET`` of the
    mass (degenerate, or a few ulps wide) raises :class:`CellBudgetError`.
    A point mass raises ``TypeError``: :func:`point_mass_balance` reads it.
    """
    cells = int(cells)
    if cells < 2:
        raise ValueError(f"cell count must be >= 2, got {cells}")
    if isinstance(spec, (Deterministic, Empirical)):
        raise TypeError(f"{type(spec).__name__} is a point mass: read it with point_mass_balance")

    tail = (1.0 - DEFAULT_COVERAGE) / 2.0
    lo, hi = spec.quantile(tail), spec.quantile(1.0 - tail)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise CellBudgetError(
            f"cannot grid {type(spec).__name__}: degenerate quantile window [{lo}, {hi}]"
        )
    step = (hi - lo) / cells
    # The edges are freed once their cdf values are read; the cumulative
    # masses are measured from the first edge.
    cum = spec.cdf(_edges(lo, step, cells))
    cum -= cum[0]
    grid = DensityGrid(lo, step, cum)
    if grid.truncated_mass > MASS_TRUNCATION_BUDGET:
        raise CellBudgetError(
            f"cannot grid {type(spec).__name__}: its cells on the quantile window "
            f"[{lo}, {hi}] hold only {grid.total_mass:.6g} of its mass"
        )
    return grid


def _refined_cum(grid: DensityGrid, step: float, cells: int) -> np.ndarray:
    """The cumulative masses of ``grid`` at ``cells + 1`` edges ``step`` apart
    from its origin: its cdf, linear between its edges, so each cell's mass is
    split uniformly and mass and location are kept."""
    # The new edges are freed once their cumulative masses are read.
    return np.interp(_edges(grid.origin, step, cells), grid.edges, grid.cum)


def difference_density(gen: DensityGrid, dem: DensityGrid) -> _CellBalance:
    """Distribution of the balance ``B = G - D`` of two independent cell grids.

    The result is read through ``origin``, ``step``, ``n_cells``, ``width``,
    ``edges``, ``total_mass``, ``truncated_mass`` and ``cdf(x)``, as on a
    :class:`DensityGrid`.  It has ``n_gen + n_dem`` cells, origin
    ``gen.origin - (dem.origin + dem.width)``, and total mass equal to the
    product of the input masses.

    Unequal grid spacings are reconciled by refining the coarser grid to
    the finer one first; :class:`CellBudgetError` is raised, before any
    refinement, when the result would have more than ``MAX_BALANCE_CELLS``
    cells.  The exact difference density of the piecewise-uniform model is
    the cross-correlation of the masses with each product triangle split
    evenly between the two cells it straddles.  ``cdf`` sums that
    correlation from the two inputs at the cells it needs, in time linear
    in the inputs, and no balance-sized array is built.
    """
    h = min(gen.step, dem.step)
    # Each input's cell count at step h.  np.ceil keeps a count too large
    # for an int (a huge input's width / h may be inf) a float.
    cells = [g.n_cells if g.step == h else np.ceil(g.width / h - 1e-12) for g in (gen, dem)]
    n_cells = sum(cells)
    if not n_cells <= MAX_BALANCE_CELLS:
        raise CellBudgetError(
            f"the balance grid needs {n_cells:.10g} cells at the finer input step {h:.3g}, "
            f"over the budget of {MAX_BALANCE_CELLS}; one input is much narrower than the other"
        )
    gen_cum, dem_cum = [
        g.cum if g.step == h else _refined_cum(g, h, int(n)) for g, n in zip((gen, dem), cells)
    ]
    origin = gen.origin - (dem.origin + (dem_cum.size - 1) * h)
    return _CellBalance(origin, h, gen_cum, _masses(gen_cum), dem_cum[-1] - dem_cum[:-1])


@dataclass(frozen=True, eq=False)
class _CellBalance(_GridMeasure):
    """The balance ``G - D`` of two cell grids on one step, kept as what its
    queries read of them: the generation's cumulative masses ``gen_cum`` and
    masses ``gen_mass``, and ``tail[m]``, the demand mass of cells m and up.

    With ``g`` the generation masses and ``d`` the demand masses, the
    balance masses are ``0.5 * (corr[k] + corr[k - 1])`` for the correlation
    ``corr = np.convolve(g, d[::-1])`` (zero outside ``[0, n_corr)``).  The
    cumulative masses at the edges are therefore
    ``cum[k] = 0.5 * (C[k - 2] + C[k - 1])`` with ``C`` the running sum of
    ``corr``, and each ``C[j]`` is one dot product of the inputs.
    """

    origin: float
    step: float
    gen_cum: np.ndarray = field(repr=False)
    gen_mass: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return self.gen_mass.size + self.tail.size

    @property
    def total_mass(self) -> float:
        return float(self.tail[0] * self.gen_cum[-1])

    def _corr_cum(self, j: int) -> float:
        """``C[j] = corr[0] + ... + corr[j]``: 0 for ``j < 0``, the total from ``n_corr - 1``."""
        if j < 0:
            return 0.0
        n_gen, n_dem = self.gen_mass.size, self.tail.size
        # Generation cells below lo meet all of the demand; cells lo..hi-1
        # meet the demand cells from n_dem - 1 - (j - i) up.
        lo = min(max(j - n_dem + 2, 0), n_gen)
        hi = min(j + 1, n_gen)
        shift = n_dem - 1 - j
        partial = np.dot(self.gen_mass[lo:hi], self.tail[lo + shift : hi + shift])
        return float(self.tail[0] * self.gen_cum[lo] + partial)

    def _cum_pair(self, k: int) -> tuple[float, float]:
        c = [self._corr_cum(j) for j in (k - 2, k - 1, k)]
        return 0.5 * (c[0] + c[1]), 0.5 * (c[1] + c[2])


@dataclass(frozen=True, eq=False)
class _PointMassBalance:
    """The exact balance of a step with a point-mass side, read like a grid
    balance: ``points`` and ``masses`` are that side's distinct values and
    their probabilities, ``other`` is the other side.  Nothing is truncated."""

    points: np.ndarray
    masses: np.ndarray
    other: Distribution
    demand_side: bool  # the points are the demand's
    total_mass = 1.0
    truncated_mass = 0.0

    def cdf(self, x: float) -> float:
        if self.demand_side:  # Pr[G <= x + d]: every cdf is closed on the right
            return float(np.dot(self.masses, self.other.cdf(x + self.points)))
        # Pr[D >= g - x], which is 1 - cdf(g - x) for a continuous demand.
        return float(np.dot(self.masses, 1.0 - self.other.cdf(self.points - x)))


def point_mass_balance(gen: Distribution, dem: Distribution) -> _PointMassBalance | None:
    """The exact balance of a step with a ``Deterministic`` or ``Empirical`` side.

    A side's point masses are its distinct values, with counts / size as
    masses (a ``Deterministic`` is one value of mass 1).  With points ``d``
    of mass ``m`` on the demand side, ``Pr[B <= x] = sum m * gen.cdf(x + d)``,
    exact for any generation, ties included.  With points ``g`` on the
    generation side only, ``Pr[B <= x] = sum m * (1 - dem.cdf(g - x))``,
    exact for a continuous demand.  ``None`` when both sides are continuous.
    """
    for side, other, demand_side in ((dem, gen, True), (gen, dem, False)):
        if isinstance(side, (Deterministic, Empirical)):
            values = side.samples if isinstance(side, Empirical) else (side.value,)
            points, counts = np.unique(values, return_counts=True)
            return _PointMassBalance(points, counts / counts.sum(), other, demand_side)
    return None


def self_sufficiency(b, s_prev: float, storage: StorageSpec) -> ProbabilityTriple:
    """Deficit / overflow / self-sufficiency probabilities of a balance (a grid's or an exact one).

    The step starts at level ``s_prev``, checked against the storage window,
    and stays in the window iff the balance lands in ``(lo, hi] =
    (s_min - s_prev, s_max - s_prev]``.  ``p_deficit = Pr[B <= lo]``,
    ``p_overflow = Pr[B > hi]``, and ``p_self`` is the balance mass of
    ``(lo, hi]``, so the triple sums to the balance's total mass exactly; any
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
