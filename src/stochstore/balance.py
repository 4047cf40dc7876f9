"""Density-grid arithmetic for the per-step energy balance.

The balance of one step is ``B = G - D`` with generation ``G`` and demand
``D`` independent.  Both are discretized onto uniform mass grids, the
distribution of ``B`` is obtained by a numerical difference-convolution,
and the window probabilities (deficit / overflow / self-sufficiency) are
read off the result.  For deterministic generation and Weibull demand the
same triple also has a closed form (:func:`weibull_closed_form`); the two
routes are kept independent so they can check each other.

Grid conventions
----------------
Cell ``i`` of a grid covers ``[origin + i*step, origin + (i+1)*step)`` and
carries a probability mass.  Mass is treated as uniform within its cell,
so the grid cdf is piecewise linear between cell edges.  A grid with a
single cell is a point mass (atom) at ``origin``: its width is zero and
its ``step`` is a placeholder.  Atoms enter the difference exactly, as
pure shifts, and are never smeared across cells.

Probability conventions
-----------------------
Window queries use a half-open interval: deficit counts ``B <= lo``
(closed) and overflow counts ``B > hi`` (open).  The distinction is
immaterial for continuous balances but fixes deterministic tie-breaking
when the balance carries atoms.

Mass accounting
---------------
Discretization truncates far tails, so a grid's total mass may fall
slightly below one; the shortfall is reported (``truncated_mass``), never
silently renormalized.  Probability evaluation refuses grids whose
shortfall exceeds ``MASS_TRUNCATION_BUDGET``.  The self-sufficiency
triple returned from a grid sums to the grid's total mass exactly; the
truncated remainder is accounted against ``p_self``'s error budget.
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
    "BalanceQuery",
    "ProbabilityTriple",
    "TruncationBudgetError",
    "MAX_BALANCE_CELLS",
    "CellBudgetError",
    "discretize",
    "resample",
    "difference_density",
    "interval_probability",
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
    """A balance grid would need more than ``MAX_BALANCE_CELLS`` cells."""


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Uniform-grid probability masses for one scalar random quantity.

    ``masses[i]`` is the probability of ``[origin + i*step,
    origin + (i+1)*step)``.  A single-cell grid is an atom at ``origin``.
    """

    origin: float
    step: float
    masses: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        origin, step = float(self.origin), float(self.step)
        masses = np.array(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must form a nonempty 1-d array")
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {step!r}")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must all be finite")
        low = float(masses.min())
        if low < 0.0:
            # Tolerate only rounding dust from upstream arithmetic.
            if low < -1e-12:
                raise ValueError(f"masses must be >= 0, found {low!r}")
            masses = np.clip(masses, 0.0, None)
        total = float(masses.sum())
        if total > 1.0 + 1e-9:
            raise ValueError(f"total mass must not exceed 1, got {total!r}")
        masses.flags.writeable = False
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        cum.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_cum", cum)

    @property
    def n_cells(self) -> int:
        return self.masses.size

    @property
    def is_atom(self) -> bool:
        """True when this grid is a point mass at ``origin``."""
        return self.masses.size == 1

    @property
    def width(self) -> float:
        """Support width; zero for an atom."""
        return 0.0 if self.is_atom else self.n_cells * self.step

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

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

        Accepts ``±inf``.  For an atom the full mass sits exactly at
        ``origin`` (closed on the right, per the window convention).
        """
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf argument must not be NaN")
        if self.is_atom:
            return self.total_mass if x >= self.origin else 0.0
        if x <= self.origin:
            return 0.0
        if x >= self.origin + self.width:
            return self.total_mass
        return float(np.interp(x, self.edges, self._cum))

    def mean(self) -> float:
        """Mean of the (normalized) grid measure; cell mass at the center."""
        if self.is_atom:
            return self.origin
        centers = self.origin + self.step * (np.arange(self.n_cells) + 0.5)
        return float(np.dot(self.masses, centers) / self.total_mass)


@dataclass(frozen=True)
class BalanceQuery:
    """A self-sufficiency question: storage window seen from level ``s_prev``.

    The step stays in the window iff the balance lands in
    ``(lo, hi] = (s_min - s_prev, s_max - s_prev]``.
    """

    s_prev: float
    storage: StorageSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_prev", self.storage.check_level(self.s_prev))

    @property
    def lo(self) -> float:
        return self.storage.s_min - self.s_prev

    @property
    def hi(self) -> float:
        return self.storage.s_max - self.s_prev


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


def discretize(
    spec: Distribution,
    cells: int = DEFAULT_CELLS,
    coverage: float = DEFAULT_COVERAGE,
) -> DensityGrid:
    """Project a distribution onto a uniform mass grid.

    Continuous families are gridded over their central ``coverage``
    quantile window with per-cell mass ``cdf(right) - cdf(left)`` exactly.
    ``Deterministic`` becomes an atom; ``Empirical`` becomes a normalized
    histogram over its sample range (no truncation).
    """
    cells = int(cells)
    if cells < 2:
        raise ValueError(f"cell count must be >= 2, got {cells}")
    coverage = float(coverage)
    if not 0.5 < coverage < 1.0:
        raise ValueError(f"coverage must lie in (0.5, 1), got {coverage!r}")

    if isinstance(spec, Deterministic):
        return DensityGrid(origin=spec.value, step=1.0, masses=np.ones(1))

    if isinstance(spec, Empirical):
        values = np.asarray(spec.samples, dtype=float)
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            return DensityGrid(origin=lo, step=1.0, masses=np.ones(1))
        counts, _ = np.histogram(values, bins=cells, range=(lo, hi))
        return DensityGrid(origin=lo, step=(hi - lo) / cells, masses=counts / values.size)

    tail = (1.0 - coverage) / 2.0
    lo, hi = spec.quantile(tail), spec.quantile(1.0 - tail)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(
            f"cannot grid {type(spec).__name__}: degenerate quantile window [{lo}, {hi}]"
        )
    step = (hi - lo) / cells
    grid_edges = lo + step * np.arange(cells + 1)
    return DensityGrid(origin=lo, step=step, masses=np.diff(spec.cdf(grid_edges)))


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
    new_edges = grid.origin + step * np.arange(_resampled_cells(grid, step) + 1)
    new_cum = np.interp(new_edges, grid.edges, grid._cum)
    return DensityGrid(origin=grid.origin, step=step, masses=np.diff(new_cum))


def _resampled_cells(grid: DensityGrid, step: float) -> int:
    """Cell count of ``resample(grid, step)``."""
    if grid.is_atom or step == grid.step:
        return grid.n_cells
    # At least two cells so the result is never mistaken for an atom.
    return max(2, int(math.ceil(grid.width / step - 1e-12)))


def difference_density(gen: DensityGrid, dem: DensityGrid) -> DensityGrid:
    """Distribution grid of the balance ``B = G - D`` (independent inputs).

    Unequal grid spacings are reconciled by refining the coarser grid to
    the finer one first; :class:`CellBudgetError` is raised, before any
    refinement, when the result would have more than ``MAX_BALANCE_CELLS``
    cells.  For two cell-mass grids the exact difference density of the
    piecewise-uniform model is the cross-correlation of the masses with
    each product triangle split evenly between the two cells it straddles;
    the correlation is computed by FFT, which agrees with the direct sum to
    rounding (about 1e-17 per cell).  The result has ``n_gen + n_dem``
    cells, origin ``gen.origin - (dem.origin + dem.width)``, and total mass
    equal to the product of the input masses.  Atoms shift (and for the
    demand side, flip) the other grid exactly.
    """
    if gen.is_atom and dem.is_atom:
        return DensityGrid(
            origin=gen.origin - dem.origin,
            step=1.0,
            masses=np.array([gen.total_mass * dem.total_mass]),
        )
    if gen.is_atom:
        return DensityGrid(
            origin=gen.origin - (dem.origin + dem.width),
            step=dem.step,
            masses=gen.total_mass * dem.masses[::-1],
        )
    if dem.is_atom:
        return DensityGrid(
            origin=gen.origin - dem.origin,
            step=gen.step,
            masses=dem.total_mass * gen.masses,
        )

    h = min(gen.step, dem.step)
    n_cells = _resampled_cells(gen, h) + _resampled_cells(dem, h)
    if n_cells > MAX_BALANCE_CELLS:
        raise CellBudgetError(
            f"the balance grid needs {n_cells} cells at the finer input step {h:.3g}, "
            f"over the budget of {MAX_BALANCE_CELLS}; one input is much narrower "
            f"than the other"
        )
    gen, dem = resample(gen, h), resample(dem, h)
    # Correlate the masses by FFT: zero-padding both to a power of two no
    # shorter than the full correlation makes the circular product linear.
    n_corr = n_cells - 1
    size = 1 << (n_corr - 1).bit_length()
    spectrum = np.fft.rfft(gen.masses, size) * np.fft.rfft(dem.masses[::-1], size)
    corr = np.fft.irfft(spectrum, size)[:n_corr]
    # Each (i, j) product mass is a width-2h triangle centered on a cell
    # edge of the output grid: half goes to the cell on each side.
    masses = 0.5 * (np.append(corr, 0.0) + np.insert(corr, 0, 0.0))
    return DensityGrid(
        origin=gen.origin - (dem.origin + dem.width),
        step=h,
        masses=masses,
    )


def interval_probability(b: DensityGrid, lo: float, hi: float) -> float:
    """Grid measure of ``(lo, hi]``; ``lo``/``hi`` may be ``±inf``."""
    lo, hi = float(lo), float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval bounds must not be NaN")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    p = b.cdf(hi) - b.cdf(lo)
    return min(max(p, 0.0), 1.0)


def self_sufficiency(
    b: DensityGrid,
    q: BalanceQuery,
    mass_budget: float = MASS_TRUNCATION_BUDGET,
) -> ProbabilityTriple:
    """Deficit / overflow / self-sufficiency probabilities of a balance grid.

    ``p_deficit = Pr[B <= lo]``, ``p_overflow = Pr[B > hi]``, and
    ``p_self`` is the grid mass of ``(lo, hi]``, so the triple sums to the
    grid's total mass exactly; any truncated tail mass is accounted
    against ``p_self``'s error budget.  Raises
    :class:`TruncationBudgetError` when the grid truncated more than
    ``mass_budget`` of its distribution.
    """
    if b.truncated_mass > mass_budget:
        raise TruncationBudgetError(
            f"grid truncated {b.truncated_mass:.3e} of its mass, "
            f"exceeding the evaluation budget {mass_budget:.3e}"
        )
    p_deficit = b.cdf(q.lo)
    p_self = interval_probability(b, q.lo, q.hi)
    p_overflow = max(0.0, b.total_mass - b.cdf(q.hi))
    return ProbabilityTriple(p_deficit=p_deficit, p_overflow=p_overflow, p_self=p_self)


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
    p_deficit = 1.0 if x_a <= 0.0 else math.exp(-((x_a / dem.scale) ** dem.shape))
    p_overflow = 0.0 if x_b <= 0.0 else -math.expm1(-((x_b / dem.scale) ** dem.shape))
    return ProbabilityTriple(
        p_deficit=p_deficit,
        p_overflow=p_overflow,
        p_self=1.0 - p_deficit - p_overflow,
    )
