"""Grid arithmetic and closed forms, cross-checked against scipy oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import stochstore.balance as balance
from stochstore import (
    CellBudgetError,
    DensityGrid,
    Deterministic,
    Empirical,
    LogNormal,
    StorageSpec,
    TruncationBudgetError,
    Weibull,
    difference_density,
    discretize,
    lognormal_from_moments,
    parse_scenario,
    point_mass_balance,
    self_sufficiency,
    weibull_closed_form,
)
from stochstore.balance import resample

from conftest import grid_from_masses, read_fixture_text

SPEC_0_5 = StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)
FIG2_DEM = Weibull(scale=2.0, shape=5.0)

E_MINUS_1 = 0.36787944117144233
P_B_AT_4 = 0.03076676552365592  # 1 - exp(-(1/2)**5)
P_B_AT_5 = 0.6321205588285577  # 1 - exp(-1)
LOGNORMAL_0_1_MEAN = 1.6487212707001282


def _grid_mean(grid):
    """Mean of the normalized grid measure, each cell's mass at its center."""
    edges = grid.edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.dot(grid.masses, centers) / grid.total_mass)


def _direct_masses(gen, dem):
    """Balance masses from the direct ``np.convolve`` correlation: the reference."""
    h = min(gen.step, dem.step)
    corr = np.convolve(resample(gen, h).masses, resample(dem, h).masses[::-1])
    return 0.5 * (np.append(corr, 0.0) + np.insert(corr, 0, 0.0))


def _direct_balance(gen, dem):
    """The balance of ``gen`` and ``dem`` as a grid of the reference masses."""
    b = difference_density(gen, dem)
    return grid_from_masses(b.origin, b.step, _direct_masses(gen, dem))


# --- DensityGrid -------------------------------------------------------------


def test_grid_cdf_is_piecewise_linear():
    grid = grid_from_masses(0.0, 0.5, [0.5, 0.5])
    assert grid.cdf(-1.0) == 0.0
    assert grid.cdf(0.25) == pytest.approx(0.25, abs=1e-15)
    assert grid.cdf(0.5) == pytest.approx(0.5, abs=1e-15)
    assert grid.cdf(0.9) == pytest.approx(0.9, abs=1e-15)
    assert grid.cdf(2.0) == 1.0
    assert grid.cdf(math.inf) == 1.0
    assert grid.cdf(-math.inf) == 0.0
    with pytest.raises(ValueError):
        grid.cdf(math.nan)


def test_atom_grid_semantics():
    # A point mass is read exactly, not gridded, and a one-cell grid is a
    # uniform cell.
    atom = point_mass_balance(Deterministic(2.0), Deterministic(0.0))
    assert atom.cdf(1.9999) == 0.0
    assert atom.cdf(2.0) == 1.0  # closed on the right
    assert (atom.total_mass, atom.truncated_mass) == (1.0, 0.0)
    cell = grid_from_masses(2.0, 1.0, [1.0])
    assert (cell.width, cell.cdf(2.0), cell.cdf(2.25), cell.cdf(3.0)) == (1.0, 0.0, 0.25, 1.0)
    assert _grid_mean(cell) == 2.5


def test_grid_masses_are_read_only():
    grid = grid_from_masses(0.0, 1.0, [0.4, 0.6])
    with pytest.raises(ValueError):
        grid.masses[0] = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(origin=0.0, step=0.0, cum=[0.0, 1.0]),
        dict(origin=0.0, step=-1.0, cum=[0.0, 1.0]),
        dict(origin=math.nan, step=1.0, cum=[0.0, 1.0]),
        dict(origin=0.0, step=1.0, cum=[0.0]),
        dict(origin=0.0, step=1.0, cum=[0.0, 0.5, 0.3]),
        dict(origin=0.0, step=1.0, cum=[0.0, 0.8, 1.6]),
        dict(origin=0.0, step=1.0, cum=[0.0, math.nan]),
        dict(origin=0.0, step=1.0, cum=[0.0, math.inf, 1.0]),
        dict(origin=0.0, step=1.0, cum=[0.0, 0.5, math.inf]),
        dict(origin=0.0, step=1.0, cum=[0.0, -math.inf, 0.5]),
        dict(origin=0.0, step=1.0, cum=[0.0, math.nan, 1.0]),
        dict(origin=0.0, step=1.0, cum=[0.0, 0.5, 0.2]),
        dict(origin=0.0, step=1.0, cum=[0.0, 0.5, 1.5]),
        dict(origin=0.0, step=1.0, cum=[[0.0, 1.0]]),
        dict(origin=0.0, step=1.0, cum=[0.5, 1.0]),
        dict(origin=0.0, step=1.0, cum=[math.nan, 1.0]),
    ],
)
def test_grid_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        DensityGrid(**kwargs)


def test_cumulative_rounding_dust_reads_as_zero_mass():
    grid = DensityGrid(0.0, 1.0, [0.0, 0.5, 0.5 - 1e-13, 1.0])
    assert grid.masses.tolist() == [0.5, 0.0, 1.0 - (0.5 - 1e-13)]
    assert grid.total_mass == 1.0


# --- discretize --------------------------------------------------------------


def test_discretize_refuses_a_point_mass():
    with pytest.raises(TypeError, match="point_mass_balance"):
        discretize(Deterministic(2.0), cells=4096)


def test_discretize_weibull_coverage():
    grid = discretize(FIG2_DEM, cells=4096)
    assert grid.total_mass >= 1.0 - 1e-8
    assert grid.total_mass <= 1.0
    assert grid.n_cells == 4096


def test_discretize_mass_per_cell_is_exact_cdf_difference():
    grid = discretize(FIG2_DEM, cells=64)
    edges = grid.edges
    for i in (0, 10, 31, 63):
        assert grid.masses[i] == pytest.approx(
            FIG2_DEM.cdf(edges[i + 1]) - FIG2_DEM.cdf(edges[i]), abs=1e-15
        )


def test_discretize_lognormal_grid_mean():
    grid = discretize(LogNormal(mu=0.0, sigma=1.0), cells=4096)
    assert _grid_mean(grid) == pytest.approx(LOGNORMAL_0_1_MEAN, abs=1e-3)


def _assert_empirical_point_masses(samples, points, masses):
    # An Empirical is not gridded: its point masses are its distinct values
    # with counts / size as masses, on either side of the balance.
    with pytest.raises(TypeError, match="point_mass_balance"):
        discretize(Empirical(samples), cells=16)
    for b in (point_mass_balance(Empirical(samples), FIG2_DEM),
              point_mass_balance(FIG2_DEM, Empirical(samples))):
        assert (b.points.tolist(), b.masses.tolist()) == (points, masses)
        assert (b.total_mass, b.truncated_mass) == (1.0, 0.0)
        assert (b.cdf(-math.inf), b.cdf(math.inf)) == (0.0, 1.0)


def test_discretize_empirical_histogram_keeps_all_mass():
    _assert_empirical_point_masses(
        (4.0, 1.0, 0.5, 1.0, 2.5), [0.5, 1.0, 2.5, 4.0], [0.2, 0.4, 0.2, 0.2]
    )


def test_discretize_degenerate_empirical_is_an_atom():
    # A degenerate sample set is one point of mass 1.
    _assert_empirical_point_masses((1.5, 1.5, 1.5), [1.5], [1.0])


@pytest.mark.parametrize(
    "samples, cells",
    [((1.0, 1.0000000000001), 4096), ((1.0, 1.000000000001), 65536), ((0.0, 5e-324), 2)],
)
def test_discretize_refuses_an_empirical_range_without_float_cells(samples, cells):
    # No Empirical is gridded, however narrow its range: its values are read
    # exactly, as two point masses.
    with pytest.raises(TypeError, match="point_mass_balance"):
        discretize(Empirical(samples=samples), cells=cells)
    b = point_mass_balance(Deterministic(2.0), Empirical(samples=samples))
    assert b.points.tolist() == list(samples)
    t = self_sufficiency(b, 0.0, SPEC_0_5)
    assert (t.p_deficit, t.p_overflow, t.p_self) == (0.0, 0.0, 1.0)


def _interp_points(grid):
    """Every edge, one ulp either side of it, the cell midpoints, and points outside."""
    edges = grid.edges
    outside = [-math.inf, edges[0] - 1.0, -0.0, 0.0, edges[-1] + 1.0, math.inf]
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -math.inf),
            np.nextafter(edges, math.inf),
            0.5 * (edges[:-1] + edges[1:]),
            outside,
        ]
    )


def _fig2_balance():
    """fig2's demand grid flipped and shifted by the deterministic generation 2."""
    dem = discretize(FIG2_DEM, 4096)
    return grid_from_masses(2.0 - (dem.origin + dem.width), dem.step, dem.masses[::-1])


def _resampled_lognormal():
    grid = discretize(LogNormal(0.0, 1.0), 512)
    return resample(grid, 0.3 * grid.step)


@pytest.mark.parametrize(
    "make_grid",
    [
        lambda: grid_from_masses(0.5, 0.75, [0.3, 0.6]),
        _fig2_balance,
        _resampled_lognormal,
        # Cells far below an ulp of the origin: runs of edges round together.
        lambda: grid_from_masses(1e6, 1e-11, np.full(64, 1 / 64)),
    ],
    ids=["two_cells", "fig2_atom_shifted_4096", "resampled", "edges_that_round_together"],
)
def test_grid_cdf_is_np_interp_bit_for_bit(make_grid):
    grid = make_grid()
    edges, cum = grid.edges, grid.cum
    xs = _interp_points(grid).tolist()
    got = np.array([grid.cdf(x) for x in xs])
    expected = np.array([np.interp(x, edges, cum) for x in xs])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize(FIG2_DEM, cells=1)


# --- resample ----------------------------------------------------------------


def test_resample_conserves_mass_and_location():
    grid = discretize(FIG2_DEM, cells=512)
    finer = resample(grid, grid.step / 3.0)
    assert finer.total_mass == pytest.approx(grid.total_mass, abs=1e-12)
    assert _grid_mean(finer) == pytest.approx(_grid_mean(grid), abs=grid.step)
    for x in (0.5, 1.0, 2.0, 3.0):
        assert finer.cdf(x) == pytest.approx(grid.cdf(x), abs=1e-12)


def test_resample_at_the_same_step_is_identity():
    grid = discretize(FIG2_DEM, cells=128)
    assert resample(grid, grid.step) is grid


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


# --- the stored measure: cumulative masses at the edges ----------------------


@pytest.mark.parametrize("spec", [FIG2_DEM, LogNormal(0.2, 0.5), LogNormal(-1.3, 0.15)])
@pytest.mark.parametrize("cells", [2, 700, 4096])
def test_discretize_keeps_the_cdf_above_the_first_edge(spec, cells):
    grid = discretize(spec, cells)
    expected = spec.cdf(grid.edges) - spec.cdf(grid.edges[0])
    np.testing.assert_array_equal(_bits(grid.cum), _bits(expected))
    np.testing.assert_array_equal(grid.masses, np.maximum(np.diff(grid.cum), 0.0))


def test_resample_keeps_the_interpolated_cumulative_masses():
    grid = discretize(LogNormal(0.0, 1.0), 512)
    for step in (0.3 * grid.step, grid.step / 7.0, 2.5 * grid.step):
        finer = resample(grid, step)
        new_edges = grid.origin + step * np.arange(finer.n_cells + 1)
        expected = np.interp(new_edges, grid.edges, grid.cum)
        np.testing.assert_array_equal(_bits(finer.cum), _bits(expected))


def test_a_refined_balance_query_holds_two_refined_arrays():
    # CI's near-budget analyze, scaled down: refined to the log-normal
    # demand's step, the Weibull generation spans about 2.3e5 cells.  The
    # refinement holds its edges and then their cumulative masses, and the
    # query's dot products the generation masses next to those: two arrays
    # of the refined size (2.05 measured).  Refined masses summed into a
    # second cumulative array, or copied, made four.
    gen, dem = discretize(Weibull(2.0, 5.0)), discretize(lognormal_from_moments(1.0, 3e-5))
    refined_bytes = 8 * balance._resampled_cells(gen, dem.step)
    assert refined_bytes > 1_000_000
    tracemalloc.start()
    try:
        triple = self_sufficiency(difference_density(gen, dem), 2.0, SPEC_0_5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert triple.p_self > 0.0
    assert peak < 2.5 * refined_bytes


def test_gridding_a_lognormal_peaks_under_seven_grid_arrays():
    # The edges are a float arange scaled in place, the cdf's log is taken
    # in place in its clipped copy of them, and the normal cdf's one scaled
    # copy becomes |x| and then _erfc's working array: 6.5 grid-size arrays
    # measured.  An int arange for the edges, and separate arrays for x,
    # |x| and a clamped copy of it, read 8.4.
    spec, cells = lognormal_from_moments(1.0, 0.5), 65536
    grid_bytes = 8 * (cells + 1)
    tracemalloc.start()
    try:
        grid = discretize(spec, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.n_cells == cells
    assert peak < 7 * grid_bytes


# The triples the grid route gave before its grids were stored as cumulative
# masses.  Day24's cell masses are now differences of
# ``cdf(edges) - cdf(edges[0])`` instead of ``cdf(edges)``, which moved its
# triples by at most 1.6e-15.
DAY24_TRIPLES = {
    (4096, 1, 0.0): (0.37166410876127887, 0.0003155055419111763, 0.62802036569681),
    (4096, 1, 5.0): (0.002886493508066417, 0.005800430399460321, 0.9913130560924732),
    (4096, 1, 10.0): (0.00020114814976042634, 0.6283358712387211, 0.37146296061151846),
    (4096, 7, 0.0): (0.5199100194868259, 0.0002731887510745157, 0.47981677176209947),
    (4096, 7, 5.0): (0.0033403722413500644, 0.004741129735871041, 0.9919184780227788),
    (4096, 7, 10.0): (0.0001306057600726047, 0.480089960513174, 0.5197794137267533),
    (4096, 12, 0.0): (0.624666286334193, 0.000242523360274971, 0.37509117030553185),
    (4096, 12, 5.0): (0.004061849170482094, 0.004015583164650671, 0.991922547664867),
    (4096, 12, 10.0): (0.00010335328654794405, 0.3753336936658068, 0.624562933047645),
    (4096, 18, 0.0): (0.7243766375426796, 0.00021054273983711624, 0.2754127997174832),
    (4096, 18, 5.0): (0.005530673401854303, 0.0032998345476835667, 0.991169472050462),
    (4096, 18, 10.0): (9.017552458055798e-05, 0.27562334245732034, 0.724286462018099),
    (4096, 24, 0.0): (0.7986163606410653, 0.00018310613571137502, 0.20120051322322297),
    (4096, 24, 5.0): (0.007975640024430313, 0.002721456941682132, 0.9893028830338872),
    (4096, 24, 10.0): (9.008277725746553e-05, 0.20138361935893434, 0.7985262778638079),
    (16384, 1, 0.0): (0.3716405487952189, 0.00031550098939781, 0.6280439302153827),
    (16384, 1, 5.0): (0.002886394027344229, 0.005800258514580547, 0.9913133274580747),
    (16384, 1, 10.0): (0.00020114530055861027, 0.6283594312047805, 0.3714394034946603),
    (16384, 7, 0.0): (0.5199135340913746, 0.0002731859512002943, 0.4798132599574254),
    (16384, 7, 5.0): (0.0033402718345259246, 0.0047410435628088, 0.9919186646026656),
    (16384, 7, 10.0): (0.00013060415081583474, 0.4800864459086257, 0.5197829299405589),
    (16384, 12, 0.0): (0.6246749078188024, 0.0002425212661963938, 0.37508255091500087),
    (16384, 12, 5.0): (0.0040617347283499385, 0.004015510861190008, 0.9919227344104597),
    (16384, 12, 10.0): (0.000103351788579955, 0.37532507218119726, 0.6245715560302224),
    (16384, 18, 0.0): (0.7243847185973742, 0.00021054131945219545, 0.2754047200831752),
    (16384, 18, 5.0): (0.005530539229623322, 0.003299786477592548, 0.9911696542927857),
    (16384, 18, 10.0): (9.017433916564457e-05, 0.2756152614026274, 0.7242945442582085),
    (16384, 24, 0.0): (0.7986225380137405, 0.00018310500135765295, 0.20119433698490174),
    (16384, 24, 5.0): (0.007975410834001398, 0.002721427261543785, 0.9893031419044547),
    (16384, 24, 10.0): (9.008141738989579e-05, 0.2013774419862594, 0.7985324565963506),
}


def _triple(t):
    return t.p_deficit, t.p_overflow, t.p_self


def _fixture_triple(name, cells, step, s_prev):
    scenario = parse_scenario(read_fixture_text(name))
    spec = scenario.steps[step - 1]
    b = difference_density(discretize(spec.generation, cells), discretize(spec.demand, cells))
    return _triple(self_sufficiency(b, s_prev, scenario.storage))


def test_fig2_triples_equal_the_closed_form_within_1e_15(fig2_scenario):
    spec, storage = fig2_scenario.steps[0], fig2_scenario.storage
    b = point_mass_balance(spec.generation, spec.demand)
    for s_prev in np.linspace(storage.s_min, storage.s_max, 51).tolist():
        closed = weibull_closed_form(spec.generation.value, s_prev, storage, spec.demand)
        np.testing.assert_allclose(
            _triple(self_sufficiency(b, s_prev, storage)), _triple(closed), rtol=0.0, atol=1e-15
        )


def test_day24_triples_stay_within_1e_14():
    for (cells, step, s_prev), expected in DAY24_TRIPLES.items():
        got = _fixture_triple("day24_lognormal", cells, step, s_prev)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


# An Empirical generation: 300 values in [0, 6), denser near 0.
EMPIRICAL_GEN = Empirical(tuple(6.0 * ((k * 0.618034) % 1.0) ** 2 for k in range(1, 301)))
LOGNORMAL_DEM = lognormal_from_moments(1.0, 0.5)
# scipy's distribution for each continuous family used against point masses.
SCIPY = {
    FIG2_DEM: scipy.stats.weibull_min(c=5.0, scale=2.0),
    LOGNORMAL_DEM: scipy.stats.lognorm(s=LOGNORMAL_DEM.sigma, scale=math.exp(LOGNORMAL_DEM.mu)),
}


def test_empirical_triples_stay_within_1e_14():
    # Pr[B <= x] is the mean over the samples g of scipy's Pr[D >= g - x].
    g = np.array(EMPIRICAL_GEN.samples)
    for dem, oracle in SCIPY.items():
        b = point_mass_balance(EMPIRICAL_GEN, dem)
        for s_prev in (0.0, 2.5, 5.0):
            lo, hi = (float(np.mean(oracle.sf(g - x))) for x in (-s_prev, 5.0 - s_prev))
            np.testing.assert_allclose(
                _triple(self_sufficiency(b, s_prev, SPEC_0_5)), (lo, 1.0 - hi, hi - lo),
                rtol=0.0, atol=1e-14,
            )


@pytest.mark.parametrize("continuous", list(SCIPY), ids=["weibull", "lognormal"])
@pytest.mark.parametrize(
    "points, values",
    [(Deterministic(2.0), [2.0]), (EMPIRICAL_GEN, EMPIRICAL_GEN.samples)],
    ids=["deterministic", "empirical"],
)
def test_a_point_mass_side_against_a_continuous_one_matches_scipy(points, values, continuous):
    oracle, values = SCIPY[continuous], np.array(values)
    as_gen = point_mass_balance(points, continuous)
    as_dem = point_mass_balance(continuous, points)
    for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0):
        # Pr[g - D <= x] = Pr[D >= g - x]; Pr[G - d <= x] = Pr[G <= x + d].
        assert as_gen.cdf(x) == pytest.approx(np.mean(oracle.sf(values - x)), abs=1e-14)
        assert as_dem.cdf(x) == pytest.approx(np.mean(oracle.cdf(x + values)), abs=1e-14)


def test_empirical_against_empirical_is_the_sum_over_all_pairs():
    # Every g - d is exact in floats, and some land on a window edge: 1 - 1
    # on lo = 0 from s_prev = 0, 6 - 1 on hi = 5, 0 - 1 on lo = -1 from 1.
    gen, dem = Empirical((0.0, 1.0, 1.0, 2.5, 4.0, 6.0)), Empirical((0.5, 1.0, 1.0, 3.0))
    b = point_mass_balance(gen, dem)
    diffs = np.subtract.outer(gen.samples, dem.samples).ravel()
    for s_prev in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        lo, hi = -s_prev, 5.0 - s_prev
        expected = (np.mean(diffs <= lo), np.mean(diffs > hi), np.mean((diffs > lo) & (diffs <= hi)))
        np.testing.assert_allclose(
            _triple(self_sufficiency(b, s_prev, SPEC_0_5)), expected, rtol=0.0, atol=1e-15
        )


# --- difference_density ------------------------------------------------------


def test_difference_of_two_atoms():
    b = point_mass_balance(Deterministic(2.0), Deterministic(0.5))
    assert (b.cdf(np.nextafter(1.5, 0.0)), b.cdf(1.5)) == (0.0, 1.0)
    assert b.total_mass == 1.0


def test_difference_of_iid_grids_is_symmetric():
    g = discretize(LogNormal(mu=0.0, sigma=1.0), cells=4096)
    b = difference_density(g, g)
    assert b.cdf(0.0) == pytest.approx(0.5, abs=1e-3)
    assert _grid_mean(_direct_balance(g, g)) == pytest.approx(0.0, abs=1e-9)


def test_difference_deterministic_minus_weibull_checkpoint():
    b = point_mass_balance(Deterministic(2.0), FIG2_DEM)
    # Pr[B <= 0] = Pr[D >= 2] = exp(-1)
    assert b.cdf(0.0) == pytest.approx(E_MINUS_1, abs=1e-15)


def test_difference_grid_geometry_and_mass():
    gen = discretize(LogNormal(mu=0.2, sigma=0.5), cells=256)
    dem = discretize(FIG2_DEM, cells=256)
    b = difference_density(gen, dem)
    assert b.step == pytest.approx(min(gen.step, dem.step))
    assert b.total_mass == pytest.approx(gen.total_mass * dem.total_mass, abs=1e-12)
    # Difference of means is preserved well inside the 2*step bound.
    balance_mean = _grid_mean(_direct_balance(gen, dem))
    assert abs(balance_mean - (_grid_mean(gen) - _grid_mean(dem))) <= 2.0 * b.step


def _two_cells(origin, step, masses):
    return grid_from_masses(origin, step, masses)


def _atom(origin, mass=0.7):
    """One cell 1e-3 wide: nearly a point mass, which the grid resolves by refinement."""
    return grid_from_masses(origin, 1e-3, [mass])


# The cdf's dot products round differently from the running sum of the
# direct correlation: measured <= 1.5e-14 off on the fixtures at 16384
# cells, where the largest product of two cell masses is 2e-6 or more.
CUM_TOL = 1e-13


@pytest.mark.parametrize(
    "make_grids",
    [
        pytest.param(
            lambda: (_two_cells(0.0, 0.5, [0.3, 0.7]), _two_cells(1.0, 0.5, [0.6, 0.4])),
            id="2-cells-same-step",
        ),
        pytest.param(
            lambda: (_two_cells(0.0, 0.5, [0.3, 0.7]), _two_cells(1.0, 0.2, [0.6, 0.4])),
            id="2-cells-refined",
        ),
        pytest.param(
            lambda: (discretize(LogNormal(0.2, 0.5), 1000), discretize(FIG2_DEM, 700)),
            id="1000-700",
        ),
        pytest.param(
            lambda: (discretize(LogNormal(0.2, 0.5), 700), discretize(FIG2_DEM, 1000)),
            id="700-1000",
        ),
        pytest.param(
            # Refined to 901 + 901 cells: 1801 correlation terms.
            lambda: (discretize(FIG2_DEM, 900), discretize(FIG2_DEM, 901)),
            id="900-901-fft-1875",
        ),
        pytest.param(
            lambda: (_atom(2.0), _two_cells(1.0, 0.2, [0.6, 0.4])),
            id="atom-cells",
        ),
        pytest.param(
            lambda: (discretize(LogNormal(0.2, 0.5), 700), _atom(0.5)),
            id="cells-atom",
        ),
        pytest.param(lambda: (_atom(2.0), _atom(0.5)), id="atom-atom"),
    ],
)
def test_difference_masses_match_the_direct_correlation(make_grids):
    gen, dem = make_grids()
    b, direct = difference_density(gen, dem), _direct_masses(gen, dem)
    cdf_at_edges = [b.cdf(x) for x in b.edges]
    cum = np.concatenate(([0.0], np.cumsum(direct)))
    np.testing.assert_allclose(cdf_at_edges, cum, rtol=0.0, atol=CUM_TOL)


FIXTURE_STEPS = [
    pytest.param(scenario.storage, step_spec, id=f"{scenario.name}-step{t}")
    for scenario in map(parse_scenario, map(read_fixture_text, ("fig2_battery", "day24_lognormal")))
    for t, step_spec in enumerate(scenario.steps, start=1)
]


@pytest.mark.parametrize("storage, step_spec", FIXTURE_STEPS)
def test_fixture_balances_match_the_direct_correlation(storage, step_spec):
    exact = point_mass_balance(step_spec.generation, step_spec.demand)
    if exact is not None:
        # fig2's generation is a point mass g, whose correlation with the
        # demand is a shift: Pr[B <= x] = Pr[D >= g - x], from scipy here.
        g, oracle = step_spec.generation.value, SCIPY[step_spec.demand]
        for x in storage.s_min - np.linspace(storage.s_min, storage.s_max, 11):
            for bound in (x, x + storage.s_max - storage.s_min):
                assert exact.cdf(bound) == pytest.approx(oracle.sf(g - bound), abs=1e-15)
        return
    for cells in (4096, 16384):
        gen, dem = discretize(step_spec.generation, cells), discretize(step_spec.demand, cells)
        b, direct = difference_density(gen, dem), _direct_balance(gen, dem)
        # The triples the CLI writes, read from the inputs; measured <= 1.8e-14 off.
        levels = np.linspace(storage.s_min, storage.s_max, 11)
        for s_prev in levels:
            got = self_sufficiency(b, float(s_prev), storage)
            ref = self_sufficiency(direct, float(s_prev), storage)
            assert got.p_deficit == pytest.approx(ref.p_deficit, abs=1e-12)
            assert got.p_overflow == pytest.approx(ref.p_overflow, abs=1e-12)
            assert got.p_self == pytest.approx(ref.p_self, abs=1e-12)
        # The cdf at 301 evenly spaced edges and at every window bound.
        k = np.linspace(0, b.n_cells, 301).round().astype(int)
        cdf_at_edges = [b.cdf(x) for x in b.edges[k]]
        np.testing.assert_allclose(cdf_at_edges, direct.cum[k], rtol=0.0, atol=CUM_TOL)
        bounds = np.concatenate([storage.s_min - levels, storage.s_max - levels])
        cdf_at_bounds = [b.cdf(x) for x in bounds]
        np.testing.assert_allclose(
            cdf_at_bounds, [direct.cdf(x) for x in bounds], rtol=0.0, atol=CUM_TOL
        )


def test_window_query_on_two_cell_grids_runs_no_fft(monkeypatch):
    gen, dem = discretize(LogNormal(0.2, 0.5), 1000), discretize(FIG2_DEM, 700)

    def no_fft(*args, **kwargs):
        raise AssertionError("a window query called the FFT")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    monkeypatch.setattr(np.fft, "irfft", no_fft)
    triple = self_sufficiency(difference_density(gen, dem), 1.0, SPEC_0_5)
    assert triple.p_self > 0.0


def test_cell_budget_bounds_the_refined_balance_grid(monkeypatch):
    # Refining gen to dem's step gives 1.0 / 0.125 = 8 cells, so 10 in all.
    gen = _two_cells(0.0, 0.5, [0.3, 0.7])
    dem = _two_cells(1.0, 0.125, [0.6, 0.4])
    monkeypatch.setattr(balance, "MAX_BALANCE_CELLS", 10)
    assert difference_density(gen, dem).n_cells == 10
    monkeypatch.setattr(balance, "MAX_BALANCE_CELLS", 9)
    with pytest.raises(CellBudgetError, match="10 cells"):
        difference_density(gen, dem)


def test_difference_cdf_matches_quadrature_oracle():
    # Independent route: Pr[G - D <= x] = int f_D(y) F_G(x + y) dy.
    gen = LogNormal(mu=0.1, sigma=0.6)
    dem = FIG2_DEM
    b = difference_density(discretize(gen, 4096), discretize(dem, 4096))
    ref_gen = scipy.stats.lognorm(s=0.6, scale=math.exp(0.1))
    ref_dem = scipy.stats.weibull_min(c=5.0, scale=2.0)
    for x in (-2.0, -0.5, 0.0, 0.75, 2.5):
        target, err = scipy.integrate.quad(
            lambda y: ref_dem.pdf(y) * ref_gen.cdf(x + y), 0.0, 8.0
        )
        assert err < 1e-8
        assert b.cdf(x) == pytest.approx(target, abs=2e-4)


def test_difference_with_atom_sides_is_an_exact_shift():
    b = point_mass_balance(Deterministic(2.0), FIG2_DEM)
    for x in (-1.0, 0.0, 0.5):
        # Pr[2 - D <= x] = Pr[D >= 2 - x] = 1 - F_D(2 - x) for a continuous D
        assert b.cdf(x) == 1.0 - FIG2_DEM.cdf(2.0 - x)

    gen = LogNormal(0.0, 0.4)
    b2 = point_mass_balance(gen, Deterministic(0.75))
    for x in (-0.5, 0.0, 1.0):
        assert b2.cdf(x) == gen.cdf(x + 0.75)


# --- window queries: cdf differences -----------------------------------------


def test_interval_probability_edges_and_additivity():
    b = difference_density(
        discretize(LogNormal(0.0, 1.0), 1024), discretize(FIG2_DEM, 1024)
    )
    assert b.cdf(0.3) - b.cdf(0.3) == 0.0
    assert b.cdf(math.inf) - b.cdf(-math.inf) == b.total_mass
    # Past either end of the grid the cdf is exactly 0 and the total mass.
    first, last = b.edges[0], b.edges[-1]
    assert b.cdf(first) == b.cdf(np.nextafter(first, -math.inf)) == 0.0
    assert b.cdf(last) == b.cdf(np.nextafter(last, math.inf)) == b.total_mass
    left = b.cdf(0.2) - b.cdf(-1.0)
    right = b.cdf(1.4) - b.cdf(0.2)
    assert left + right == pytest.approx(b.cdf(1.4) - b.cdf(-1.0), abs=1e-12)


def test_interval_probability_symmetric_half():
    g = discretize(LogNormal(mu=0.3, sigma=0.7), cells=2048)
    b = difference_density(g, g)
    assert b.cdf(0.0) - b.cdf(-math.inf) == pytest.approx(0.5, abs=1e-3)


def test_interval_probability_stable_under_refinement():
    for dist_pair in ((Weibull(2.5, 3.0), FIG2_DEM), (LogNormal(0.0, 0.8), FIG2_DEM)):
        coarse = difference_density(*(discretize(d, 4096) for d in dist_pair))
        fine = difference_density(*(discretize(d, 8192) for d in dist_pair))
        for lo, hi in ((-1.0, 0.0), (0.0, 1.5), (-0.25, 2.0)):
            assert coarse.cdf(hi) - coarse.cdf(lo) == pytest.approx(
                fine.cdf(hi) - fine.cdf(lo), abs=1e-3
            )


# --- self_sufficiency --------------------------------------------------------


def test_self_sufficiency_triple_sums_to_total_mass():
    for b in (
        point_mass_balance(Deterministic(2.0), FIG2_DEM),
        difference_density(discretize(LogNormal(0.0, 0.8), 4096), discretize(FIG2_DEM, 4096)),
    ):
        for s_prev in (0.0, 1.5, 4.0, 5.0):
            t = self_sufficiency(b, s_prev, SPEC_0_5)
            assert abs((t.p_deficit + t.p_overflow + t.p_self) - b.total_mass) < 1e-9


def test_self_sufficiency_atom_examples():
    mid = self_sufficiency(point_mass_balance(Deterministic(1.0), Deterministic(1.0)), 2.5, SPEC_0_5)
    assert (mid.p_deficit, mid.p_overflow, mid.p_self) == (0.0, 0.0, 1.0)

    spec = StorageSpec(0.0, 5.0, 5.0)
    surplus = self_sufficiency(point_mass_balance(Deterministic(1.0), Deterministic(0.0)), 5.0, spec)
    assert (surplus.p_deficit, surplus.p_overflow, surplus.p_self) == (0.0, 1.0, 0.0)


def test_self_sufficiency_fig2_checkpoint():
    t = self_sufficiency(point_mass_balance(Deterministic(2.0), FIG2_DEM), 0.0, SPEC_0_5)
    assert t.p_deficit == pytest.approx(E_MINUS_1, abs=1e-15)
    assert t.p_overflow == 0.0


def test_self_sufficiency_rejects_over_budget_truncation():
    grid = discretize(FIG2_DEM, cells=256)
    assert self_sufficiency(grid, 0.0, SPEC_0_5).p_self <= grid.total_mass
    truncated = grid_from_masses(grid.origin, grid.step, 0.9 * grid.masses)
    with pytest.raises(TruncationBudgetError):
        self_sufficiency(truncated, 0.0, SPEC_0_5)


def test_self_sufficiency_checks_the_level_and_forms_the_window():
    def atom(x):
        # B = (x + 1) - 1, which is x exactly for each x below.
        assert (x + 1.0) - 1.0 == x
        return point_mass_balance(Deterministic(x + 1.0), Deterministic(1.0))

    for level in (-0.5, 5.5, math.nan):
        with pytest.raises(ValueError, match="outside the storage window"):
            self_sufficiency(atom(0.0), level, SPEC_0_5)
    # From s_prev = 1 the window is (lo, hi] = (-1, 4]: an atom on lo is a
    # deficit, one an ulp above lo or on hi stays in, and one an ulp past hi
    # overflows.
    cases = {
        -1.0: (1.0, 0.0, 0.0),
        np.nextafter(-1.0, 0.0): (0.0, 0.0, 1.0),
        4.0: (0.0, 0.0, 1.0),
        np.nextafter(4.0, 5.0): (0.0, 1.0, 0.0),
    }
    for x, expected in cases.items():
        t = self_sufficiency(atom(x), 1.0, SPEC_0_5)
        assert (t.p_deficit, t.p_overflow, t.p_self) == expected, x


# --- weibull_closed_form -----------------------------------------------------


def test_closed_form_checkpoints():
    t0 = weibull_closed_form(2.0, 0.0, SPEC_0_5, FIG2_DEM)
    assert t0.p_deficit == pytest.approx(E_MINUS_1, abs=1e-12)
    assert t0.p_overflow == 0.0

    t4 = weibull_closed_form(2.0, 4.0, SPEC_0_5, FIG2_DEM)
    assert t4.p_overflow == pytest.approx(P_B_AT_4, abs=1e-12)
    assert t4.p_deficit == pytest.approx(math.exp(-(3.0**5)), abs=1e-12)

    t5 = weibull_closed_form(2.0, 5.0, SPEC_0_5, FIG2_DEM)
    assert t5.p_overflow == pytest.approx(P_B_AT_5, abs=1e-12)


def test_closed_form_clamps():
    # No energy available: deficit is certain against continuous demand.
    t = weibull_closed_form(0.0, 0.0, SPEC_0_5, FIG2_DEM)
    assert t.p_deficit == 1.0
    assert t.p_overflow == 0.0
    assert t.p_self == 0.0
    # (x / scale) ** shape past the float range reads as inf, as in Weibull.cdf:
    # all the demand mass lies below x_B, so the step overflows.
    t = weibull_closed_form(1e300, 0.0, SPEC_0_5, Weibull(scale=1e154, shape=1e154))
    assert (t.p_deficit, t.p_overflow, t.p_self) == (0.0, 1.0, 0.0)


@given(
    g=st.floats(0.0, 12.0),
    s_prev=st.floats(0.0, 5.0),
    scale=st.floats(0.2, 8.0),
    shape=st.floats(0.4, 10.0),
)
def test_closed_form_is_a_valid_disjoint_triple(g, s_prev, scale, shape):
    t = weibull_closed_form(g, s_prev, SPEC_0_5, Weibull(scale=scale, shape=shape))
    for v in (t.p_deficit, t.p_overflow, t.p_self):
        assert 0.0 <= v <= 1.0
    assert t.p_deficit + t.p_overflow <= 1.0 + 1e-12
    assert t.p_self == pytest.approx(1.0 - t.p_deficit - t.p_overflow, abs=1e-12)


@given(
    s1=st.floats(0.0, 5.0),
    s2=st.floats(0.0, 5.0),
    g=st.floats(0.0, 8.0),
)
def test_closed_form_monotone_in_level(s1, s2, g):
    lo, hi = min(s1, s2), max(s1, s2)
    t_lo = weibull_closed_form(g, lo, SPEC_0_5, FIG2_DEM)
    t_hi = weibull_closed_form(g, hi, SPEC_0_5, FIG2_DEM)
    assert t_hi.p_deficit <= t_lo.p_deficit + 1e-15
    assert t_hi.p_overflow >= t_lo.p_overflow - 1e-15


def test_closed_form_validation():
    with pytest.raises(ValueError):
        weibull_closed_form(-1.0, 0.0, SPEC_0_5, FIG2_DEM)
    with pytest.raises(ValueError):
        weibull_closed_form(2.0, 6.0, SPEC_0_5, FIG2_DEM)
    with pytest.raises(TypeError):
        weibull_closed_form(2.0, 0.0, SPEC_0_5, LogNormal(0.0, 1.0))


# --- dual-route equivalence --------------------------------------------------


# The CLI's grid route reads a deterministic generation exactly, so it
# meets the closed form to rounding.


def test_grid_path_matches_closed_form_across_levels():
    b = point_mass_balance(Deterministic(2.0), FIG2_DEM)
    for s_prev in np.arange(0.0, 5.01, 0.5):
        grid_t = self_sufficiency(b, float(s_prev), SPEC_0_5)
        closed_t = weibull_closed_form(2.0, float(s_prev), SPEC_0_5, FIG2_DEM)
        np.testing.assert_allclose(_triple(grid_t), _triple(closed_t), rtol=0.0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(value=st.floats(0.0, 6.0), s_prev=st.floats(0.0, 5.0))
def test_grid_path_matches_closed_form_random_points(value, s_prev):
    grid_t = self_sufficiency(point_mass_balance(Deterministic(value), FIG2_DEM), s_prev, SPEC_0_5)
    closed_t = weibull_closed_form(value, s_prev, SPEC_0_5, FIG2_DEM)
    np.testing.assert_allclose(_triple(grid_t), _triple(closed_t), rtol=0.0, atol=1e-15)


# --- point masses read exactly: ties and stores inside one balance cell -----


def test_a_balance_atom_on_the_deficit_edge_counts_as_deficit():
    # B = 3 - D is 2 or 0 with mass 1/2 each; the deficit edge of an empty
    # store is B <= 0, so Pr[deficit] = Pr[D >= 3] = 0.5 exactly.
    b = point_mass_balance(Deterministic(3.0), Empirical((1.0, 3.0)))
    assert self_sufficiency(b, 0.0, SPEC_0_5).p_deficit == 0.5


def test_a_store_narrower_than_one_balance_cell_gets_its_exact_deficit():
    # At 4096 cells the 5-unit store would span about 0.01 of a balance cell.
    gen = lognormal_from_moments(1.0, 1e6)
    b = point_mass_balance(gen, Deterministic(1.0))
    exact = scipy.stats.lognorm(s=gen.sigma, scale=math.exp(gen.mu)).cdf(1.0)
    assert exact == pytest.approx(0.968448, abs=1e-6)
    assert self_sufficiency(b, 0.0, SPEC_0_5).p_deficit == pytest.approx(exact, abs=1e-12)


def test_a_sharp_weibull_against_a_known_demand_gets_its_exact_overflow():
    # From an empty [0, 5] store, B = G - 1 overflows iff G > 6.
    b = point_mass_balance(Weibull(1.0, 0.05), Deterministic(1.0))
    exact = scipy.stats.weibull_min(c=0.05, scale=1.0).sf(6.0)
    assert self_sufficiency(b, 0.0, SPEC_0_5).p_overflow == pytest.approx(exact, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: two wide continuous sides put the store inside a few "
    "balance cells, and the grid's error is O(1)",
)
def test_two_wide_lognormals_get_their_self_sufficiency_within_a_hundredth():
    # The balance step is about 87 against a 5-unit store.
    side = lognormal_from_moments(1.0, 1e4)
    b = difference_density(discretize(side), discretize(side))
    grid = self_sufficiency(b, 0.0, SPEC_0_5).p_self
    # Pr[0 < G - D <= 5] = E[F_D(G) - F_D(G - 5)], G and D independent copies.
    ref = scipy.stats.lognorm(s=side.sigma, scale=math.exp(side.mu))
    breaks = (0.0, 1e-6, 1e-3, 1.0, 1e3, math.inf)
    integrand = lambda g: ref.pdf(g) * (ref.cdf(g) - ref.cdf(g - 5.0))  # noqa: E731
    exact = sum(
        scipy.integrate.quad(integrand, lo, hi, limit=200)[0] for lo, hi in zip(breaks, breaks[1:])
    )
    assert exact == pytest.approx(0.4804, abs=1e-4)
    assert abs(grid - exact) <= 0.01
