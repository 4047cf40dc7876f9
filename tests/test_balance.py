"""Grid arithmetic and closed forms, cross-checked against scipy oracles."""

import math

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
    parse_scenario,
    self_sufficiency,
    weibull_closed_form,
)
from stochstore.balance import resample

from conftest import read_fixture_text

SPEC_0_5 = StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)
FIG2_DEM = Weibull(scale=2.0, shape=5.0)

E_MINUS_1 = 0.36787944117144233
P_B_AT_4 = 0.03076676552365592  # 1 - exp(-(1/2)**5)
P_B_AT_5 = 0.6321205588285577  # 1 - exp(-1)
LOGNORMAL_0_1_MEAN = 1.6487212707001282


def _grid_mean(grid):
    """Mean of the normalized grid measure, each cell's mass at its center."""
    if grid.is_atom:
        return grid.origin
    edges = grid.edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.dot(grid.masses, centers) / grid.total_mass)


def _direct_masses(gen, dem):
    """Balance masses from the direct ``np.convolve`` correlation: the reference."""
    if gen.is_atom or dem.is_atom:
        return np.convolve(gen.masses, dem.masses[::-1])
    h = min(gen.step, dem.step)
    corr = np.convolve(resample(gen, h).masses, resample(dem, h).masses[::-1])
    return 0.5 * (np.append(corr, 0.0) + np.insert(corr, 0, 0.0))


def _direct_balance(gen, dem):
    """The balance of ``gen`` and ``dem`` as a grid of the reference masses."""
    b = difference_density(gen, dem)
    return DensityGrid(origin=b.origin, step=b.step, masses=_direct_masses(gen, dem))


# --- DensityGrid -------------------------------------------------------------


def test_grid_cdf_is_piecewise_linear():
    grid = DensityGrid(origin=0.0, step=0.5, masses=np.array([0.5, 0.5]))
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
    atom = DensityGrid(origin=2.0, step=1.0, masses=np.array([1.0]))
    assert atom.is_atom
    assert atom.width == 0.0
    assert atom.cdf(1.9999) == 0.0
    assert atom.cdf(2.0) == 1.0  # closed on the right
    assert _grid_mean(atom) == 2.0


def test_grid_masses_are_read_only():
    grid = DensityGrid(origin=0.0, step=1.0, masses=np.array([0.4, 0.6]))
    with pytest.raises(ValueError):
        grid.masses[0] = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(origin=0.0, step=0.0, masses=np.array([1.0])),
        dict(origin=0.0, step=-1.0, masses=np.array([1.0])),
        dict(origin=math.nan, step=1.0, masses=np.array([1.0])),
        dict(origin=0.0, step=1.0, masses=np.array([])),
        dict(origin=0.0, step=1.0, masses=np.array([0.5, -0.2])),
        dict(origin=0.0, step=1.0, masses=np.array([0.8, 0.8])),
        dict(origin=0.0, step=1.0, masses=np.array([math.nan])),
    ],
)
def test_grid_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        DensityGrid(**kwargs)


# --- discretize --------------------------------------------------------------


def test_discretize_deterministic_is_an_atom():
    grid = discretize(Deterministic(2.0), cells=4096)
    assert grid.is_atom
    assert grid.origin == 2.0
    assert grid.total_mass == 1.0


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


def test_discretize_empirical_histogram_keeps_all_mass():
    emp = Empirical(samples=(0.5, 1.0, 1.0, 2.5, 4.0))
    grid = discretize(emp, cells=16)
    assert grid.total_mass == pytest.approx(1.0, abs=1e-15)
    assert grid.origin == 0.5
    assert _grid_mean(grid) == pytest.approx(np.mean(emp.samples), abs=grid.step)


def test_discretize_degenerate_empirical_is_an_atom():
    grid = discretize(Empirical(samples=(1.5, 1.5, 1.5)), cells=32)
    assert grid.is_atom
    assert grid.origin == 1.5


@pytest.mark.parametrize(
    "samples, cells",
    [((1.0, 1.0000000000001), 4096), ((1.0, 1.000000000001), 65536), ((0.0, 5e-324), 2)],
)
def test_discretize_refuses_an_empirical_range_without_float_cells(samples, cells):
    # np.histogram raises its own ValueError for these edges.
    with pytest.raises(CellBudgetError, match=f"no {cells} float cells"):
        discretize(Empirical(samples=samples), cells=cells)


def test_discretize_grids_a_narrow_empirical_range_that_has_float_cells():
    # About 450 ulps wide: 64 cells have increasing edges.
    samples = (1.0, 1.0, 1.0000000000001)
    grid = discretize(Empirical(samples=samples), cells=64)
    counts, _ = np.histogram(samples, bins=64, range=(1.0, 1.0000000000001))
    assert np.array_equal(grid.masses, counts / 3)


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
    grid = difference_density(discretize(Deterministic(2.0)), discretize(FIG2_DEM, 4096))
    assert isinstance(grid, DensityGrid) and grid.n_cells == 4096
    return grid


def _resampled_lognormal():
    grid = discretize(LogNormal(0.0, 1.0), 512)
    return resample(grid, 0.3 * grid.step)


@pytest.mark.parametrize(
    "make_grid",
    [
        lambda: DensityGrid(origin=0.5, step=0.75, masses=[0.3, 0.6]),
        _fig2_balance,
        _resampled_lognormal,
        # Cells far below an ulp of the origin: runs of edges round together.
        lambda: DensityGrid(origin=1e6, step=1e-11, masses=np.full(64, 1 / 64)),
    ],
    ids=["two_cells", "fig2_atom_shifted_4096", "resampled", "edges_that_round_together"],
)
def test_grid_cdf_is_np_interp_bit_for_bit(make_grid):
    grid = make_grid()
    edges, cum = grid.edges, grid._cum
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


def test_resample_atom_and_same_step_are_identity():
    atom = discretize(Deterministic(1.0))
    assert resample(atom, 0.01) is atom
    grid = discretize(FIG2_DEM, cells=128)
    assert resample(grid, grid.step) is grid


# --- difference_density ------------------------------------------------------


def test_difference_of_two_atoms():
    b = difference_density(discretize(Deterministic(2.0)), discretize(Deterministic(0.5)))
    assert b.is_atom
    assert b.origin == 1.5
    assert b.total_mass == 1.0


def test_difference_of_iid_grids_is_symmetric():
    g = discretize(LogNormal(mu=0.0, sigma=1.0), cells=4096)
    b = difference_density(g, g)
    assert b.cdf(0.0) == pytest.approx(0.5, abs=1e-3)
    assert _grid_mean(_direct_balance(g, g)) == pytest.approx(0.0, abs=1e-9)


def test_difference_deterministic_minus_weibull_checkpoint():
    b = difference_density(discretize(Deterministic(2.0), 4096), discretize(FIG2_DEM, 4096))
    # Pr[B <= 0] = Pr[D >= 2] = exp(-1)
    assert b.cdf(0.0) == pytest.approx(E_MINUS_1, abs=1e-3)


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
    return DensityGrid(origin=origin, step=step, masses=np.array(masses))


def _atom(origin, mass=0.7):
    return DensityGrid(origin=origin, step=1.0, masses=np.array([mass]))


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
    if b.is_atom:
        assert b.masses.tolist() == direct.tolist()
        return
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
        np.testing.assert_allclose(cdf_at_edges, direct._cum[k], rtol=0.0, atol=CUM_TOL)
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
    dem = discretize(FIG2_DEM, cells=512)
    b = difference_density(discretize(Deterministic(2.0)), dem)
    for x in (-1.0, 0.0, 0.5):
        # Pr[2 - D <= x] = Pr[D >= 2 - x] = 1 - F_D((2-x)^-)
        assert b.cdf(x) == pytest.approx(dem.total_mass - dem.cdf(2.0 - x), abs=1e-12)

    gen = discretize(LogNormal(0.0, 0.4), cells=512)
    b2 = difference_density(gen, discretize(Deterministic(0.75)))
    for x in (-0.5, 0.0, 1.0):
        assert b2.cdf(x) == pytest.approx(gen.cdf(x + 0.75), abs=1e-12)


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
    for dist_pair in ((Deterministic(2.0), FIG2_DEM), (LogNormal(0.0, 0.8), FIG2_DEM)):
        coarse = difference_density(*(discretize(d, 4096) for d in dist_pair))
        fine = difference_density(*(discretize(d, 8192) for d in dist_pair))
        for lo, hi in ((-1.0, 0.0), (0.0, 1.5), (-0.25, 2.0)):
            assert coarse.cdf(hi) - coarse.cdf(lo) == pytest.approx(
                fine.cdf(hi) - fine.cdf(lo), abs=1e-3
            )


# --- self_sufficiency --------------------------------------------------------


def test_self_sufficiency_triple_sums_to_total_mass():
    b = difference_density(discretize(Deterministic(2.0), 4096), discretize(FIG2_DEM, 4096))
    for s_prev in (0.0, 1.5, 4.0, 5.0):
        t = self_sufficiency(b, s_prev, SPEC_0_5)
        assert abs((t.p_deficit + t.p_overflow + t.p_self) - b.total_mass) < 1e-9


def test_self_sufficiency_atom_examples():
    mid = self_sufficiency(
        DensityGrid(origin=0.0, step=1.0, masses=np.array([1.0])), 2.5, SPEC_0_5
    )
    assert (mid.p_deficit, mid.p_overflow, mid.p_self) == (0.0, 0.0, 1.0)

    spec = StorageSpec(0.0, 5.0, 5.0)
    surplus = self_sufficiency(
        DensityGrid(origin=1.0, step=1.0, masses=np.array([1.0])), 5.0, spec
    )
    assert (surplus.p_deficit, surplus.p_overflow, surplus.p_self) == (0.0, 1.0, 0.0)


def test_self_sufficiency_fig2_checkpoint():
    b = difference_density(discretize(Deterministic(2.0), 4096), discretize(FIG2_DEM, 4096))
    t = self_sufficiency(b, 0.0, SPEC_0_5)
    assert t.p_deficit == pytest.approx(E_MINUS_1, abs=1e-3)
    assert t.p_overflow == 0.0


def test_self_sufficiency_rejects_over_budget_truncation():
    grid = discretize(FIG2_DEM, cells=256)
    assert self_sufficiency(grid, 0.0, SPEC_0_5).p_self <= grid.total_mass
    truncated = DensityGrid(origin=grid.origin, step=grid.step, masses=0.9 * grid.masses)
    with pytest.raises(TruncationBudgetError):
        self_sufficiency(truncated, 0.0, SPEC_0_5)


def test_self_sufficiency_checks_the_level_and_forms_the_window():
    def atom(x):
        return DensityGrid(origin=x, step=1.0, masses=np.array([1.0]))

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


def test_grid_path_matches_closed_form_across_levels():
    b = difference_density(discretize(Deterministic(2.0), 4096), discretize(FIG2_DEM, 4096))
    for s_prev in np.arange(0.0, 5.01, 0.5):
        grid_t = self_sufficiency(b, float(s_prev), SPEC_0_5)
        closed_t = weibull_closed_form(2.0, float(s_prev), SPEC_0_5, FIG2_DEM)
        assert grid_t.p_deficit == pytest.approx(closed_t.p_deficit, abs=1e-3)
        assert grid_t.p_overflow == pytest.approx(closed_t.p_overflow, abs=1e-3)
        assert grid_t.p_self == pytest.approx(closed_t.p_self, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(value=st.floats(0.0, 6.0), s_prev=st.floats(0.0, 5.0))
def test_grid_path_matches_closed_form_random_points(value, s_prev):
    b = difference_density(discretize(Deterministic(value), 2048), discretize(FIG2_DEM, 2048))
    grid_t = self_sufficiency(b, s_prev, SPEC_0_5)
    closed_t = weibull_closed_form(value, s_prev, SPEC_0_5, FIG2_DEM)
    assert grid_t.p_deficit == pytest.approx(closed_t.p_deficit, abs=1e-3)
    assert grid_t.p_overflow == pytest.approx(closed_t.p_overflow, abs=1e-3)
