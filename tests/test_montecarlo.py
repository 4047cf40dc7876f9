"""Seeded Monte Carlo engine: determinism, statistics, and agreement with analytics."""

import math

import numpy as np
import pytest

import stochstore.montecarlo as montecarlo
from stochstore import (
    Deterministic,
    ProbabilityEstimate,
    StorageSpec,
    Weibull,
    estimate_self_sufficiency,
    parse_scenario,
    simulate_ensemble,
    simulate_trajectory,
    step,
    sweep_battery_levels,
    weibull_closed_form,
)

E_MINUS_1 = 0.36787944117144233

SPEC_0_5 = StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)
FIG2_DEM = Weibull(scale=2.0, shape=5.0)


def _flat_scenario_json(horizon=4, gen=1.0, dem=1.0):
    step = {
        "generation": {"kind": "deterministic", "value": gen},
        "demand": {"kind": "deterministic", "value": dem},
    }
    import json

    return json.dumps(
        {
            "name": "flat",
            "energy_unit": "kWh",
            "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 2.0},
            "horizon": horizon,
            "steps": [step] * horizon,
        }
    )


def _mixed_scenario_json():
    # All four families; draws switch primitive (uniform -> normal), two
    # Empirical draws follow each other, Weibull shapes 2 and 0.5 hit the
    # special exponents 0.5 and 2, and a one-sample Empirical draws nothing.
    import json

    weibull = lambda scale, shape: {"kind": "weibull", "scale": scale, "shape": shape}
    lognormal = lambda mu, sigma: {"kind": "lognormal", "mu": mu, "sigma": sigma}
    empirical = lambda *xs: {"kind": "empirical", "samples": list(xs)}
    deterministic = lambda v: {"kind": "deterministic", "value": v}
    pairs = [
        (weibull(2.0, 5.0), lognormal(0.0, 0.5)),
        (empirical(1.0, 3.0, 2.5), empirical(0.5, 4.0, 1.0, 2.0)),
        (deterministic(1.5), weibull(1.2, 2.0)),
        (lognormal(0.2, 0.8), deterministic(0.8)),
        (lognormal(0.1, 0.4), lognormal(-0.1, 0.6)),
        (weibull(1.0, 0.5), empirical(2.0)),
        (empirical(0.0, 6.0), weibull(3.0, 1.5)),
    ]
    return json.dumps(
        {
            "name": "mixed",
            "energy_unit": "kWh",
            "storage": {"s_min": 0.5, "s_max": 4.0, "s_init": 2.0},
            "horizon": len(pairs),
            "steps": [{"generation": g, "demand": d} for g, d in pairs],
        }
    )


def _contract_trajectory(scenario, seed, index):
    """Trajectory ``index`` built straight from the seed contract.

    One ``sample_n(rng, 1)`` per quantity, generation then demand in step
    order, from ``default_rng((seed, index))``; then the scalar ``step``.
    """
    rng = np.random.default_rng((seed, index))
    g, d = [], []
    for spec in scenario.steps:
        g.append(spec.generation.sample_n(rng, 1)[0])
        d.append(spec.demand.sample_n(rng, 1)[0])
    s = scenario.storage.s_init
    storage, spill, deficit = [], [], []
    for gt, dt in zip(g, d):
        r = step(s, gt - dt, scenario.storage)
        s = r.s_next
        storage.append(r.s_next)
        spill.append(r.spill)
        deficit.append(r.deficit)
    g, d = np.array(g), np.array(d)
    return dict(
        generation=g,
        demand=d,
        balance=g - d,
        storage=np.array(storage),
        spill=np.array(spill),
        deficit=np.array(deficit),
    )


# --- ProbabilityEstimate ------------------------------------------------------


def test_probability_estimate_from_count():
    est = ProbabilityEstimate.from_count(250, 1000)
    assert est.p_hat == 0.25
    assert est.ci_halfwidth == pytest.approx(
        3.0 * math.sqrt(0.25 * 0.75 / 1000.0), abs=1e-15
    )
    assert est.n == 1000


def test_probability_estimate_rejects_mismatched_halfwidth():
    with pytest.raises(ValueError):
        ProbabilityEstimate(p_hat=0.25, ci_halfwidth=0.5, n=1000)
    with pytest.raises(ValueError):
        ProbabilityEstimate(p_hat=1.5, ci_halfwidth=0.0, n=1000)
    with pytest.raises(ValueError):
        ProbabilityEstimate.from_count(-1, 1000)


def test_degenerate_estimate_has_zero_halfwidth():
    est = ProbabilityEstimate.from_count(0, 500)
    assert est.p_hat == 0.0
    assert est.ci_halfwidth == 0.0


# --- estimate_self_sufficiency -------------------------------------------------


def test_estimate_is_deterministic_and_partitions_n():
    kwargs = dict(
        gen=Deterministic(2.0),
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        s_prev=0.0,
        n=20_000,
        seed=42,
    )
    a = estimate_self_sufficiency(**kwargs)
    b = estimate_self_sufficiency(**kwargs)
    assert a.deficit.p_hat == b.deficit.p_hat
    assert a.overflow.p_hat == b.overflow.p_hat
    assert a.self_sufficient.p_hat == b.self_sufficient.p_hat
    counts = round(a.deficit.p_hat * 20_000) + round(a.overflow.p_hat * 20_000) + round(
        a.self_sufficient.p_hat * 20_000
    )
    assert counts == 20_000
    assert a.n == 20_000


def test_estimate_covers_closed_form_checkpoint():
    est = estimate_self_sufficiency(
        gen=Deterministic(2.0),
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        s_prev=0.0,
        n=100_000,
        seed=0,
    )
    assert abs(est.deficit.p_hat - E_MINUS_1) <= est.deficit.ci_halfwidth
    closed = weibull_closed_form(2.0, 0.0, SPEC_0_5, FIG2_DEM)
    assert abs(est.overflow.p_hat - closed.p_overflow) <= max(
        est.overflow.ci_halfwidth, 3.0 / est.n
    )


def test_estimate_with_balance_inside_window_is_certain():
    est = estimate_self_sufficiency(
        gen=Deterministic(2.0),
        dem=Deterministic(1.5),
        storage=SPEC_0_5,
        s_prev=1.0,
        n=5_000,
        seed=7,
    )
    assert est.deficit.p_hat == 0.0
    assert est.overflow.p_hat == 0.0
    assert est.self_sufficient.p_hat == 1.0
    assert est.self_sufficient.ci_halfwidth == 0.0


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        estimate_self_sufficiency(
            gen=Deterministic(2.0),
            dem=FIG2_DEM,
            storage=SPEC_0_5,
            s_prev=-1.0,
            n=1000,
            seed=0,
        )
    with pytest.raises(ValueError):
        estimate_self_sufficiency(
            gen=Deterministic(2.0),
            dem=FIG2_DEM,
            storage=SPEC_0_5,
            s_prev=0.0,
            n=0,
            seed=0,
        )


# --- simulate_trajectory --------------------------------------------------------


def test_trajectory_of_balanced_deterministic_scenario_is_flat():
    scenario = parse_scenario(_flat_scenario_json(horizon=6, gen=1.0, dem=1.0))
    traj = simulate_trajectory(scenario, seed=0)
    assert np.all(traj.storage == 2.0)
    assert np.all(traj.spill == 0.0)
    assert np.all(traj.deficit == 0.0)
    assert np.array_equal(traj.generation - traj.demand, traj.balance)


def test_trajectory_is_reproducible_and_indexed(day24_scenario):
    t_a = simulate_trajectory(day24_scenario, seed=11, index=3)
    t_b = simulate_trajectory(day24_scenario, seed=11, index=3)
    t_c = simulate_trajectory(day24_scenario, seed=11, index=4)
    assert np.array_equal(t_a.storage, t_b.storage)
    assert np.array_equal(t_a.generation, t_b.generation)
    assert not np.array_equal(t_a.generation, t_c.generation)


def test_trajectories_and_ensemble_follow_the_seed_contract():
    scenario = parse_scenario(_mixed_scenario_json())
    seed, n = 13, 600
    assert n > getattr(montecarlo, "ENSEMBLE_CHUNK", 0)  # spans several chunks
    expected = [_contract_trajectory(scenario, seed, i) for i in range(n)]
    for i in (0, 1, 255, 256, n - 1):
        traj = simulate_trajectory(scenario, seed, i)
        for name, want in expected[i].items():
            np.testing.assert_array_equal(getattr(traj, name), want, err_msg=f"{i} {name}")

    stats = simulate_ensemble(scenario, n=n, seed=seed)
    states = np.array([e["storage"] for e in expected])
    assert 0 < np.count_nonzero([e["spill"] for e in expected])
    assert 0 < np.count_nonzero([e["deficit"] for e in expected])
    np.testing.assert_array_equal(stats.s_mean, states.mean(axis=0))
    np.testing.assert_array_equal(
        stats.s_quantiles, np.quantile(states, stats.quantile_levels, axis=0)
    )
    np.testing.assert_array_equal(
        stats.b_mean, np.array([e["balance"] for e in expected]).mean(axis=0)
    )
    for freq, key in ((stats.spill_freq, "spill"), (stats.deficit_freq, "deficit")):
        counts = np.count_nonzero(np.array([e[key] for e in expected]) > 0.0, axis=0)
        np.testing.assert_array_equal(freq, counts / n)


def test_trajectory_respects_storage_window(day24_scenario):
    spec = day24_scenario.storage
    for index in range(8):
        traj = simulate_trajectory(day24_scenario, seed=5, index=index)
        assert np.all(traj.storage >= spec.s_min)
        assert np.all(traj.storage <= spec.s_max)
        assert np.all(traj.spill >= 0.0)
        assert np.all(traj.deficit >= 0.0)


# --- simulate_ensemble ----------------------------------------------------------


def test_ensemble_of_deterministic_scenario_has_zero_frequencies():
    scenario = parse_scenario(_flat_scenario_json(horizon=4, gen=1.0, dem=1.0))
    stats = simulate_ensemble(scenario, n=64, seed=0)
    assert np.all(stats.s_mean == 2.0)
    assert np.all(stats.spill_freq == 0.0)
    assert np.all(stats.deficit_freq == 0.0)
    assert np.all(stats.b_mean == 0.0)


def test_ensemble_is_deterministic(day24_scenario):
    a = simulate_ensemble(day24_scenario, n=128, seed=3)
    b = simulate_ensemble(day24_scenario, n=128, seed=3)
    assert np.array_equal(a.s_mean, b.s_mean)
    assert np.array_equal(a.s_quantiles, b.s_quantiles)
    assert np.array_equal(a.spill_freq, b.spill_freq)


def test_ensemble_quantiles_are_ordered(day24_scenario):
    stats = simulate_ensemble(day24_scenario, n=256, seed=9)
    assert stats.s_quantiles.shape == (len(stats.quantile_levels), day24_scenario.horizon)
    diffs = np.diff(stats.s_quantiles, axis=0)
    assert np.all(diffs >= -1e-12)
    assert np.all(stats.s_quantiles >= day24_scenario.storage.s_min - 1e-12)
    assert np.all(stats.s_quantiles <= day24_scenario.storage.s_max + 1e-12)


def test_ensemble_frequencies_match_closed_form(fig2_scenario):
    # One-step scenario from a full battery: spill frequency estimates p_overflow.
    stats = simulate_ensemble(fig2_scenario, n=40_000, seed=0)
    closed = weibull_closed_form(
        2.0, fig2_scenario.storage.s_init, fig2_scenario.storage, FIG2_DEM
    )
    half = 3.0 * math.sqrt(closed.p_overflow * (1 - closed.p_overflow) / 40_000 + 1e-12)
    assert abs(stats.spill_freq[0] - closed.p_overflow) <= max(half, 3.0 / 40_000)
    half_d = 3.0 * math.sqrt(closed.p_deficit * (1 - closed.p_deficit) / 40_000)
    assert abs(stats.deficit_freq[0] - closed.p_deficit) <= half_d


# --- sweep_battery_levels --------------------------------------------------------


def test_sweep_matches_single_estimates_exactly():
    levels = [0.0, 2.5, 5.0]
    rows = sweep_battery_levels(
        gen_value=2.0,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=levels,
        n=10_000,
        seed=123,
    )
    assert [row.level for row in rows] == levels
    for row in rows:
        solo = estimate_self_sufficiency(
            gen=Deterministic(2.0),
            dem=FIG2_DEM,
            storage=SPEC_0_5,
            s_prev=row.level,
            n=10_000,
            seed=123,
        )
        assert row.mc.deficit.p_hat == solo.deficit.p_hat
        assert row.mc.overflow.p_hat == solo.overflow.p_hat


def test_sweep_analytic_columns_are_monotone():
    levels = np.linspace(0.0, 5.0, 11)
    rows = sweep_battery_levels(
        gen_value=2.0,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=levels,
        n=1_000,
        seed=1,
    )
    p_def = [row.analytic.p_deficit for row in rows]
    p_over = [row.analytic.p_overflow for row in rows]
    assert all(a >= b for a, b in zip(p_def, p_def[1:]))
    assert all(a <= b for a, b in zip(p_over, p_over[1:]))


def test_sweep_estimates_cover_analytics():
    rows = sweep_battery_levels(
        gen_value=2.0,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=[0.0, 4.0, 5.0],
        n=100_000,
        seed=0,
    )
    for row in rows:
        floor = 3.0 / row.mc.n
        assert abs(row.mc.deficit.p_hat - row.analytic.p_deficit) <= max(
            row.mc.deficit.ci_halfwidth, floor
        )
        assert abs(row.mc.overflow.p_hat - row.analytic.p_overflow) <= max(
            row.mc.overflow.ci_halfwidth, floor
        )


def test_sweep_rejects_empty_levels():
    with pytest.raises(ValueError):
        sweep_battery_levels(
            gen_value=2.0, dem=FIG2_DEM, storage=SPEC_0_5, levels=[], n=100, seed=0
        )
