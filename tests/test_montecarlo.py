"""Seeded Monte Carlo engine: determinism, statistics, and agreement with analytics."""

import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

import stochstore.montecarlo as montecarlo
from stochstore import (
    Deterministic,
    Distribution,
    Empirical,
    LogNormal,
    ProbabilityEstimate,
    StorageSpec,
    Weibull,
    estimate_self_sufficiency,
    estimate_steps,
    parse_scenario,
    simulate_ensemble,
    simulate_trajectory,
    sweep_battery_levels,
    weibull_closed_form,
)

from conftest import estimate_reference, step

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


weibull = lambda scale, shape: {"kind": "weibull", "scale": scale, "shape": shape}
lognormal = lambda mu, sigma: {"kind": "lognormal", "mu": mu, "sigma": sigma}
empirical = lambda *xs: {"kind": "empirical", "samples": list(xs)}
deterministic = lambda v: {"kind": "deterministic", "value": v}


def _pairs_scenario_json(name, pairs, storage):
    import json

    return json.dumps(
        {
            "name": name,
            "energy_unit": "kWh",
            "storage": storage,
            "horizon": len(pairs),
            "steps": [{"generation": g, "demand": d} for g, d in pairs],
        }
    )


def _mixed_scenario_json():
    # All four families; draws switch primitive (uniform -> normal), two
    # Empirical draws follow each other, Weibull shapes 2 and 0.5 hit the
    # special exponents 0.5 and 2, and a one-sample Empirical draws nothing.
    pairs = [
        (weibull(2.0, 5.0), lognormal(0.0, 0.5)),
        (empirical(1.0, 3.0, 2.5), empirical(0.5, 4.0, 1.0, 2.0)),
        (deterministic(1.5), weibull(1.2, 2.0)),
        (lognormal(0.2, 0.8), deterministic(0.8)),
        (lognormal(0.1, 0.4), lognormal(-0.1, 0.6)),
        (weibull(1.0, 0.5), empirical(2.0)),
        (empirical(0.0, 6.0), weibull(3.0, 1.5)),
    ]
    return _pairs_scenario_json("mixed", pairs, {"s_min": 0.5, "s_max": 4.0, "s_init": 2.0})


def _repeated_scenario_json():
    # A log-normal and a Weibull (exponent 0.5) each recur at steps that are
    # not adjacent and on both sides, so one transform call covers rows of
    # generation and of demand; Empirical runs sit between the repeats, and
    # the Weibull of shape 0.5 (exponent 2) recurs too.
    ln, wb, wb2 = lognormal(0.3, 0.5), weibull(1.5, 2.0), weibull(1.0, 0.5)
    pairs = [
        (ln, wb),
        (empirical(1.0, 2.0, 3.5), empirical(0.5, 2.5)),
        (wb, ln),
        (deterministic(1.0), wb2),
        (ln, empirical(0.0, 1.5, 4.0)),
        (wb2, wb),
        (lognormal(-0.2, 0.7), ln),
    ]
    return _pairs_scenario_json("repeated", pairs, {"s_min": 0.5, "s_max": 3.0, "s_init": 1.0})


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


def test_probability_estimate_rejects_invalid_fields():
    with pytest.raises(ValueError):
        ProbabilityEstimate(p_hat=1.5, n=1000)
    with pytest.raises(ValueError):
        ProbabilityEstimate(p_hat=0.25, n=0)
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


# --- estimate_steps -------------------------------------------------------------


SPEC_MIXED = StorageSpec(s_min=0.5, s_max=4.0, s_init=2.0)
EMPIRICAL_A = Empirical((1.0, 3.0, 2.5))
EMPIRICAL_B = Empirical((0.5, 4.0, 1.0, 2.0))
SHARED_PAIRS = [
    (LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6)),
    (LogNormal(0.3, 0.2), LogNormal(0.0, 1.0)),
    (Weibull(2.0, 5.0), LogNormal(0.0, 0.5)),
    (LogNormal(0.0, 0.5), Weibull(2.0, 5.0)),
    (Deterministic(1.5), Weibull(1.2, 2.0)),
    # Balance -1.5 lies on lo at level 2.0 (closed deficit), and balance
    # 2.0 on hi (open overflow: self-sufficient).
    (Deterministic(1.0), Deterministic(2.5)),
    (Deterministic(3.0), Deterministic(1.0)),
    (EMPIRICAL_A, Weibull(3.0, 1.5)),
    (EMPIRICAL_B, Weibull(1.0, 0.5)),
    (LogNormal(0.2, 0.8), EMPIRICAL_A),
    (LogNormal(-0.2, 0.3), EMPIRICAL_B),
]
SHARED_LEVELS = [(0.5, 2.0, 4.0), (2.0,), (4.0, 0.5, 3.1)]


def test_shared_estimates_equal_separate_estimates_bit_for_bit():
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    seed = 11
    levels = [SHARED_LEVELS[k % len(SHARED_LEVELS)] for k in range(len(SHARED_PAIRS))]
    shared = estimate_steps(SHARED_PAIRS, SPEC_MIXED, levels, n, seed)
    assert len(shared) == len(SHARED_PAIRS)
    for (gen, dem), pair_levels, estimates in zip(SHARED_PAIRS, levels, shared):
        assert len(estimates) == len(pair_levels)
        for level, est in zip(pair_levels, estimates):
            solo = estimate_reference(gen, dem, SPEC_MIXED, level, n, seed)
            assert est.deficit.p_hat == solo.deficit.p_hat
            assert est.overflow.p_hat == solo.overflow.p_hat
            assert est.self_sufficient.p_hat == solo.self_sufficient.p_hat
            assert est.n == solo.n == n
            assert estimate_self_sufficiency(gen, dem, SPEC_MIXED, level, n, seed) == est
    assert shared[5][1].deficit.p_hat == 1.0  # (1.0 - 2.5) at level 2.0
    assert shared[6][0].self_sufficient.p_hat == 1.0  # (3.0 - 1.0) at level 2.0


@dataclass
class _ShiftedUniform(Distribution):
    """A user family with its own ``sample_n``: a plain dataclass, so unhashable."""

    shift: float

    def sample_n(self, rng, n):
        return rng.random(self._check_n(n)) + self.shift


def test_shared_estimates_accept_an_unhashable_quantity():
    a, b = _ShiftedUniform(1.0), _ShiftedUniform(1.5)
    assert a.__hash__ is None
    pairs = [(a, Weibull(2.0, 2.0)), (b, Weibull(2.0, 2.0)), (LogNormal(0.0, 0.5), a)]
    n, seed = 1000, 4
    shared = estimate_steps(pairs, SPEC_MIXED, [(2.0, 3.1)] * len(pairs), n, seed)
    for (gen, dem), estimates in zip(pairs, shared):
        for level, est in zip((2.0, 3.1), estimates):
            assert est == estimate_reference(gen, dem, SPEC_MIXED, level, n, seed)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, a method or a module's function;
    the returned list holds the count."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_recurring_generation_is_transformed_once_per_block(day24_scenario, monkeypatch):
    n, seed = 2 * montecarlo.ESTIMATE_BLOCK + 3, 5
    pairs = [(spec.generation, spec.demand) for spec in day24_scenario.steps]
    assert len(pairs) == 24 and all(gen == pairs[0][0] for gen, _ in pairs)
    calls = _count_calls(monkeypatch, LogNormal, "transform")
    shared = estimate_steps(pairs, day24_scenario.storage, [(5.0, 0.0)] * len(pairs), n, seed)
    # Three blocks, each transforming the one generation and the 24 demands.
    assert calls[0] == 3 * (1 + 24)
    for (gen, dem), estimates in zip(pairs, shared):
        for level, est in zip((5.0, 0.0), estimates):
            assert est == estimate_reference(gen, dem, day24_scenario.storage, level, n, seed)


_GEN = LogNormal(0.1, 0.4)
_SHIFTED = _ShiftedUniform(1.0)
_ZEROS = Empirical((0.0, 1.5, 3.5))


@pytest.mark.parametrize(
    "pairs, transforms_per_block",
    [
        pytest.param([(_GEN, LogNormal(-0.1, 0.6)), (_GEN, LogNormal(0.3, 0.2))], 3, id="same-object"),
        pytest.param(
            [(LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6)), (LogNormal(0.1, 0.4), LogNormal(0.3, 0.2))],
            3,
            id="equal-distinct",
        ),
        # Balance 0.0 from one and -0.0 from the other (demand 0.0) lie on lo
        # at level 0.5 and on hi at level 4.0.
        pytest.param(
            [(Deterministic(0.0), _ZEROS), (Deterministic(-0.0), _ZEROS)], 0, id="signed-zero"
        ),
        # Equal but distinct user quantities draw apart; the same one twice
        # shares a group and is compared with ==, which must not hash it.
        pytest.param(
            [
                (_ShiftedUniform(1.0), Weibull(2.0, 2.0)),
                (_SHIFTED, Weibull(3.0, 1.0)),
                (_SHIFTED, Weibull(2.0, 2.0)),
            ],
            0,
            id="unhashable",
        ),
        pytest.param(
            [
                (LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6)),
                (LogNormal(0.2, 0.4), LogNormal(0.3, 0.2)),
                (LogNormal(0.1, 0.4), LogNormal(0.0, 1.0)),
            ],
            6,
            id="equal-not-adjacent",
        ),
    ],
)
def test_generation_reuse_matches_the_reference_bit_for_bit(pairs, transforms_per_block, monkeypatch):
    assert Deterministic(-0.0) == Deterministic(0.0)
    n, seed = 2 * montecarlo.ESTIMATE_BLOCK + 3, 17
    levels = (0.5, 2.0, 4.0)
    calls = _count_calls(monkeypatch, LogNormal, "transform")
    shared = estimate_steps(pairs, SPEC_MIXED, [levels] * len(pairs), n, seed)
    assert calls[0] == 3 * transforms_per_block
    for (gen, dem), estimates in zip(pairs, shared):
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, SPEC_MIXED, level, n, seed)


def test_shared_estimates_hold_one_draw_set_at_a_time():
    n = 50_000
    pairs = [(Empirical((float(k), k + 2.0)), Empirical((0.5 * k, 3.0))) for k in range(24)]
    estimate_steps(pairs[:1], SPEC_MIXED, [(2.0,)], 100, 0)
    tracemalloc.start()
    try:
        estimate_steps(pairs, SPEC_MIXED, [(2.0,)] * len(pairs), n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two raw draw arrays plus one draw's choice indices, as for a single
    # estimate; a second draw set kept alive would add two more.
    assert peak < 3.5 * 8 * n


def test_shared_estimates_validate_inputs():
    with pytest.raises(ValueError, match="level lists"):
        estimate_steps(SHARED_PAIRS[:2], SPEC_MIXED, [(2.0,)], 100, 0)
    with pytest.raises(ValueError, match="storage window"):
        estimate_steps(SHARED_PAIRS[:1], SPEC_MIXED, [(0.0,)], 100, 0)
    assert estimate_steps([], SPEC_MIXED, [], 100, 0) == ()


# --- the sort path: a pair counted at many levels ---------------------------------

SORT_PAIRS = [
    (LogNormal(0.1, 0.4), Weibull(2.0, 5.0)),
    (LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6)),
    (EMPIRICAL_A, Weibull(1.0, 0.5)),
    (Deterministic(1.5), EMPIRICAL_B),
    (Deterministic(2.0), Deterministic(0.5)),
]
MANY_LEVELS = tuple(np.linspace(0.5, 4.0, montecarlo.SORT_ABOVE_LEVELS + 1))


def _assert_matches_reference(pairs, storage, levels, n, seed):
    shared = estimate_steps(pairs, storage, [levels] * len(pairs), n, seed)
    for (gen, dem), estimates in zip(pairs, shared):
        assert len(estimates) == len(levels)
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, storage, level, n, seed)
    return shared


@pytest.mark.parametrize("extra_levels, sorts", [(0, False), (1, True)])
def test_the_sort_path_starts_one_level_past_the_crossover(extra_levels, sorts, monkeypatch):
    levels = tuple(np.linspace(0.5, 4.0, montecarlo.SORT_ABOVE_LEVELS + extra_levels))
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    searches = _count_calls(monkeypatch, np, "searchsorted")
    estimate_steps(SORT_PAIRS, SPEC_MIXED, [levels] * len(SORT_PAIRS), n, 8)
    assert (searches[0] > 0) is sorts
    monkeypatch.undo()
    _assert_matches_reference(SORT_PAIRS, SPEC_MIXED, levels, n, 8)


@pytest.mark.parametrize("n_from_block", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_the_sort_path_matches_the_reference_at_block_edges(n_from_block):
    blocks, extra = n_from_block
    n = blocks * montecarlo.ESTIMATE_BLOCK + extra
    _assert_matches_reference(SORT_PAIRS, SPEC_MIXED, MANY_LEVELS, n, 23)


@pytest.mark.parametrize(
    "levels",
    [tuple(np.linspace(0.0, 5.0, 51)), (0.0, 1.0, 2.5, 3.0, 5.0)],
    ids=["sort", "compare"],
)
def test_balances_on_window_edges_count_as_in_the_reference(levels):
    # In a [0, 5] store the window at level s is (-s, 5 - s]: these balances
    # (0, 1, 2.5, 3, 5 and their negatives, -0.0 among them) land on its
    # closed deficit edge or its open overflow edge at the listed levels.
    edges = Empirical((0.0, 1.0, 2.5, 3.0, 5.0))
    pairs = [
        (edges, Deterministic(0.0)),
        (Deterministic(5.0), edges),
        (Deterministic(-0.0), Empirical((0.0, 2.5))),
        (Deterministic(2.5), Deterministic(2.5)),
        (Deterministic(0.0), edges),
    ]
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    shared = _assert_matches_reference(pairs, SPEC_0_5, levels, n, 6)
    assert shared[3][0].deficit.p_hat == 1.0  # balance 0 on lo = 0 at level 0
    assert shared[3][-1].self_sufficient.p_hat == 1.0  # balance 0 on hi = 0 at level 5


@pytest.mark.parametrize("levels", [MANY_LEVELS, (2.0, 0.5)], ids=["sort", "compare"])
def test_nan_balances_count_as_neither_deficit_nor_overflow(levels):
    # exp(709 + z) overflows for z > 0.78, so some balances are inf - inf.
    huge = LogNormal(709.0, 1.0)
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    with np.errstate(over="ignore", invalid="ignore"):
        shared = _assert_matches_reference([(huge, huge)], SPEC_MIXED, levels, n, 2)
    for est in shared[0]:
        # Finite balances this large miss the window; NaNs are neither event.
        assert 0.03 < est.self_sufficient.p_hat < 0.07
        assert est.deficit.p_hat > 0.3 and est.overflow.p_hat > 0.3


def test_a_many_level_sweep_makes_no_per_level_passes(monkeypatch):
    counts = _count_calls(monkeypatch, np, "count_nonzero")
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    rows = sweep_battery_levels(2.0, FIG2_DEM, SPEC_0_5, np.linspace(0.0, 5.0, 51), n, 3)
    assert len(rows) == 51
    assert counts[0] == 0


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


def _assert_follows_the_seed_contract(scenario, seed, n):
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
    for key, want in expected[0].items():
        np.testing.assert_array_equal(getattr(stats.realization, key), want, err_msg=key)


def test_trajectories_and_ensemble_follow_the_seed_contract():
    _assert_follows_the_seed_contract(parse_scenario(_mixed_scenario_json()), seed=13, n=600)


def test_repeated_quantities_follow_the_seed_contract():
    _assert_follows_the_seed_contract(parse_scenario(_repeated_scenario_json()), seed=17, n=600)


# Seeds from one word to more words than SeedSequence's 4-word pool, and
# indices at chunk edges and at the one-to-two-word boundary.
CONTRACT_SEEDS = (0, 7, 2**32 + 5, 2**63 + 1, 2**200)
CONTRACT_INDICES = (0, 255, 256, 257, 2**32 - 1, 2**32)


@pytest.mark.parametrize("seed", CONTRACT_SEEDS)
def test_generator_states_are_numpys_seeding_of_seed_and_index(seed):
    # Computed in one call across every index width, as default_rng sets them.
    states = montecarlo._pcg64_states(seed, CONTRACT_INDICES)
    for i, (state, inc) in zip(CONTRACT_INDICES, states):
        want = np.random.default_rng((seed, i)).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"]), i

    scenario = parse_scenario(_mixed_scenario_json())
    g, d = montecarlo._draw(montecarlo._draw_plan(scenario), seed, CONTRACT_INDICES)
    for j, i in enumerate(CONTRACT_INDICES):
        expected = _contract_trajectory(scenario, seed, i)
        np.testing.assert_array_equal(g[:, j], expected["generation"], err_msg=str(i))
        np.testing.assert_array_equal(d[:, j], expected["demand"], err_msg=str(i))
        traj = simulate_trajectory(scenario, seed, i)
        for name, want in expected.items():
            np.testing.assert_array_equal(getattr(traj, name), want, err_msg=f"{i} {name}")


def test_negative_seed_or_index_is_refused():
    scenario = parse_scenario(_flat_scenario_json())
    with pytest.raises(ValueError, match=">= 0"):
        simulate_trajectory(scenario, seed=-1)
    with pytest.raises(ValueError, match=">= 0"):
        simulate_trajectory(scenario, seed=0, index=-1)


ONE_BY_ONE_SIZES = (1, 255, 256, 257, 1000, 20011)


@pytest.fixture(scope="module")
def one_by_one_references(day24_scenario, fig2_scenario):
    """Per-trajectory contract paths of the largest ensemble, per scenario.

    numpy sums the columns of the two-step scenario's matrices row by row,
    and the one-step fig2 scenario's single column pairwise.
    """
    seed = 21
    two_steps = replace(day24_scenario, name="two_steps", steps=day24_scenario.steps[:2])
    references = {}
    for scenario in (two_steps, fig2_scenario):
        paths = [_contract_trajectory(scenario, seed, i) for i in range(max(ONE_BY_ONE_SIZES))]
        references[scenario.name] = (
            scenario,
            seed,
            {key: np.array([p[key] for p in paths]) for key in paths[0]},
        )
    return references


@pytest.mark.parametrize("n", ONE_BY_ONE_SIZES)
@pytest.mark.parametrize("name", ["two_steps", "fig2_battery"])
def test_ensemble_equals_an_aggregation_one_trajectory_at_a_time(one_by_one_references, name, n):
    scenario, seed, paths = one_by_one_references[name]
    stats = simulate_ensemble(scenario, n=n, seed=seed)
    states, balances = paths["storage"][:n], paths["balance"][:n]
    if scenario.horizon > 1:
        # numpy's column means of a matrix add its rows one at a time.
        total = np.zeros(scenario.horizon)
        for row in balances:
            total = total + row
        np.testing.assert_array_equal(stats.b_mean, total / n)
    np.testing.assert_array_equal(stats.b_mean, balances.mean(axis=0))
    np.testing.assert_array_equal(stats.s_mean, states.mean(axis=0))
    np.testing.assert_array_equal(
        stats.s_quantiles, np.quantile(states, stats.quantile_levels, axis=0)
    )
    for freq, key in ((stats.spill_freq, "spill"), (stats.deficit_freq, "deficit")):
        np.testing.assert_array_equal(freq, np.count_nonzero(paths[key][:n] > 0.0, axis=0) / n)
    for key, column in paths.items():
        np.testing.assert_array_equal(getattr(stats.realization, key), column[0], err_msg=key)


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
    estimates = sweep_battery_levels(
        gen_value=2.0,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=levels,
        n=10_000,
        seed=123,
    )
    assert len(estimates) == len(levels)
    for level, estimate in zip(levels, estimates):
        solo = estimate_reference(Deterministic(2.0), FIG2_DEM, SPEC_0_5, level, 10_000, 123)
        assert estimate == solo


def test_sweep_draws_its_demand_once_for_all_levels(monkeypatch):
    calls = _count_calls(monkeypatch, Weibull, "transform")
    rows = sweep_battery_levels(2.0, FIG2_DEM, SPEC_0_5, np.linspace(0.0, 5.0, 51), 1000, 3)
    assert len(rows) == 51
    assert calls[0] == 1


def test_sweep_holds_one_n_length_array():
    n = 200_000
    levels = np.linspace(0.0, 5.0, 51)
    sweep_battery_levels(2.0, FIG2_DEM, SPEC_0_5, levels, 100, 0)
    tracemalloc.start()
    try:
        sweep_battery_levels(2.0, FIG2_DEM, SPEC_0_5, levels, n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The demand draws plus two blocks; an n-length generation or balance
    # array next to them would add another 8n.
    assert peak < 1.5 * 8 * n


def test_sweep_analytic_columns_are_monotone():
    levels = np.linspace(0.0, 5.0, 11)
    closed = [weibull_closed_form(2.0, level, SPEC_0_5, FIG2_DEM) for level in levels]
    p_def = [t.p_deficit for t in closed]
    p_over = [t.p_overflow for t in closed]
    assert all(a >= b for a, b in zip(p_def, p_def[1:]))
    assert all(a <= b for a, b in zip(p_over, p_over[1:]))


def test_sweep_estimates_cover_analytics():
    levels = [0.0, 4.0, 5.0]
    estimates = sweep_battery_levels(
        gen_value=2.0,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=levels,
        n=100_000,
        seed=0,
    )
    for level, mc in zip(levels, estimates, strict=True):
        analytic = weibull_closed_form(2.0, level, SPEC_0_5, FIG2_DEM)
        floor = 3.0 / mc.n
        assert abs(mc.deficit.p_hat - analytic.p_deficit) <= max(mc.deficit.ci_halfwidth, floor)
        assert abs(mc.overflow.p_hat - analytic.p_overflow) <= max(
            mc.overflow.ci_halfwidth, floor
        )


def test_sweep_rejects_empty_levels():
    with pytest.raises(ValueError):
        sweep_battery_levels(
            gen_value=2.0, dem=FIG2_DEM, storage=SPEC_0_5, levels=[], n=100, seed=0
        )
