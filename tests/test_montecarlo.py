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
    SelfSufficiencyEstimate,
    StorageSpec,
    Weibull,
    estimate_steps,
    evolve,
    parse_scenario,
    simulate_ensemble,
    weibull_closed_form,
)

from conftest import contract_trajectory, estimate_reference

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


# --- SelfSufficiencyEstimate ---------------------------------------------------


def test_estimate_frequencies_and_halfwidth():
    est = montecarlo._estimate(250, 150, 1000)
    assert est == SelfSufficiencyEstimate(p_deficit=0.25, p_overflow=0.15, p_self=0.6, n=1000)
    assert est.halfwidth(est.p_deficit) == pytest.approx(
        3.0 * math.sqrt(0.25 * 0.75 / 1000.0), abs=1e-15
    )
    assert est.n == 1000


def test_degenerate_estimate_has_zero_halfwidth():
    est = montecarlo._estimate(0, 0, 500)
    assert est.p_deficit == 0.0
    assert est.halfwidth(est.p_deficit) == 0.0


# --- one estimate: one pair at one level -------------------------------------


def test_estimate_is_deterministic_and_partitions_n():
    args = ([(Deterministic(2.0), FIG2_DEM)], SPEC_0_5, [(0.0,)], 20_000, 42)
    [[a]] = estimate_steps(*args)
    [[b]] = estimate_steps(*args)
    assert a.p_deficit == b.p_deficit
    assert a.p_overflow == b.p_overflow
    assert a.p_self == b.p_self
    counts = round(a.p_deficit * 20_000) + round(a.p_overflow * 20_000) + round(a.p_self * 20_000)
    assert counts == 20_000
    assert a.n == 20_000


def test_estimate_covers_closed_form_checkpoint():
    [[est]] = estimate_steps([(Deterministic(2.0), FIG2_DEM)], SPEC_0_5, [(0.0,)], 100_000, 0)
    assert abs(est.p_deficit - E_MINUS_1) <= est.halfwidth(est.p_deficit)
    closed = weibull_closed_form(2.0, 0.0, SPEC_0_5, FIG2_DEM)
    assert abs(est.p_overflow - closed.p_overflow) <= max(
        est.halfwidth(est.p_overflow), 3.0 / est.n
    )


def test_estimate_with_balance_inside_window_is_certain():
    [[est]] = estimate_steps(
        [(Deterministic(2.0), Deterministic(1.5))], SPEC_0_5, [(1.0,)], 5_000, 7
    )
    assert est.p_deficit == 0.0
    assert est.p_overflow == 0.0
    assert est.p_self == 1.0
    assert est.halfwidth(est.p_self) == 0.0


def test_estimate_validates_inputs():
    pair = [(Deterministic(2.0), FIG2_DEM)]
    with pytest.raises(ValueError):
        estimate_steps(pair, SPEC_0_5, [(-1.0,)], 1000, 0)
    with pytest.raises(ValueError):
        estimate_steps(pair, SPEC_0_5, [(0.0,)], 0, 0)


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
            assert est.p_deficit == solo.p_deficit
            assert est.p_overflow == solo.p_overflow
            assert est.p_self == solo.p_self
            assert est.n == solo.n == n
            assert estimate_steps([(gen, dem)], SPEC_MIXED, [(level,)], n, seed) == ((est,),)
    assert shared[5][1].p_deficit == 1.0  # (1.0 - 2.5) at level 2.0
    assert shared[6][0].p_self == 1.0  # (3.0 - 1.0) at level 2.0


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
    # The whole generation draw plus its choice indices (2.41 * 8n measured):
    # the demand is drawn a block at a time, and an n-length demand draw or
    # a second draw set kept alive would add another 8n.
    assert peak < 2.5 * 8 * n


def test_a_drawn_demand_is_held_a_block_at_a_time():
    n = 200_000
    pair = [(LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6))]
    estimate_steps(pair, SPEC_MIXED, [(2.0,)], 100, 0)
    tracemalloc.start()
    try:
        estimate_steps(pair, SPEC_MIXED, [(2.0,)], n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole generation draw plus the blocks (1.26 * 8n measured); an
    # n-length demand draw next to it would add another 8n.
    assert peak < 1.5 * 8 * n


def test_shared_estimates_validate_inputs():
    with pytest.raises(ValueError, match="level lists"):
        estimate_steps(SHARED_PAIRS[:2], SPEC_MIXED, [(2.0,)], 100, 0)
    with pytest.raises(ValueError, match="storage window"):
        estimate_steps(SHARED_PAIRS[:1], SPEC_MIXED, [(0.0,)], 100, 0)
    assert estimate_steps([], SPEC_MIXED, [], 100, 0) == ()


# --- the sort path: a pair counted at many levels ---------------------------------

# Every family on each side, and each kind of draw set: a whole generation
# draw before a demand drawn by block, and a demand or a generation (against
# a deterministic demand) drawn alone, a block at a time.
SORT_PAIRS = [
    (LogNormal(0.1, 0.4), Weibull(2.0, 5.0)),
    (LogNormal(0.1, 0.4), LogNormal(-0.1, 0.6)),
    (Weibull(2.0, 5.0), LogNormal(0.0, 0.5)),
    (EMPIRICAL_A, Weibull(1.0, 0.5)),
    (EMPIRICAL_A, EMPIRICAL_B),
    (LogNormal(0.2, 0.8), EMPIRICAL_A),
    (Deterministic(1.5), EMPIRICAL_B),
    (Deterministic(1.5), LogNormal(0.0, 1.0)),
    (Deterministic(2.5), Weibull(1.2, 2.0)),
    (LogNormal(0.3, 0.7), Deterministic(0.5)),
    (Weibull(3.0, 1.5), Deterministic(1.0)),
    (EMPIRICAL_B, Deterministic(0.5)),
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
    assert shared[3][0].p_deficit == 1.0  # balance 0 on lo = 0 at level 0
    assert shared[3][-1].p_self == 1.0  # balance 0 on hi = 0 at level 5


@pytest.mark.parametrize("levels", [MANY_LEVELS, (2.0, 0.5)], ids=["sort", "compare"])
def test_nan_balances_count_as_neither_deficit_nor_overflow(levels):
    # exp(709 + z) overflows for z > 0.78, so some balances are inf - inf.
    huge = LogNormal(709.0, 1.0)
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    with np.errstate(over="ignore", invalid="ignore"):
        shared = _assert_matches_reference([(huge, huge)], SPEC_MIXED, levels, n, 2)
    for est in shared[0]:
        # Finite balances this large miss the window; NaNs are neither event.
        assert 0.03 < est.p_self < 0.07
        assert est.p_deficit > 0.3 and est.p_overflow > 0.3


def test_a_many_level_sweep_makes_no_per_level_passes(monkeypatch):
    counts = _count_calls(monkeypatch, np, "count_nonzero")
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    (rows,) = estimate_steps(
        [(Deterministic(2.0), FIG2_DEM)], SPEC_0_5, [np.linspace(0.0, 5.0, 51)], n, 3
    )
    assert len(rows) == 51
    assert counts[0] == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10's known sampler fault: b = g - d in floats rounds a "
    "generation below 2**-54 against demand 1 to b = -1, the deficit bound",
)
def test_a_vanishing_generation_is_not_counted_as_a_deficit():
    # Weibull(1, shape 0.05) puts 14.3% of its mass below 2**-54.  From level 1
    # in a [0, 5] store the deficit bound is B <= -1, which G - 1 > -1 never
    # reaches: the exact p_deficit (point_mass_balance) is 0.
    n = 20_000
    [[est]] = estimate_steps(
        [(Weibull(1.0, 0.05), Deterministic(1.0))], StorageSpec(0.0, 5.0, 0.0), [(1.0,)], n, 0
    )
    assert est.p_deficit <= 3.0 / n


# --- single trajectories: the seed contract -----------------------------------


def test_trajectory_of_balanced_deterministic_scenario_is_flat():
    scenario = parse_scenario(_flat_scenario_json(horizon=6, gen=1.0, dem=1.0))
    traj = simulate_ensemble(scenario, n=1, seed=0).realization
    assert np.all(traj.storage == 2.0)
    assert np.all(traj.spill == 0.0)
    assert np.all(traj.deficit == 0.0)
    assert np.array_equal(traj.generation - traj.demand, traj.balance)


def test_trajectory_is_reproducible_and_indexed(day24_scenario):
    paths = [contract_trajectory(day24_scenario, seed=11, index=i) for i in range(5)]
    again = contract_trajectory(day24_scenario, seed=11, index=3)
    assert np.array_equal(paths[3]["storage"], again["storage"])
    assert np.array_equal(paths[3]["generation"], again["generation"])
    assert not np.array_equal(paths[3]["generation"], paths[4]["generation"])
    # The ensemble of five holds exactly these trajectories.
    stats = simulate_ensemble(day24_scenario, n=5, seed=11)
    np.testing.assert_array_equal(stats.s_mean, np.mean([p["storage"] for p in paths], axis=0))
    np.testing.assert_array_equal(stats.b_mean, np.mean([p["balance"] for p in paths], axis=0))


def _assert_follows_the_seed_contract(scenario, seed, n):
    assert n > getattr(montecarlo, "ENSEMBLE_CHUNK", 0)  # spans several chunks
    expected = [contract_trajectory(scenario, seed, i) for i in range(n)]
    stats = simulate_ensemble(scenario, n=n, seed=seed)
    states = np.array([e["storage"] for e in expected])
    assert 0 < np.count_nonzero([e["spill"] for e in expected])
    assert 0 < np.count_nonzero([e["deficit"] for e in expected])
    np.testing.assert_array_equal(stats.s_mean, states.mean(axis=0))
    np.testing.assert_array_equal(
        stats.s_quantiles, np.quantile(states, montecarlo.QUANTILE_LEVELS, axis=0)
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
    traj = evolve(scenario.storage, g - d)
    for j, i in enumerate(CONTRACT_INDICES):
        expected = contract_trajectory(scenario, seed, i)
        np.testing.assert_array_equal(g[:, j], expected["generation"], err_msg=str(i))
        np.testing.assert_array_equal(d[:, j], expected["demand"], err_msg=str(i))
        for name in ("balance", "storage", "spill", "deficit"):
            got = getattr(traj, name)[:, j]
            np.testing.assert_array_equal(got, expected[name], err_msg=f"{i} {name}")


def test_negative_seed_or_index_is_refused():
    scenario = parse_scenario(_flat_scenario_json())
    with pytest.raises(ValueError, match=">= 0"):
        simulate_ensemble(scenario, n=1, seed=-1)
    with pytest.raises(ValueError, match=">= 0"):
        montecarlo._pcg64_states(0, [-1])


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
        paths = [contract_trajectory(scenario, seed, i) for i in range(max(ONE_BY_ONE_SIZES))]
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
        stats.s_quantiles, np.quantile(states, montecarlo.QUANTILE_LEVELS, axis=0)
    )
    for freq, key in ((stats.spill_freq, "spill"), (stats.deficit_freq, "deficit")):
        np.testing.assert_array_equal(freq, np.count_nonzero(paths[key][:n] > 0.0, axis=0) / n)
    for key, column in paths.items():
        np.testing.assert_array_equal(getattr(stats.realization, key), column[0], err_msg=key)


def test_trajectory_respects_storage_window(day24_scenario):
    spec = day24_scenario.storage
    paths = [contract_trajectory(day24_scenario, seed=5, index=index) for index in range(8)]
    traj = evolve(spec, np.stack([p["balance"] for p in paths], axis=1))
    np.testing.assert_array_equal(traj.storage.T, [p["storage"] for p in paths])
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
    assert stats.s_quantiles.shape == (len(montecarlo.QUANTILE_LEVELS), day24_scenario.horizon)
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


# --- a sweep: one pair at many levels ------------------------------------------

FIG2_PAIR = [(Deterministic(2.0), FIG2_DEM)]


def test_sweep_matches_single_estimates_exactly():
    levels = [0.0, 2.5, 5.0]
    (estimates,) = estimate_steps(FIG2_PAIR, SPEC_0_5, [levels], 10_000, 123)
    assert len(estimates) == len(levels)
    for level, estimate in zip(levels, estimates):
        assert estimate_steps(FIG2_PAIR, SPEC_0_5, [(level,)], 10_000, 123) == ((estimate,),)
        solo = estimate_reference(Deterministic(2.0), FIG2_DEM, SPEC_0_5, level, 10_000, 123)
        assert estimate == solo


def test_sweep_draws_its_demand_once_for_all_levels(monkeypatch):
    calls = _count_calls(monkeypatch, Weibull, "transform")
    (rows,) = estimate_steps(FIG2_PAIR, SPEC_0_5, [np.linspace(0.0, 5.0, 51)], 1000, 3)
    assert len(rows) == 51
    assert calls[0] == 1


def test_sweep_holds_no_n_length_array():
    levels = [np.linspace(0.0, 5.0, 51)]
    estimate_steps(FIG2_PAIR, SPEC_0_5, levels, 100, 0)
    peaks = []
    for n in (200_000, 800_000):
        tracemalloc.start()
        try:
            estimate_steps(FIG2_PAIR, SPEC_0_5, levels, n, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The demand is drawn a block at a time, so the peak is a few blocks
    # (0.42 MB measured) at any n; an n-length array would add 8n.
    assert max(peaks) < 4 * 8 * montecarlo.ESTIMATE_BLOCK
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05)


def test_sweep_analytic_columns_are_monotone():
    levels = np.linspace(0.0, 5.0, 11)
    closed = [weibull_closed_form(2.0, level, SPEC_0_5, FIG2_DEM) for level in levels]
    p_def = [t.p_deficit for t in closed]
    p_over = [t.p_overflow for t in closed]
    assert all(a >= b for a, b in zip(p_def, p_def[1:]))
    assert all(a <= b for a, b in zip(p_over, p_over[1:]))


def test_sweep_estimates_cover_analytics():
    levels = [0.0, 4.0, 5.0]
    (estimates,) = estimate_steps(FIG2_PAIR, SPEC_0_5, [levels], 100_000, 0)
    for level, mc in zip(levels, estimates, strict=True):
        analytic = weibull_closed_form(2.0, level, SPEC_0_5, FIG2_DEM)
        floor = 3.0 / mc.n
        assert abs(mc.p_deficit - analytic.p_deficit) <= max(mc.halfwidth(mc.p_deficit), floor)
        assert abs(mc.p_overflow - analytic.p_overflow) <= max(
            mc.halfwidth(mc.p_overflow), floor
        )


def test_sweep_rejects_empty_levels():
    # The one check of cli's sweep call that estimate_steps does not make
    # (an empty level list gives an empty tuple there); it goes with the call.
    with pytest.raises(ValueError):
        montecarlo.sweep_battery_levels(
            gen_value=2.0, dem=FIG2_DEM, storage=SPEC_0_5, levels=[], n=100, seed=0
        )
