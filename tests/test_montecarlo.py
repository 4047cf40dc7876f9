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
    # special exponents 0.5 and 2, and a one-sample Empirical draws one
    # uniform like any other.
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
    """A user family of uniforms plus ``shift``: a plain dataclass, so unhashable."""

    shift: float
    primitive = "random"

    def transform(self, draws, out):
        return np.add(draws, self.shift, out=out)


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
    n = 200_000
    pairs = [(Empirical((float(k), k + 2.0)), Empirical((0.5 * k, 3.0))) for k in range(24)]
    estimate_steps(pairs[:1], SPEC_MIXED, [(2.0,)], 100, 0)
    tracemalloc.start()
    try:
        estimate_steps(pairs, SPEC_MIXED, [(2.0,)] * len(pairs), n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # All 24 pairs draw uniforms, so they share one draw set, drawn a block
    # at a time: the raw generation and demand draws, the generation and
    # balance blocks, the Empirical transform's indices and the candidate
    # buffers (5.86 blocks measured, 0.48 * 8n here).  An n-length draw or a
    # second draw set kept alive would add another 8n, 12 blocks.
    assert peak < 7 * 8 * montecarlo.ESTIMATE_BLOCK


def test_an_empirical_generation_holds_no_n_length_indices():
    n = 500_000
    pair = [(Empirical((0.5, 1.0, 2.5, 4.0, 7.0)), LogNormal(-0.1, 0.6))]
    estimate_steps(pair, SPEC_MIXED, [(2.0,)], 100, 0)
    tracemalloc.start()
    try:
        estimate_steps(pair, SPEC_MIXED, [(2.0,)], n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The blocks and the candidate buffers (5.66 blocks measured, 0.19 * 8n
    # here): the transform's indices are one block, where n choice indices
    # or an n-length draw would add another 8n, 30 blocks.
    assert peak < 7 * 8 * montecarlo.ESTIMATE_BLOCK


def test_a_one_sample_empirical_draws_one_uniform():
    # A one-sample Empirical takes one uniform per value like any other, so
    # the Weibull demand after it reads the second uniform of a trajectory's
    # stream, and the second n uniforms of an estimate's.
    one, seed, n = Empirical((2.0,)), 3, 1000
    rng, after = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(one.sample_n(rng, 4), np.full(4, 2.0))
    after.random(4)
    assert rng.bit_generator.state == after.bit_generator.state
    storage = {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0}
    pairs = [(empirical(2.0), weibull(2.0, 5.0))]
    scenario = parse_scenario(_pairs_scenario_json("one", pairs, storage))
    plan = montecarlo._draw_plan(scenario)
    assert plan[0] == [["random", 0, 2]]  # both uniforms in one call
    g, d = montecarlo._draw(plan, seed, [0, 5])
    np.testing.assert_array_equal(g, [[2.0, 2.0]])
    for i, value in zip([0, 5], d[0]):
        uniforms = np.random.default_rng((seed, i)).random(2)
        assert value == FIG2_DEM.transform(uniforms, uniforms)[1]
    uniforms = np.random.default_rng(seed).random(2 * n)
    b = 2.0 - FIG2_DEM.transform(uniforms[n:], uniforms[n:])
    ((est,),) = estimate_steps([(one, FIG2_DEM)], SPEC_0_5, [(0.0,)], n, seed)
    assert est.p_deficit == np.count_nonzero(b <= 0.0) / n > 0.0
    assert est.p_overflow == np.count_nonzero(b > 5.0) / n == 0.0


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
    # The blocks and the candidate buffers (4.78 blocks measured, 0.39 * 8n
    # here); an n-length draw of either side would add another 8n, 12 blocks.
    assert peak < 6 * 8 * montecarlo.ESTIMATE_BLOCK


def test_a_two_sided_draw_set_holds_no_n_length_array(day24_scenario):
    # validate's draw set on day24: a log-normal generation against 24
    # log-normal demands, at every step's s_init and step 1's 7 levels.
    # Each block draws its generation, then its demand, so the peak is a
    # few blocks at any n.
    storage = day24_scenario.storage
    pairs = [(spec.generation, spec.demand) for spec in day24_scenario.steps]
    level_lists = [(storage.s_init, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0)]
    level_lists += [(storage.s_init,)] * (len(pairs) - 1)
    estimate_steps(pairs, storage, level_lists, 100, 0)
    peaks = []
    for n in (200_000, 800_000):
        tracemalloc.start()
        try:
            estimate_steps(pairs, storage, level_lists, n, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4.93 blocks measured at both n, the candidate buffers' half block
    # among them; one n-length array would add 8n, 12 or 49 blocks.
    assert max(peaks) < 6 * 8 * montecarlo.ESTIMATE_BLOCK
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05)


def test_shared_estimates_validate_inputs():
    with pytest.raises(ValueError, match="level lists"):
        estimate_steps(SHARED_PAIRS[:2], SPEC_MIXED, [(2.0,)], 100, 0)
    with pytest.raises(ValueError, match="storage window"):
        estimate_steps(SHARED_PAIRS[:1], SPEC_MIXED, [(0.0,)], 100, 0)
    assert estimate_steps([], SPEC_MIXED, [], 100, 0) == ()


def test_a_pair_with_no_levels_draws_and_counts_nothing(monkeypatch):
    pair, n = (LogNormal(0.0, 1.0), LogNormal(0.0, 1.0)), 10**5
    storage = StorageSpec(0.0, 10.0, 5.0)
    calls = _count_calls(monkeypatch, LogNormal, "transform")
    assert estimate_steps([pair], storage, [()], n, 0) == ((),)
    assert calls[0] == 0
    # Next to a pair that is counted, it costs no transform either.
    (alone,) = estimate_steps([pair], storage, [(5.0,)], n, 0)
    transforms = calls[0]
    assert estimate_steps([pair, pair], storage, [(), (5.0,)], n, 0) == ((), alone)
    assert calls[0] == 2 * transforms


# --- the sort path: a pair counted at many levels ---------------------------------

# Every family on each side, and each kind of draw set: a generation and a
# demand that take turns by block, and a demand or a generation (against a
# deterministic demand) drawn alone, a block at a time.
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
# One-sided draw sets sort their raw draws whatever their levels; the
# crossover is the two-sided pairs'.
TWO_SIDED_SORT_PAIRS = [(g, d) for g, d in SORT_PAIRS if g.primitive and d.primitive]


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
    assert len(TWO_SIDED_SORT_PAIRS) == 6
    searches = _count_calls(monkeypatch, np, "searchsorted")
    estimate_steps(TWO_SIDED_SORT_PAIRS, SPEC_MIXED, [levels] * len(TWO_SIDED_SORT_PAIRS), n, 8)
    assert (searches[0] > 0) is sorts
    monkeypatch.undo()
    _assert_matches_reference(SORT_PAIRS, SPEC_MIXED, levels, n, 8)


@pytest.mark.parametrize("n_from_block", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_the_sort_path_matches_the_reference_at_block_edges(n_from_block):
    blocks, extra = n_from_block
    n = blocks * montecarlo.ESTIMATE_BLOCK + extra
    _assert_matches_reference(SORT_PAIRS, SPEC_MIXED, MANY_LEVELS, n, 23)


# In a [0, 5] store the window at level s is (-s, 5 - s]: these balances (0,
# 1, 2.5, 3, 5 and their negatives, -0.0 among them) land on its closed
# deficit edge or its open overflow edge at the listed levels.
EDGE_EMPIRICAL = Empirical((0.0, 1.0, 2.5, 3.0, 5.0))
EDGE_PAIRS = [
    (EDGE_EMPIRICAL, Deterministic(0.0)),
    (Deterministic(5.0), EDGE_EMPIRICAL),
    (Deterministic(-0.0), Empirical((0.0, 2.5))),
    (Deterministic(2.5), Deterministic(2.5)),
    (Deterministic(0.0), EDGE_EMPIRICAL),
]
EDGE_LEVELS = (0.0, 1.0, 2.5, 3.0, 5.0)


@pytest.mark.parametrize(
    "levels", [tuple(np.linspace(0.0, 5.0, 51)), EDGE_LEVELS], ids=["sort", "compare"]
)
def test_balances_on_window_edges_count_as_in_the_reference(levels):
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    shared = _assert_matches_reference(EDGE_PAIRS, SPEC_0_5, levels, n, 6)
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


# --- pruned pairs: only the draws that can reach an edge are counted ------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("extra_levels", [(), (2.0, 5.0, 8.0)], ids=["s_init", "levels-2-5-8"])
def test_validate_day24_pairs_transform_only_candidates(
    day24_scenario, extra_levels, seed, monkeypatch
):
    # validate's level lists: every step at s_init = 5 (in [0, 10]), and the
    # first also at --levels 2,5,8; no level is on an edge, so every pair is
    # pruned.
    storage = day24_scenario.storage
    pairs = [(spec.generation, spec.demand) for spec in day24_scenario.steps]
    level_lists = [(storage.s_init, *extra_levels)] + [(storage.s_init,)] * (len(pairs) - 1)
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    seen = {}
    transform = LogNormal.transform

    def spy(self, draws, out):
        seen[id(self)] = seen.get(id(self), 0) + draws.size
        return transform(self, draws, out)

    monkeypatch.setattr(LogNormal, "transform", spy)
    shared = estimate_steps(pairs, storage, level_lists, n, seed)
    monkeypatch.undo()
    for (gen, dem), levels, estimates in zip(pairs, level_lists, shared):
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, storage, level, n, seed)
    # At s_init a deficit needs a demand of 5 and an overflow a generation
    # above 5, a few percent of the draws.  Level 2 (a demand of 2) and level
    # 8 (a generation above 2) widen the shared candidates to about 23%.
    limit = n / 10 if not extra_levels else n / 4
    assert all(seen[id(dem)] < limit for _, dem in pairs)


SPEC_0_10 = StorageSpec(s_min=0.0, s_max=10.0, s_init=5.0)


def test_balances_on_a_pruned_pairs_edges_count_as_in_the_reference(monkeypatch):
    # At level 5 in [0, 10] the window is (-5, 5].  Each edge value is one
    # sample in ten, so a tenth or a fifth of a block is a candidate.
    tenth = lambda x, rest: Empirical((x,) + (rest,) * 9)
    pairs = [
        # 1 - 6 = -5 lies on lo (closed): a deficit a tenth of the time.
        (Deterministic(1.0), tenth(6.0, 0.5)),
        # 5 - 0 = 5 lies on hi (open): never an overflow.
        (Deterministic(5.0), Empirical((0.0, 1.0))),
        # The same from drawn generations, and 5.01 - 0 just past hi.
        (Empirical((1.0, 2.0)), tenth(6.0, 0.5)),
        (tenth(5.0, 1.0), Empirical((0.0, 0.5))),
        (tenth(5.01, 1.0), Empirical((0.0, 0.5))),
        # 5.5 - 0 > 5 a tenth of the time, with no demand near an edge.
        (Deterministic(5.5), tenth(0.0, 1.0)),
    ]
    one_sided, two_sided = [0, 1, 5], [2, 3, 4]
    lo, hi = np.array([-5.0]), np.array([5.0])
    # The two-sided pairs are pruned by their raw demand and generation
    # floors, and the one-sided ones (a deterministic generation) bracketed
    # in raw draws.
    last = [None] * 3, [None] * 3
    assert all(montecarlo._raw_floors(*pairs[k], lo, hi, last) is not None for k in two_sided)
    assert all(montecarlo._raw_bounds(*pairs[k], lo, hi) is not None for k in one_sided)
    values = {}
    transform = Empirical.transform

    def spy(self, draws, out):
        result = transform(self, draws, out)
        values.setdefault(id(self), []).append(result.copy())
        return result

    monkeypatch.setattr(Empirical, "transform", spy)
    n, seed = 2 * montecarlo.ESTIMATE_BLOCK + 3, 9
    shared = estimate_steps(pairs, SPEC_0_10, [(5.0,)] * len(pairs), n, seed)
    monkeypatch.undo()
    assert all(sum(map(len, values[id(pairs[k][1])])) < n / 4 for k in two_sided)
    # A one-sided pair transforms its bounds' probes once (at most a floor
    # and a ceiling for each of its two edges), and then only the draws
    # whose demand is on an edge: 6 (balance -5) and 0 (balance 5).
    for k, on_edge in zip(one_sided, ({6.0}, {0.0}, set())):
        probes, *counted = values[id(pairs[k][1])]
        assert len(probes) <= 4
        assert set(np.concatenate(counted or [np.empty(0)]).tolist()) == on_edge
    for (gen, dem), (est,) in zip(pairs, shared):
        assert est == estimate_reference(gen, dem, SPEC_0_10, 5.0, n, seed)
    assert 0.09 < shared[0][0].p_deficit < 0.11
    assert 0.04 < shared[2][0].p_deficit < 0.06
    assert 0.04 < shared[4][0].p_overflow < 0.06
    assert 0.09 < shared[5][0].p_overflow < 0.11
    for est in (shared[1][0], shared[3][0]):
        assert est.p_overflow == 0.0 and est.p_self == 1.0


# A demand of 5 or more (about 24.8% of Weibull(4.24, 2)) is a candidate at
# level 5 in [0, 10], so a block's candidates never share the quarter-block
# buffer with the next block's, and now and then a block is past a quarter.
_FLUSH_PAIRS = [
    (LogNormal(0.0, 0.5), Weibull(4.24, 2.0)),
    (LogNormal(0.1, 0.5), Weibull(3.0, 2.0)),
    # Level 0 is s_min, so this pair counts every block whole, transforming
    # its own generation, which no pruned pair shares.
    (LogNormal(0.0, 0.5), Weibull(2.0, 1.5)),
]
_FLUSH_LEVELS = [(5.0,), (5.0,), (5.0, 0.0)]


@pytest.mark.parametrize(
    "n",
    [montecarlo.ESTIMATE_BLOCK // 2 + 3, montecarlo.ESTIMATE_BLOCK, 5 * montecarlo.ESTIMATE_BLOCK + 7],
)
def test_estimates_match_the_reference_across_candidate_buffer_flushes(n, monkeypatch):
    block, seed = montecarlo.ESTIMATE_BLOCK, 11
    shares = []
    candidates = montecarlo._candidates

    def spy(floors, raw_g, raw_d, mask, room):
        idx = candidates(floors, raw_g, raw_d, mask, room)
        shares.append(None if idx is None else len(idx) / len(mask))
        return idx

    monkeypatch.setattr(montecarlo, "_candidates", spy)
    shared = estimate_steps(_FLUSH_PAIRS, SPEC_0_10, _FLUSH_LEVELS, n, seed)
    monkeypatch.undo()
    for (gen, dem), levels, estimates in zip(_FLUSH_PAIRS, _FLUSH_LEVELS, shared):
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, SPEC_0_10, level, n, seed)
    if n > block:
        # Blocks 1, 3 and 4 each find the buffer holding the block before
        # them and count it first; block 2, past a quarter, is counted whole
        # and leaves block 1's candidates in the buffer.
        full = shares[:5]
        assert full[2] is None
        assert all(1 / 8 < full[k] <= 1 / 4 for k in (0, 1, 3, 4))


def test_a_short_last_block_gathers_its_candidates_into_the_buffer(monkeypatch):
    # At seed 8 the last block's 7 draws hold 2 candidates, more than a
    # quarter of that block.  The cap is the buffers' room, a quarter of the
    # first block, so they join the buffer: the pruned pairs' demands are
    # never transformed at the last block's size, while the pair at s_min
    # counts each block whole, the last one too.
    block, seed = montecarlo.ESTIMATE_BLOCK, 8
    n = 5 * block + 7
    found, sizes = [], {}
    candidates, transform = montecarlo._candidates, Weibull.transform

    def candidates_spy(floors, raw_g, raw_d, mask, room):
        idx = candidates(floors, raw_g, raw_d, mask, room)
        found.append(None if idx is None else len(idx))
        return idx

    def transform_spy(self, draws, out):
        sizes.setdefault(id(self), []).append(draws.size)
        return transform(self, draws, out)

    monkeypatch.setattr(montecarlo, "_candidates", candidates_spy)
    monkeypatch.setattr(Weibull, "transform", transform_spy)
    shared = estimate_steps(_FLUSH_PAIRS, SPEC_0_10, _FLUSH_LEVELS, n, seed)
    monkeypatch.undo()
    assert found[-1] is not None and found[-1] > 7 // 4
    assert all(7 not in sizes[id(dem)] for _, dem in _FLUSH_PAIRS[:2])
    assert 7 in sizes[id(_FLUSH_PAIRS[2][1])]
    for (gen, dem), levels, estimates in zip(_FLUSH_PAIRS, _FLUSH_LEVELS, shared):
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, SPEC_0_10, level, n, seed)


def test_validate_day24_transforms_each_block_once_and_the_candidates_in_few_passes(
    day24_scenario, monkeypatch
):
    # validate's pairs and level lists at its default levels: step 1 is
    # counted whole (levels 0 and 10 are the window's ends), and steps 2-24
    # count their candidates, gathered over many blocks.
    storage = day24_scenario.storage
    pairs = [(spec.generation, spec.demand) for spec in day24_scenario.steps]
    level_lists = [(storage.s_init, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0)]
    level_lists += [(storage.s_init,)] * (len(pairs) - 1)
    n, block = 250_000, montecarlo.ESTIMATE_BLOCK
    blocks = -(-n // block)
    seen = []
    transform = LogNormal.transform

    def spy(self, draws, out):
        seen.append((self, draws.size))
        return transform(self, draws, out)

    monkeypatch.setattr(LogNormal, "transform", spy)
    estimate_steps(pairs, storage, level_lists, n, 0)
    monkeypatch.undo()
    # 24 floor checks (the 23 demands' and the generation's one), then per
    # block step 1's generation and demand; and a few passes over the
    # buffered candidates, each of the generation and the 23 demands.
    assert len(seen) <= 130
    gen = pairs[0][0]
    whole_block_sizes = (block, n - (blocks - 1) * block)
    assert sum(q == gen and size in whole_block_sizes for q, size in seen) == blocks
    assert sum(q is pairs[0][1] for q, _ in seen) == blocks


def _generation_transforms(monkeypatch, families, pairs, storage, levels, n, seed):
    """Estimate ``pairs`` at ``levels``; return each generation's transform
    sizes, keyed by equality, and ``_candidates``' per-block counts."""
    sizes, found = {}, []
    gens = {gen for gen, _ in pairs}
    candidates = montecarlo._candidates

    def candidates_spy(*args):
        idx = candidates(*args)
        found.append(None if idx is None else len(idx))
        return idx

    def spy(transform):
        def spied(self, draws, out):
            if self in gens:
                sizes.setdefault(self, []).append(draws.size)
            return transform(self, draws, out)

        return spied

    monkeypatch.setattr(montecarlo, "_candidates", candidates_spy)
    for family in families:
        monkeypatch.setattr(family, "transform", spy(family.transform))
    shared = estimate_steps(pairs, storage, [levels] * len(pairs), n, seed)
    monkeypatch.undo()
    for (gen, dem), estimates in zip(pairs, shared):
        for level, est in zip(levels, estimates):
            assert est == estimate_reference(gen, dem, storage, level, n, seed)
    return sizes, found


def _assert_generations_transform_probes_and_candidates(sizes, found, n):
    # Each generation's floor (day24's run of equal ones too) is probed
    # once, before any block.  Past that it is transformed only over the
    # buffered candidates (at most a buffer's room) and over the blocks
    # counted whole, once each.
    room = min(n, montecarlo.ESTIMATE_BLOCK) // 4
    for probe, *rest in sizes.values():
        assert probe == 1
        assert sum(size for size in rest if size <= room) == sum(filter(None, found))
        assert sum(size > room for size in rest) == found.count(None)


# Three distinct generations of one primitive (uniforms) against log-normal
# demands at level 5.  In [0, 10] the empirical's floor puts half the
# generation draws among the candidates, so each full block is counted
# whole; in [0, 15] an overflow needs a generation above 10, about 10% of
# Weibull(3, 0.7), and the candidates of about two blocks fill a buffer.
_MULTI_GEN_PAIRS = [
    (Weibull(1.5, 2.0), LogNormal(0.5, 0.6)),
    (Empirical((1.0, 5.5, 2.0, 7.5)), LogNormal(0.3, 0.8)),
    (Weibull(3.0, 0.7), LogNormal(0.0, 0.5)),
]


@pytest.mark.parametrize("s_max", [10.0, 15.0])
@pytest.mark.parametrize(
    "n",
    [montecarlo.ESTIMATE_BLOCK - 1, montecarlo.ESTIMATE_BLOCK + 1, 5 * montecarlo.ESTIMATE_BLOCK + 7],
)
def test_pruned_generations_are_transformed_only_over_their_candidates(s_max, n, monkeypatch):
    storage = StorageSpec(s_min=0.0, s_max=s_max, s_init=5.0)
    sizes, found = _generation_transforms(
        monkeypatch, (Weibull, Empirical), _MULTI_GEN_PAIRS, storage, (5.0,), n, 12
    )
    assert len(sizes) == 3
    _assert_generations_transform_probes_and_candidates(sizes, found, n)
    if s_max == 15.0:
        assert None not in found
        if n > 2 * montecarlo.ESTIMATE_BLOCK:  # the buffer is counted before the end too
            assert all(len(rest) > 1 for _, *rest in sizes.values())
    elif n > montecarlo.ESTIMATE_BLOCK:
        assert found[:-1] == [None] * (len(found) - 1)


def test_day24_at_s_init_transforms_its_generation_only_over_the_candidates(
    day24_scenario, monkeypatch
):
    # Every step is pruned at s_init; the 24 equal generations share one
    # probe and one transform per pass over the buffered candidates.
    storage = day24_scenario.storage
    pairs = [(spec.generation, spec.demand) for spec in day24_scenario.steps]
    n = 5 * montecarlo.ESTIMATE_BLOCK + 7
    sizes, found = _generation_transforms(
        monkeypatch, (LogNormal,), pairs, storage, (storage.s_init,), n, 3
    )
    assert len(sizes) == 1 and None not in found
    _assert_generations_transform_probes_and_candidates(sizes, found, n)


def test_floor_lookups_compare_each_quantity_with_its_sides_last_one(monkeypatch):
    # As in day24: equal generations (distinct objects) and distinct demands,
    # all pruned at level 5 in [0, 10].  Each lookup compares a quantity with
    # the last one looked up on its side, so a pair costs at most 2 ==.
    pairs = [(LogNormal(0.0, 0.5), LogNormal(0.001 * k, 0.5)) for k in range(200)]
    calls, looking_up = [0], [False]
    eq, raw_floors = LogNormal.__eq__, montecarlo._raw_floors

    def eq_spy(self, other):
        calls[0] += looking_up[0]
        return eq(self, other)

    def raw_floors_spy(*args):
        looking_up[0] = True
        try:
            return raw_floors(*args)
        finally:
            looking_up[0] = False

    monkeypatch.setattr(LogNormal, "__eq__", eq_spy)
    monkeypatch.setattr(montecarlo, "_raw_floors", raw_floors_spy)
    probes = _count_calls(monkeypatch, LogNormal, "transform")
    shared = estimate_steps(pairs, SPEC_0_10, [(5.0,)] * len(pairs), 1000, 5)
    monkeypatch.undo()
    assert calls[0] <= 2 * len(pairs)
    # Each demand and the run of generations are probed once, then
    # transformed once in the one counting pass.
    assert probes[0] == 2 * (len(pairs) + 1)
    for (gen, dem), (est,) in zip(pairs[::50], shared[::50]):
        assert est == estimate_reference(gen, dem, SPEC_0_10, 5.0, 1000, 5)


@pytest.mark.parametrize(
    "levels", [(0.0, 0.0, 1.0, 0.0), (0.0, -0.0, 2.5, 5.0, 2.5)], ids=["repeats", "signed-zero"]
)
def test_repeated_levels_are_counted_once(levels, monkeypatch):
    pairs = FIG2_PAIR + [(LogNormal(0.1, 0.4), Weibull(2.0, 5.0)), (EMPIRICAL_A, EMPIRICAL_B)]
    n, seed = 2 * montecarlo.ESTIMATE_BLOCK + 3, 4
    searched = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        searched.append(len(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    (fig2,) = estimate_steps(FIG2_PAIR, SPEC_0_5, [levels], n, seed)
    # One search per block, of a raw floor and a raw ceiling for each
    # distinct level's deficit and overflow edges.
    assert searched == [4 * len(set(levels))] * 3
    monkeypatch.undo()
    shared = _assert_matches_reference(pairs, SPEC_0_5, levels, n, seed)
    assert shared[0] == fig2


# --- one-sided draw sets: sorted raw draws, counted by bracket ----------------

# Each family drawn on either side against a deterministic other side, and
# two deterministic sides.  Weibull(1, 0.05) against demand 1 is ROADMAP item
# 4's pair: from level 1 its deficit edge splits the generation at 0, so its
# bracket holds every generation within 2e-9 of it.
ONE_SIDED_PAIRS = [
    (Weibull(2.0, 5.0), Deterministic(1.0)),
    (Deterministic(2.0), FIG2_DEM),
    (Weibull(1.0, 0.05), Deterministic(1.0)),
    (Deterministic(0.5), Weibull(1.0, 0.5)),
    (LogNormal(0.3, 0.7), Deterministic(0.5)),
    (Deterministic(1.5), LogNormal(0.0, 1.0)),
    (EMPIRICAL_A, Deterministic(0.5)),
    (Deterministic(2.5), EMPIRICAL_B),
    (Deterministic(2.0), Deterministic(0.5)),
] + EDGE_PAIRS
# s_min, s_max, interior levels, and the edge pairs' ties.
ONE_SIDED_LEVELS = (0.0, 1.0, 2.5, 3.0, 3.7, 5.0)


def _edges_of(storage, levels):
    distinct = np.unique(levels)
    return storage.s_min - distinct, storage.s_max - distinct


@pytest.mark.parametrize("n_from_block", [(0, 1), (0, 1000), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_one_sided_estimates_match_the_reference_across_block_edges(n_from_block):
    blocks, extra = n_from_block
    n = blocks * montecarlo.ESTIMATE_BLOCK + extra
    lo, hi = _edges_of(SPEC_0_5, ONE_SIDED_LEVELS)
    for gen, dem in ONE_SIDED_PAIRS:
        assert gen.primitive is None or dem.primitive is None
        # Every pair that draws is bracketed, none counted whole.
        if gen.primitive or dem.primitive:
            assert montecarlo._raw_bounds(gen, dem, lo, hi) is not None
    _assert_matches_reference(ONE_SIDED_PAIRS, SPEC_0_5, ONE_SIDED_LEVELS, n, 29)


def test_one_sided_estimates_match_the_reference_at_many_levels():
    n = 2 * montecarlo.ESTIMATE_BLOCK + 3
    levels = tuple(np.linspace(0.5, 4.0, 36))
    _assert_matches_reference(ONE_SIDED_PAIRS, SPEC_MIXED, levels, n, 31)


class _CeilingTooLow(Weibull):
    """A Weibull whose raw ceiling claims that every draw is above ``v``."""

    def raw_ceil(self, v):
        return np.zeros(np.shape(v))


_HUGE = StorageSpec(0.0, 1e308, 0.0)


@pytest.mark.parametrize(
    "pair, storage, levels",
    [
        ((Deterministic(2.0), _CeilingTooLow(2.0, 5.0)), SPEC_0_5, (0.0, 2.5, 4.0)),
        # Past SORT_ABOVE_LEVELS levels the whole blocks are sorted and searched.
        ((Deterministic(2.0), _CeilingTooLow(2.0, 5.0)), SPEC_0_5, tuple(np.linspace(0.0, 5.0, 12))),
        # Every value is exp(5): each edge's ceiling quotient is past the
        # float range (-inf, every draw above), which its probe refutes.
        ((LogNormal(5.0, 1e-310), Deterministic(1.0)), SPEC_0_5, (0.0, 2.5, 4.0)),
        # A family with no raw bounds: every edge's bracket holds every draw.
        ((_ShiftedUniform(1.0), Deterministic(0.5)), SPEC_0_5, (0.0, 2.5, 4.0)),
        # From level 1e308 the deficit edge is -1e308, so the demand's split
        # 1e308 - (-1e308) is past the float range: no bound, and no warning.
        ((Deterministic(1e308), FIG2_DEM), _HUGE, (0.0, 1e308)),
    ],
    ids=[
        "bound-fails-check",
        "bound-fails-check-12-levels",
        "ceiling-past-float-range",
        "no-bounds",
        "split-past-float-range",
    ],
)
def test_a_raw_bound_that_fails_its_check_counts_the_pair_whole(pair, storage, levels, monkeypatch):
    assert montecarlo._raw_bounds(*pair, *_edges_of(storage, levels)) is None
    drawn = pair[0] if pair[0].primitive else pair[1]
    sizes = []
    transform = type(drawn).transform

    def spy(self, draws, out):
        sizes.append(draws.size)
        return transform(self, draws, out)

    monkeypatch.setattr(type(drawn), "transform", spy)
    block = montecarlo.ESTIMATE_BLOCK
    n = 2 * block + 3
    estimate_steps([pair], storage, [levels], n, 12)
    monkeypatch.undo()
    # The probes of the bounds that were checked, then every block whole.
    assert sizes[-3:] == [block, block, 3] and len(sizes) <= 4
    _assert_matches_reference([pair], storage, levels, n, 12)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4's known sampler fault: b = g - d in floats rounds a "
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


def test_equal_empiricals_apart_in_a_zeros_sign_draw_their_own_values():
    # Empirical((-0.0, 1.0)) == Empirical((0.0, 1.0)), so one transform call
    # serves both sides; each value still equals the seed contract's, sign
    # bit and all.
    storage = {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0}
    pairs = [(empirical(-0.0, 1.0), empirical(0.0, 1.0))]
    scenario = parse_scenario(_pairs_scenario_json("zeros", pairs, storage))
    g, d = montecarlo._draw(montecarlo._draw_plan(scenario), 5, range(16))
    assert 0 < np.count_nonzero(g == 0.0) < 16
    for i in range(16):
        want = contract_trajectory(scenario, 5, i)
        for got, key in ((g[:, i], "generation"), (d[:, i], "demand")):
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want[key]), err_msg=key)
            np.testing.assert_array_equal(got, want[key], err_msg=key)


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


def _assert_numpys_quantiles(rows):
    rows = np.array(rows, dtype=float)
    expected = np.quantile(rows, montecarlo.QUANTILE_LEVELS, axis=1)
    got = montecarlo._quantiles(rows.copy())
    assert got.shape == expected.shape
    # Bytes, so that a signed zero must match too.
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 5.0, 0.0, 2.5, 5.0, 0.0, 5.0, 1.0], [5.0] * 6 + [0.0] * 2, [0.0] * 7 + [5.0]],
        [[3.25] * 8, [0.0] * 8, [-0.0] * 8],
        [[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0, 0.0], [-0.0, 0.0] * 4, [5.0, -0.0, 5.0, 0.0] * 2],
    ],
    ids=["ties_at_s_min_and_s_max", "constant", "signed_zeros"],
)
def test_step_quantiles_are_numpys_bit_for_bit(rows):
    _assert_numpys_quantiles(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_quantiles_of_one_to_three_states_are_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    _assert_numpys_quantiles(rng.choice([-0.0, 0.0, 0.5, 5.0], size=(64, n)))


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
    # sweep fig2_battery's draw set at --n 250000: the demand's raw draws are
    # sorted, and only those inside an edge's bracket are transformed, after
    # the one transform of the bounds' probes.  At seed 3 one draw is.
    seed, bracketed = 3, 1
    levels = np.linspace(0.0, 5.0, 51)
    edges, bounds = montecarlo._raw_bounds(*FIG2_PAIR[0], *_edges_of(SPEC_0_5, levels))
    floors, ceils = bounds[: len(edges)], bounds[len(edges) :]
    seen = []
    transform = Weibull.transform

    def spy(self, draws, out):
        seen.append(draws.copy())
        return transform(self, draws, out)

    monkeypatch.setattr(Weibull, "transform", spy)
    (rows,) = estimate_steps(FIG2_PAIR, SPEC_0_5, [levels], 250_000, seed)
    monkeypatch.undo()
    assert len(rows) == 51
    probes, *counted = seen
    assert len(probes) <= 2 * len(edges)
    assert sum(map(len, counted)) == bracketed
    for draws in counted:
        assert np.any((floors <= draws.min()) & (draws.max() < ceils))


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
    # (0.42 MB measured; no pair is pruned, so no candidate buffer) at any
    # n; an n-length array would add 8n.
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
