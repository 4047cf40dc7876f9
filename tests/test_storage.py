"""Clamped recursion: worked examples plus property tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochstore import StorageSpec, evolve, step

SPEC_0_5 = StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)

finite_balances = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize(
    "s_prev,b,expected",
    [
        (2.0, 0.0, (2.0, 0.0, 0.0)),
        (4.0, 3.0, (5.0, 2.0, 0.0)),
        (1.0, -3.0, (0.0, 0.0, 2.0)),
    ],
)
def test_step_worked_examples(s_prev, b, expected):
    r = step(s_prev, b, SPEC_0_5)
    assert (r.s_next, r.spill, r.deficit) == expected


@given(
    s_prev=st.floats(0.0, 5.0),
    b=finite_balances,
)
def test_step_invariants(s_prev, b):
    r = step(s_prev, b, SPEC_0_5)
    assert SPEC_0_5.s_min <= r.s_next <= SPEC_0_5.s_max
    assert r.spill >= 0.0 and r.deficit >= 0.0
    assert r.spill * r.deficit == 0.0
    if r.spill > 0.0:
        assert r.s_next == SPEC_0_5.s_max
    if r.deficit > 0.0:
        assert r.s_next == SPEC_0_5.s_min
    # Ledger identity, exact up to the rounding of the sums involved.
    scale = max(1.0, abs(s_prev), abs(b))
    assert abs((r.s_next - s_prev) - (b - r.spill + r.deficit)) <= 8 * np.finfo(float).eps * scale


@given(
    s1=st.floats(0.0, 5.0),
    s2=st.floats(0.0, 5.0),
    b1=st.floats(-50.0, 50.0),
    b2=st.floats(-50.0, 50.0),
)
def test_step_is_monotone_in_both_arguments(s1, s2, b1, b2):
    lo_s, hi_s = min(s1, s2), max(s1, s2)
    lo_b, hi_b = min(b1, b2), max(b1, b2)
    assert step(lo_s, lo_b, SPEC_0_5).s_next <= step(hi_s, lo_b, SPEC_0_5).s_next
    assert step(lo_s, lo_b, SPEC_0_5).s_next <= step(lo_s, hi_b, SPEC_0_5).s_next


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step(-0.1, 0.0, SPEC_0_5)
    with pytest.raises(ValueError):
        step(5.1, 0.0, SPEC_0_5)
    with pytest.raises(ValueError):
        step(2.0, math.nan, SPEC_0_5)
    with pytest.raises(ValueError):
        step(2.0, math.inf, SPEC_0_5)


def test_evolve_zero_balances_holds_state():
    spec = StorageSpec(0.0, 5.0, 3.25)
    traj = evolve(spec, np.zeros(8))
    np.testing.assert_array_equal(traj.storage, np.full(8, 3.25))
    assert traj.spill.sum() == 0.0 and traj.deficit.sum() == 0.0


def test_evolve_double_clamp_example():
    traj = evolve(StorageSpec(0.0, 5.0, 0.0), np.array([10.0, -10.0]))
    np.testing.assert_array_equal(traj.storage, [5.0, 0.0])
    np.testing.assert_array_equal(traj.spill, [5.0, 0.0])
    np.testing.assert_array_equal(traj.deficit, [0.0, 5.0])


def test_evolve_matches_independent_scalar_recomputation():
    # Re-run the recursion with plain Python min/max as the oracle.
    rng = np.random.default_rng(42)
    balances = rng.normal(0.0, 2.0, size=1000)
    spec = StorageSpec(0.0, 5.0, 2.0)
    traj = evolve(spec, balances)

    s = spec.s_init
    for t, b in enumerate(balances):
        raw = s + b
        expected_spill = max(0.0, raw - spec.s_max)
        expected_deficit = max(0.0, spec.s_min - raw)
        s = min(spec.s_max, max(raw, spec.s_min))
        assert traj.storage[t] == s
        assert traj.spill[t] == expected_spill
        assert traj.deficit[t] == expected_deficit


def test_evolve_batch_matches_scalar_step_per_path():
    # Columns are independent paths; each must follow step() bit for bit,
    # including exact ties with the window edges.
    rng = np.random.default_rng(3)
    spec = StorageSpec(0.0, 5.0, 2.0)
    g = rng.exponential(3.0, size=(40, 64))
    d = rng.exponential(3.0, size=(40, 64))
    g[:, 0], d[:, 0] = [4.0, 0.0] * 20, [1.0, 5.0] * 20  # +3, -5: hits s_max, s_min exactly
    g[5, 1:4], d[5, 1:4] = [1e300, 0.0, 1.0], [0.0, 1e300, 1.0]
    balances = g - d
    traj = evolve(spec, balances, generation=g, demand=d)
    assert len(traj) == 40
    assert traj.storage.shape == traj.spill.shape == traj.deficit.shape == (40, 64)
    for j in range(64):
        s = spec.s_init
        for t in range(40):
            r = step(s, balances[t, j], spec)
            s = r.s_next
            assert (traj.storage[t, j], traj.spill[t, j], traj.deficit[t, j]) == (
                r.s_next,
                r.spill,
                r.deficit,
            )
        np.testing.assert_array_equal(evolve(spec, balances[:, j]).storage, traj.storage[:, j])


def test_evolve_composes_across_a_split():
    rng = np.random.default_rng(7)
    balances = rng.normal(0.0, 3.0, size=200)
    spec = StorageSpec(0.0, 5.0, 1.0)
    whole = evolve(spec, balances)

    head = evolve(spec, balances[:120])
    tail_spec = StorageSpec(spec.s_min, spec.s_max, head.storage[-1])
    tail = evolve(tail_spec, balances[120:])
    np.testing.assert_array_equal(whole.storage, np.concatenate([head.storage, tail.storage]))
    np.testing.assert_array_equal(whole.spill, np.concatenate([head.spill, tail.spill]))
    np.testing.assert_array_equal(whole.deficit, np.concatenate([head.deficit, tail.deficit]))


def test_evolve_keeps_consistent_generation_and_demand():
    g = np.array([2.0, 1.0, 0.5])
    d = np.array([1.0, 3.0, 0.5])
    traj = evolve(SPEC_0_5, g - d, generation=g, demand=d)
    np.testing.assert_array_equal(traj.generation, g)
    np.testing.assert_array_equal(traj.demand, d)
    assert len(traj) == 3

    with pytest.raises(ValueError):
        evolve(SPEC_0_5, g - d + 1e-9, generation=g, demand=d)
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, g - d, generation=g)
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, g - d, generation=g, demand=d[:2])


def test_evolve_rejects_bad_balance_sequences():
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, np.array([]))
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, np.ones((0, 3)))
    with pytest.raises(ValueError):
        evolve(SPEC_0_5, np.array([[1.0, 2.0], [math.inf, 0.0]]))


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(s_min=-1.0, s_max=5.0, s_init=0.0), "s_min >= 0"),
        (dict(s_min=5.0, s_max=5.0, s_init=5.0), "s_max > s_min"),
        (dict(s_min=0.0, s_max=5.0, s_init=5.5), "outside the storage window"),
        (dict(s_min=0.0, s_max=math.inf, s_init=1.0), "finite"),
    ],
)
def test_storage_spec_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        StorageSpec(**kwargs)


def test_storage_spec_capacity():
    assert StorageSpec(1.0, 5.0, 2.0).capacity == 4.0
