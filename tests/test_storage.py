"""Clamped recursion: worked examples plus property tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochstore import StorageSpec, evolve

from conftest import evolve_one_step, step

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
    r = evolve_one_step(s_prev, b, SPEC_0_5)
    assert (r.s_next[0], r.spill[0], r.deficit[0]) == expected


@given(
    s_prev=st.floats(0.0, 5.0),
    b=finite_balances,
)
def test_step_invariants(s_prev, b):
    s_next, spill, deficit = (float(a[0]) for a in evolve_one_step(s_prev, b, SPEC_0_5))
    assert SPEC_0_5.s_min <= s_next <= SPEC_0_5.s_max
    assert spill >= 0.0 and deficit >= 0.0
    assert spill * deficit == 0.0
    if spill > 0.0:
        assert s_next == SPEC_0_5.s_max
    if deficit > 0.0:
        assert s_next == SPEC_0_5.s_min
    # Ledger identity, exact up to the rounding of the sums involved.
    scale = max(1.0, abs(s_prev), abs(b))
    assert abs((s_next - s_prev) - (b - spill + deficit)) <= 8 * np.finfo(float).eps * scale


@given(
    s1=st.floats(0.0, 5.0),
    s2=st.floats(0.0, 5.0),
    b1=st.floats(-50.0, 50.0),
    b2=st.floats(-50.0, 50.0),
)
def test_step_is_monotone_in_both_arguments(s1, s2, b1, b2):
    lo_s, hi_s = min(s1, s2), max(s1, s2)
    lo_b, hi_b = min(b1, b2), max(b1, b2)
    base, higher_level, higher_balance = evolve_one_step(
        [lo_s, hi_s, lo_s], [lo_b, lo_b, hi_b], SPEC_0_5
    ).s_next
    assert base <= higher_level
    assert base <= higher_balance


def test_step_rejects_bad_inputs():
    # A level enters as a store's s_init or through check_level (a grid
    # query's s_prev); a balance enters through evolve.
    for level in (-0.1, 5.1):
        with pytest.raises(ValueError, match="outside the storage window"):
            StorageSpec(0.0, 5.0, level)
        with pytest.raises(ValueError, match="outside the storage window"):
            SPEC_0_5.check_level(level)
    for b in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve(SPEC_0_5, np.array([2.0, b]))


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
    # Columns are independent paths; each must follow the scalar step()
    # reference bit for bit, including exact ties with the window edges.
    rng = np.random.default_rng(3)
    spec = StorageSpec(0.0, 5.0, 2.0)
    g = rng.exponential(3.0, size=(40, 64))
    d = rng.exponential(3.0, size=(40, 64))
    g[:, 0], d[:, 0] = [4.0, 0.0] * 20, [1.0, 5.0] * 20  # +3, -5: hits s_max, s_min exactly
    g[5, 1:4], d[5, 1:4] = [1e300, 0.0, 1.0], [0.0, 1e300, 1.0]
    balances = g - d
    traj = evolve(spec, balances)
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


# Signed zeros, and balances that land a [0, 5] store exactly on 0 and on 5.
TIE_BALANCES = (
    -0.0, 0.0, -0.0, -0.0, 5.0, -0.0, 0.0, -5.0, -0.0, -1.0, -0.0, 0.0,
    7.0, -0.0, -7.0, 2.5, 2.5, 2.5, -0.0, -2.5, -2.5, -0.0, -0.0, 0.0,
)


def _assert_bits_equal(got, want, msg):
    np.testing.assert_array_equal(got, want, err_msg=msg)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=f"{msg} signbit")


@pytest.mark.parametrize(
    "spec",
    [
        StorageSpec(-0.0, 5.0, -0.0),
        StorageSpec(0.0, 5.0, 0.0),
        StorageSpec(0.0, 5.0, -0.0),
        StorageSpec(-0.0, 5.0, 0.0),
    ],
    ids=lambda s: f"s_min={s.s_min!r},s_init={s.s_init!r}",
)
def test_evolve_keeps_steps_signed_zeros_and_ties_bit_for_bit(spec):
    # == cannot tell -0.0 from +0.0; every state, spill and deficit must
    # match step()'s sign bit too.  Columns are rotations of the sequence
    # and of its negation, 48 paths, so a vector loop's tail is covered.
    b = np.array(TIE_BALANCES)
    paths = np.stack([np.roll(sign * b, k) for sign in (1.0, -1.0) for k in range(len(b))], axis=1)
    cases = [b, paths, b[:1], paths[:1], *(np.array([x]) for x in (0.0, -0.0, 5.0, -5.0))]
    for balances in cases:
        traj = evolve(spec, balances)
        columns = balances.reshape(len(balances), -1)
        for j in range(columns.shape[1]):
            s, want = spec.s_init, []
            for x in columns[:, j]:
                r = step(s, x, spec)
                s = r.s_next
                want.append((r.s_next, r.spill, r.deficit))
            got = (traj.storage, traj.spill, traj.deficit)
            for name, g, w in zip(("storage", "spill", "deficit"), got, np.array(want).T):
                msg = f"{balances.shape} column {j} {name}"
                _assert_bits_equal(g.reshape(columns.shape)[:, j], w, msg)


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
