from importlib import resources
from typing import NamedTuple

import numpy as np
import pytest

import stochstore.distributions as dist

from stochstore import (
    DensityGrid,
    Scenario,
    SelfSufficiencyEstimate,
    StorageSpec,
    evolve,
    parse_scenario,
)


def grid_from_masses(origin: float, step: float, masses) -> DensityGrid:
    """The grid with cell masses ``masses``: its cumulative masses are their running sum from 0."""
    return DensityGrid(origin, step, np.append(0.0, np.cumsum(masses)))


def read_fixture_text(name: str) -> str:
    return (resources.files("stochstore") / "scenarios" / f"{name}.json").read_text(
        encoding="utf-8"
    )


@pytest.fixture(scope="session")
def fig2_scenario() -> Scenario:
    return parse_scenario(read_fixture_text("fig2_battery"))


@pytest.fixture(scope="session")
def day24_scenario() -> Scenario:
    return parse_scenario(read_fixture_text("day24_lognormal"))


class StepResult(NamedTuple):
    s_next: float
    spill: float
    deficit: float


def step(s_prev: float, balance: float, spec: StorageSpec) -> StepResult:
    """One step of the recursion in plain Python: the scalar reference for ``evolve``."""
    raw = s_prev + balance
    spill = max(0.0, raw - spec.s_max)
    deficit = max(0.0, spec.s_min - raw)
    return StepResult(min(spec.s_max, max(raw, spec.s_min)), spill, deficit)


def evolve_one_step(s_prev, balance, spec: StorageSpec) -> StepResult:
    """One step of ``evolve`` from each level ``s_prev``, as arrays.

    ``evolve`` starts every path at ``s_init``, so it runs a ``(2, n)`` block
    from ``s_init = s_min`` whose first balance is ``s_prev - s_min``: with
    ``s_min = 0`` it lands on ``s_prev`` exactly, and the second row is the
    step under test.
    """
    s_prev, balance = np.broadcast_arrays(np.asarray(s_prev, float), np.asarray(balance, float))
    start = StorageSpec(spec.s_min, spec.s_max, spec.s_min)
    traj = evolve(start, np.stack([s_prev.ravel() - spec.s_min, balance.ravel()]))
    np.testing.assert_array_equal(traj.storage[0], s_prev.ravel())
    return StepResult(traj.storage[1], traj.spill[1], traj.deficit[1])


def contract_trajectory(scenario, seed, index):
    """The seed contract's trajectory ``index``: the reference for ``simulate_ensemble``.

    One ``sample_n(rng, 1)`` per quantity, generation then demand in step
    order, from ``default_rng((seed, index))``; then the scalar ``step``.
    Returns each path (``generation``, ``demand``, ``balance``, ``storage``,
    ``spill``, ``deficit``) under its ``Trajectory`` field name.
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


# Values per block of the estimate contract, which each block draws as its
# generation and then its demand.  Written out here, not read from
# ``montecarlo``, so that the reference stays independent of it.
ESTIMATE_BLOCK = 16384


def estimate_reference(gen, dem, storage: StorageSpec, s_prev: float, n: int, seed: int):
    """The block-by-block frequency estimate: the bit-identity reference for ``estimate_steps``.

    For each block of ``ESTIMATE_BLOCK`` values (the last one shorter),
    draws the generation's and then the demand's values with ``sample_n``
    from ``default_rng(seed)``; then counts the whole sample's balance
    against the window of ``s_prev`` (deficit closed, overflow open).
    """
    s_prev = storage.check_level(s_prev)
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, n, ESTIMATE_BLOCK):
        size = min(ESTIMATE_BLOCK, n - start)
        g = gen.sample_n(rng, size)
        blocks.append(g - dem.sample_n(rng, size))
    b = np.concatenate(blocks)
    n_deficit = int(np.count_nonzero(b <= storage.s_min - s_prev))
    n_overflow = int(np.count_nonzero(b > storage.s_max - s_prev))
    return SelfSufficiencyEstimate(
        p_deficit=n_deficit / n,
        p_overflow=n_overflow / n,
        p_self=(n - n_deficit - n_overflow) / n,
        n=n,
    )


def rational_reference(num: tuple, den: tuple, t: np.ndarray) -> np.ndarray:
    """Cody's nested ratio as a literal Horner loop: the bit-identity reference for ``_rational``.

    The numerator starts at ``num[-1] * t`` and the denominator at ``t``;
    each takes one coefficient and one factor of ``t`` per round, and
    ``num[-2]`` and ``den[-1]`` close them.
    """
    xnum, xden = num[-1] * t, t.copy()
    for a, b in zip(num[:-2], den[:-1]):
        xnum = (xnum + a) * t
        xden = (xden + b) * t
    return (xnum + num[-2]) / (xden + den[-1])


def normal_cdf_reference(z) -> np.ndarray:
    """The gather-and-scatter normal cdf: the bit-identity reference for ``_normal_cdf``.

    Each branch of Cody's erf/erfc runs only on the elements it serves.
    """
    x = np.asarray(z, dtype=float) / dist._SQRT2
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= dist._ERF_SMALL
    x_small = x[small]
    erf_ratio = rational_reference(dist._ERF_A, dist._ERF_B, x_small * x_small)
    out[small] = 0.5 * (1.0 + x_small * erf_ratio)
    large = ~small
    half_erfc = 0.5 * _erfc_reference(y[large])
    out[large] = np.where(x[large] < 0.0, half_erfc, 1.0 - half_erfc)
    return out


def _erfc_reference(y: np.ndarray) -> np.ndarray:
    y = np.minimum(y, dist._ERFC_ZERO)
    out = np.empty_like(y)
    mid = y <= dist._ERFC_MID
    out[mid] = rational_reference(dist._ERFC_C, dist._ERFC_D, y[mid])
    tail = ~mid
    y_tail = y[tail]
    inv_sq = 1.0 / (y_tail * y_tail)
    tail_ratio = rational_reference(dist._ERFC_P, dist._ERFC_Q, inv_sq)
    out[tail] = (dist._INV_SQRT_PI - inv_sq * tail_ratio) / y_tail
    y16 = np.trunc(y * 16.0) / 16.0
    out *= np.exp(-y16 * y16) * np.exp(-(y - y16) * (y + y16))
    out[y == dist._ERFC_ZERO] = 0.0
    return out
