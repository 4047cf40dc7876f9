"""Seeded Monte Carlo: trajectory ensembles and frequency estimates.

This engine is the sampling oracle for the analytic (grid and closed
form) probability paths: it simulates scenarios trajectory by trajectory
and estimates event probabilities as frequencies with normal-approximation
confidence intervals (3 standard errors).

Reproducibility contract: trajectory ``i`` of a run seeded with ``seed``
draws from ``numpy.random.default_rng((seed, i))``, consuming generation
then demand per step, in step order.  Results are therefore deterministic
for a fixed (scenario, n, seed) under any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import BalanceQuery, ProbabilityTriple, weibull_closed_form
from .distributions import Deterministic, Distribution, Weibull
from .scenario import Scenario
from .storage import StorageSpec, Trajectory, evolve

__all__ = [
    "QUANTILE_LEVELS",
    "ProbabilityEstimate",
    "SelfSufficiencyEstimate",
    "EnsembleStats",
    "SweepRow",
    "simulate_trajectory",
    "simulate_ensemble",
    "estimate_self_sufficiency",
    "sweep_battery_levels",
]

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A frequency estimate with its 3-standard-error halfwidth."""

    p_hat: float
    ci_halfwidth: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat!r}")
        expected = 3.0 * math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n)
        if abs(self.ci_halfwidth - expected) > 1e-12:
            raise ValueError(
                f"ci_halfwidth {self.ci_halfwidth!r} does not match "
                f"3*sqrt(p(1-p)/n) = {expected!r}"
            )

    @classmethod
    def from_count(cls, count: int, n: int) -> "ProbabilityEstimate":
        p = count / n
        return cls(p_hat=p, ci_halfwidth=3.0 * math.sqrt(p * (1.0 - p) / n), n=n)


@dataclass(frozen=True)
class SelfSufficiencyEstimate:
    """Frequency estimates of the deficit / overflow / self triple.

    Built from one shared sample, so the three underlying counts
    partition ``n`` and the estimates sum to 1 exactly.
    """

    deficit: ProbabilityEstimate
    overflow: ProbabilityEstimate
    self_sufficient: ProbabilityEstimate

    @property
    def n(self) -> int:
        return self.deficit.n


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-step aggregates over an ensemble of simulated trajectories.

    Arrays are indexed by step (0-based); ``s_quantiles[j, t]`` is the
    ``quantile_levels[j]`` quantile of the storage state after step ``t``.
    """

    n_trajectories: int
    seed: int
    quantile_levels: tuple[float, ...]
    s_mean: np.ndarray
    s_quantiles: np.ndarray
    b_mean: np.ndarray
    spill_freq: np.ndarray
    deficit_freq: np.ndarray


# Trajectories drawn and evolved together by ``simulate_ensemble``.  Its
# working arrays are a few (horizon, ENSEMBLE_CHUNK) blocks next to the two
# (n, horizon) result matrices.
ENSEMBLE_CHUNK = 256


def _draw_plan(scenario: Scenario):
    """How one trajectory takes its draws, in contract order.

    Returns ``(quantities, rows, runs)``.  ``quantities`` lists generation
    then demand, step by step.  ``rows[k]`` is the row of the raw-draw block
    that holds quantity ``k``'s draws, or ``None`` for a Deterministic
    quantity, which draws nothing.  Each run ``(draw, start, stop)`` fills
    rows ``start:stop`` with one call ``draw(rng, stop - start)``: the draws
    of consecutive quantities sharing a primitive form one run; an Empirical
    draw is a run of its own.
    """
    quantities = [q for spec in scenario.steps for q in (spec.generation, spec.demand)]
    rows, runs = [], []
    last = None
    for q in quantities:
        if isinstance(q, Deterministic):
            rows.append(None)
            continue
        row = runs[-1][2] if runs else 0
        rows.append(row)
        if q.primitive is not None and q.primitive == last:
            runs[-1][2] += 1
        elif q.primitive is not None:
            runs.append([getattr(np.random.Generator, q.primitive), row, row + 1])
        else:
            runs.append([q.sample_n, row, row + 1])
        last = q.primitive
    return quantities, rows, runs


def _draw(plan, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Generation and demand of trajectories ``indices``, as ``(horizon, m)`` arrays."""
    quantities, rows, runs = plan
    m = len(indices)
    raw = np.empty((runs[-1][2] if runs else 0, m))
    for j, i in enumerate(indices):
        rng = np.random.default_rng((seed, i))
        for draw, start, stop in runs:
            raw[start:stop, j] = draw(rng, stop - start)
    values = np.empty((len(quantities), m))
    for k, (q, row) in enumerate(zip(quantities, rows)):
        if row is None:
            values[k] = q.value
        elif q.primitive is None:
            values[k] = raw[row]
        else:
            values[k] = q.transform(raw[row])
    return values[0::2], values[1::2]


def simulate_trajectory(scenario: Scenario, seed: int, index: int = 0) -> Trajectory:
    """Simulate trajectory ``index`` of the ensemble seeded with ``seed``."""
    g, d = _draw(_draw_plan(scenario), seed, [index])
    g, d = g[:, 0], d[:, 0]
    return evolve(scenario.storage, g - d, generation=g, demand=d)


def simulate_ensemble(scenario: Scenario, n: int, seed: int) -> EnsembleStats:
    """Aggregate ``n`` independent trajectories of the scenario.

    Trajectories are drawn and evolved ``ENSEMBLE_CHUNK`` at a time; each
    equals ``simulate_trajectory(scenario, seed, i)`` exactly.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    horizon = scenario.horizon
    plan = _draw_plan(scenario)
    states = np.empty((n, horizon))
    balances = np.empty((n, horizon))
    spill_counts = np.zeros(horizon)
    deficit_counts = np.zeros(horizon)
    for start in range(0, n, ENSEMBLE_CHUNK):
        stop = min(start + ENSEMBLE_CHUNK, n)
        g, d = _draw(plan, seed, range(start, stop))
        traj = evolve(scenario.storage, g - d, generation=g, demand=d)
        states[start:stop] = traj.storage.T
        balances[start:stop] = traj.balance.T
        spill_counts += np.count_nonzero(traj.spill > 0.0, axis=1)
        deficit_counts += np.count_nonzero(traj.deficit > 0.0, axis=1)
    # Means over the full matrices keep numpy's summation order, so the
    # statistics match aggregating the trajectories one by one bit for bit.
    b_mean = balances.mean(axis=0)
    del balances
    return EnsembleStats(
        n_trajectories=n,
        seed=int(seed),
        quantile_levels=QUANTILE_LEVELS,
        s_mean=states.mean(axis=0),
        s_quantiles=np.quantile(states, QUANTILE_LEVELS, axis=0),
        b_mean=b_mean,
        spill_freq=spill_counts / n,
        deficit_freq=deficit_counts / n,
    )


def estimate_self_sufficiency(
    gen: Distribution,
    dem: Distribution,
    storage: StorageSpec,
    s_prev: float,
    n: int,
    seed: int,
) -> SelfSufficiencyEstimate:
    """Estimate the step-probability triple at level ``s_prev`` by sampling.

    Counts ``n`` draws of ``B = G - D`` against the window
    ``(s_min - s_prev, s_max - s_prev]`` with the same boundary
    convention as the grid path (deficit closed, overflow open).  Any
    ``n >= 1`` is accepted; the confidence intervals are meaningful from
    roughly ``n >= 10**3`` upward.
    """
    query = BalanceQuery(s_prev=s_prev, storage=storage)
    n = int(n)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    b = gen.sample_n(rng, n) - dem.sample_n(rng, n)
    n_deficit = int(np.count_nonzero(b <= query.lo))
    n_overflow = int(np.count_nonzero(b > query.hi))
    return SelfSufficiencyEstimate(
        deficit=ProbabilityEstimate.from_count(n_deficit, n),
        overflow=ProbabilityEstimate.from_count(n_overflow, n),
        self_sufficient=ProbabilityEstimate.from_count(n - n_deficit - n_overflow, n),
    )


@dataclass(frozen=True)
class SweepRow:
    level: float
    analytic: ProbabilityTriple
    mc: SelfSufficiencyEstimate


def sweep_battery_levels(
    gen_value: float,
    dem: Weibull,
    storage: StorageSpec,
    levels,
    n: int,
    seed: int,
) -> tuple[SweepRow, ...]:
    """Pair the closed-form triple with an MC estimate at each level.

    Every level reuses the same ``seed`` (and Deterministic generation
    consumes no random state), so all rows share one demand sample: a
    single-level sweep reproduces ``estimate_self_sufficiency`` exactly,
    and across levels the comparison uses common random numbers.
    """
    levels = [float(s) for s in levels]
    if not levels:
        raise ValueError("levels must be a nonempty sequence")
    gen = Deterministic(gen_value)
    rows = []
    for level in levels:
        analytic = weibull_closed_form(gen_value, level, storage, dem)
        mc = estimate_self_sufficiency(gen, dem, storage, level, n, seed)
        rows.append(SweepRow(level=level, analytic=analytic, mc=mc))
    return tuple(rows)
