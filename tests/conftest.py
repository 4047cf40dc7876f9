from importlib import resources
from typing import NamedTuple

import numpy as np
import pytest

from stochstore import Scenario, StorageSpec, evolve, parse_scenario


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
