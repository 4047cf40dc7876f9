"""Clamped storage recursion and trajectory bookkeeping.

The state update for one step with balance ``b`` is

    s_next = min(s_max, max(s_prev + b, s_min))

Energy pushed above ``s_max`` is recorded as ``spill``; energy that would
pull the state below ``s_min`` is recorded as ``deficit`` (unmet demand).
At most one of the two is nonzero per step, and the ledger identity

    s_next - s_prev == b - spill + deficit

holds up to floating-point rounding of the involved sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StorageSpec", "Trajectory", "evolve"]


@dataclass(frozen=True)
class StorageSpec:
    """Storage window ``[s_min, s_max]`` plus the initial fill ``s_init``.

    Levels are energies, so ``s_min`` must be >= 0 and the window must be
    nonempty (``s_max > s_min``).
    """

    s_min: float
    s_max: float
    s_init: float

    def __post_init__(self) -> None:
        s_min, s_max, s_init = (float(self.s_min), float(self.s_max), float(self.s_init))
        for name, v in (("s_min", s_min), ("s_max", s_max), ("s_init", s_init)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if s_min < 0.0:
            raise ValueError(f"storage requires s_min >= 0, got s_min={s_min}")
        if not s_max > s_min:
            raise ValueError(f"storage requires s_max > s_min, got s_min={s_min}, s_max={s_max}")
        object.__setattr__(self, "s_min", s_min)
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "s_init", self.check_level(s_init, "s_init"))

    def check_level(self, value: float, name: str = "s_prev") -> float:
        """Return ``value`` as a float; raise ``ValueError`` if it lies outside the window."""
        value = float(value)
        if not self.s_min <= value <= self.s_max:
            raise ValueError(
                f"{name}={value} lies outside the storage window [{self.s_min}, {self.s_max}]"
            )
        return value


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized paths: per-step balances, states, and ledger terms.

    ``storage[t]`` is the state after step ``t`` (0-based), starting from
    ``s_init`` before any step.  Arrays are ``(horizon,)`` for one path or
    ``(horizon, n)`` for ``n`` paths, so ``storage[t]`` is then the ``(n,)``
    states after step ``t``.  ``generation``/``demand`` are kept when the
    balances were formed from an explicit pair (``simulate_trajectory``,
    ``EnsembleStats.realization``).
    """

    s_init: float
    balance: np.ndarray
    storage: np.ndarray
    spill: np.ndarray
    deficit: np.ndarray
    generation: np.ndarray | None = None
    demand: np.ndarray | None = None


def evolve(spec: StorageSpec, balances: np.ndarray) -> Trajectory:
    """Run the recursion over whole balance sequences from ``spec.s_init``.

    ``balances`` is ``(horizon,)`` for one path or ``(horizon, n)`` for
    ``n`` paths, which advance together one step at a time.  Every path
    follows the scalar update of the module docstring exactly, signed zeros
    included.
    """
    b = np.asarray(balances, dtype=float)
    if b.ndim not in (1, 2) or b.size == 0:
        raise ValueError("balances must be a nonempty (horizon,) or (horizon, n) array")
    if not np.all(np.isfinite(b)):
        raise ValueError("balances must all be finite")

    # One path is a one-column block.  Each step adds into ``raw`` and clamps
    # into ``states``: np.clip keeps ``raw`` on a tie with a bound, as the
    # scalar min(s_max, max(raw, s_min)) does, so signed zeros come out as
    # the scalar update's.
    block = b.reshape(b.shape[0], -1)
    raw = np.empty_like(block)
    states = np.empty_like(block)
    s = spec.s_init
    for t in range(block.shape[0]):
        s = np.add(s, block[t], out=raw[t]).clip(spec.s_min, spec.s_max, out=states[t])
    spills = np.where(raw > spec.s_max, raw - spec.s_max, 0.0)
    deficits = np.where(spec.s_min > raw, spec.s_min - raw, 0.0)
    states, spills, deficits = (a.reshape(b.shape) for a in (states, spills, deficits))
    if not np.all((states >= spec.s_min) & (states <= spec.s_max)):
        raise ValueError(
            f"a state left the storage window [{spec.s_min}, {spec.s_max}]"
        )
    return Trajectory(
        s_init=spec.s_init,
        balance=b,
        storage=states,
        spill=spills,
        deficit=deficits,
    )
