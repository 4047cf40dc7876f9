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

__all__ = ["StorageSpec", "StepResult", "Trajectory", "step", "evolve"]


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
        if not s_min <= s_init <= s_max:
            raise ValueError(
                f"s_init={s_init} lies outside the storage window [{s_min}, {s_max}]"
            )
        object.__setattr__(self, "s_min", s_min)
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "s_init", s_init)

    @property
    def capacity(self) -> float:
        return self.s_max - self.s_min


@dataclass(frozen=True)
class StepResult:
    s_next: float
    spill: float
    deficit: float


def step(s_prev: float, balance: float, spec: StorageSpec) -> StepResult:
    """Advance the storage state by one step.

    ``s_prev`` must already lie in the storage window and ``balance`` must
    be finite; both are checked.  This is the scalar reference that
    :func:`evolve` reproduces on whole arrays of paths.
    """
    s_prev = float(s_prev)
    balance = float(balance)
    if not spec.s_min <= s_prev <= spec.s_max:
        raise ValueError(
            f"s_prev={s_prev} lies outside the storage window [{spec.s_min}, {spec.s_max}]"
        )
    if not math.isfinite(balance):
        raise ValueError(f"balance must be finite, got {balance!r}")

    raw = s_prev + balance
    spill = max(0.0, raw - spec.s_max)
    deficit = max(0.0, spec.s_min - raw)
    s_next = min(spec.s_max, max(raw, spec.s_min))
    return StepResult(s_next=s_next, spill=spill, deficit=deficit)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized paths: per-step balances, states, and ledger terms.

    ``storage[t]`` is the state after step ``t`` (0-based), starting from
    ``s_init`` before any step.  Arrays are ``(horizon,)`` for one path or
    ``(horizon, n)`` for ``n`` paths, so ``storage[t]`` is then the ``(n,)``
    states after step ``t``.  ``generation``/``demand`` are kept when the
    balances were formed from an explicit pair.
    """

    s_init: float
    balance: np.ndarray
    storage: np.ndarray
    spill: np.ndarray
    deficit: np.ndarray
    generation: np.ndarray | None = None
    demand: np.ndarray | None = None

    def __len__(self) -> int:
        return self.balance.shape[0]


def evolve(
    spec: StorageSpec,
    balances: np.ndarray,
    generation: np.ndarray | None = None,
    demand: np.ndarray | None = None,
) -> Trajectory:
    """Run the recursion over whole balance sequences from ``spec.s_init``.

    ``balances`` is ``(horizon,)`` for one path or ``(horizon, n)`` for
    ``n`` paths, which advance together one step at a time.  Every path
    follows :func:`step` exactly.  When ``generation`` and ``demand`` are
    supplied they must reproduce ``balances`` exactly as
    ``generation - demand``.
    """
    b = np.asarray(balances, dtype=float)
    if b.ndim not in (1, 2) or b.size == 0:
        raise ValueError("balances must be a nonempty (horizon,) or (horizon, n) array")
    if not np.all(np.isfinite(b)):
        raise ValueError("balances must all be finite")
    if (generation is None) != (demand is None):
        raise ValueError("generation and demand must be supplied together")
    if generation is not None:
        g = np.asarray(generation, dtype=float)
        d = np.asarray(demand, dtype=float)
        if g.shape != b.shape or d.shape != b.shape:
            raise ValueError("generation/demand must match the balance sequence length")
        if not np.array_equal(g - d, b):
            raise ValueError("generation - demand does not reproduce the balance sequence")
    else:
        g = d = None

    states = np.empty_like(b)
    spills = np.empty_like(b)
    deficits = np.empty_like(b)
    s = np.full(b.shape[1:], spec.s_init)
    for t in range(b.shape[0]):
        # The selections reproduce step()'s min/max exactly, signed zeros included.
        raw = s + b[t]
        over = raw > spec.s_max
        under = spec.s_min > raw
        spills[t] = np.where(over, raw - spec.s_max, 0.0)
        deficits[t] = np.where(under, spec.s_min - raw, 0.0)
        s = np.where(over, spec.s_max, np.where(under, spec.s_min, raw))
        states[t] = s
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
        generation=g,
        demand=d,
    )
