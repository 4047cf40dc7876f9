"""The benchmark's workloads: the CLI commands one pass runs, made from a seed.

grid_day24_fine
    ``analyze`` on each of the 24 steps of ``day24_lognormal`` at 16384 grid
    cells from ``s_init``, in an order drawn from the seed.  The analytic
    route (discretize, difference_density, window query) does the work; the
    Monte Carlo route is bypassed.
mc_day24_ensemble
    ``simulate day24_lognormal`` a hundred times at n = 100 with seeds drawn
    from the workload seed: 10^4 trajectories per pass.  Per-trajectory
    sampling and the storage recursion do the work; the grid is bypassed.
gate_fixtures
    ``validate`` on both fixtures and ``sweep fig2_battery``, each at four
    seeds with n = 2.5 * 10^5: 10^6 draws per estimate per pass, in large
    batches, plus default-size convolutions, window queries and the closed
    form, in an order drawn from the seed.

The seed also becomes the first command's ``--seed``; the others are drawn
from it.  Each workload's amount of work does not depend on the seed, so
the per-layer counts repeat exactly.  Commands are kept short (well under a
second, ~25 ms on ``mc_day24_ensemble``) so that each is timed many times in
a run (see ``run.fastest_pass_s``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FINE_CELLS = 16384
ENSEMBLE_N = 100
ENSEMBLE_RUNS = 100
GATE_N = 250_000
GATE_RUNS = 4
DAY24 = "day24_lognormal"
FIG2 = "fig2_battery"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str
    scenario: str
    seed: int
    out: str
    n: int | None = None
    step: int | None = None
    grid_cells: int | None = None
    s_prev: float | None = None

    @property
    def work(self) -> tuple:
        """What the command computes, leaving out its seed and output file."""
        return (self.kind, self.scenario, self.n, self.step, self.grid_cells, self.s_prev)

    def argv(self, outdir) -> list[str]:
        argv = [self.kind, "--scenario", self.scenario, "--seed", str(self.seed)]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.step is not None:
            argv += ["--step", str(self.step)]
        if self.grid_cells is not None:
            argv += ["--grid-cells", str(self.grid_cells)]
        if self.s_prev is not None:
            argv += ["--s-prev", repr(self.s_prev)]
        return argv + ["--out", str(outdir / self.out)]


def grid_day24_fine(seed: int, reference: dict) -> list[Command]:
    fixture = reference["fixtures"][DAY24]
    steps = list(range(1, fixture["horizon"] + 1))
    random.Random(seed).shuffle(steps)
    s_init = fixture["s_init"]
    return [
        Command("analyze", DAY24, seed, f"analyze_{t}.csv", step=t, grid_cells=FINE_CELLS, s_prev=s_init)
        for t in steps
    ]


def _seeds(seed: int, count: int) -> list[int]:
    return [seed, *random.Random(seed).sample(range(10**6), count - 1)]


def mc_day24_ensemble(seed: int, reference: dict) -> list[Command]:
    return [
        Command("simulate", DAY24, s, f"simulate_{i}.csv", n=ENSEMBLE_N)
        for i, s in enumerate(_seeds(seed, ENSEMBLE_RUNS))
    ]


def gate_fixtures(seed: int, reference: dict) -> list[Command]:
    commands = []
    for i, s in enumerate(_seeds(seed, GATE_RUNS)):
        commands += [
            Command("validate", FIG2, s, f"validate_fig2_{i}.csv", n=GATE_N),
            Command("validate", DAY24, s, f"validate_day24_{i}.csv", n=GATE_N),
            Command("sweep", FIG2, s, f"sweep_{i}.csv", n=GATE_N),
        ]
    random.Random(seed).shuffle(commands)
    return commands


# The user-facing rate each workload delivers, reported as work_per_s.
WORK_METRIC = {
    "grid_day24_fine": "grid_steps_per_s",
    "mc_day24_ensemble": "trajectories_per_s",
    "gate_fixtures": "mc_samples_per_s",
}

WORKLOADS = {
    "grid_day24_fine": grid_day24_fine,
    "mc_day24_ensemble": mc_day24_ensemble,
    "gate_fixtures": gate_fixtures,
}
