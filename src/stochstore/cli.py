"""Command-line front end.

    stochstore simulate --scenario day24_lognormal --n 10000 --out run.csv
    stochstore analyze  --scenario fig2_battery --s-prev 0 --out probs.csv
    stochstore sweep    --scenario fig2_battery --out sweep.csv
    stochstore validate --scenario fig2_battery --n 1000000

``--scenario`` accepts either a path to a scenario file or the name of a
bundled fixture (``fig2_battery``, ``day24_lognormal``).

Exit codes: 0 success; 1 validation gate failure; 2 configuration error
(including an ``--n`` over the sample budget); 3 scenario error; 4 numeric
truncation budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .balance import (
    DEFAULT_CELLS,
    BalanceQuery,
    TruncationBudgetError,
    difference_density,
    discretize,
    self_sufficiency,
    weibull_closed_form,
)
from .distributions import Deterministic, Weibull
from .montecarlo import (
    QUANTILE_LEVELS,
    estimate_self_sufficiency,
    simulate_ensemble,
    simulate_trajectory,
    sweep_battery_levels,
)
from .scenario import (
    ResultTable,
    Scenario,
    ScenarioError,
    ScenarioInvariantError,
    parse_scenario,
    write_results,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "build_parser",
    "run_command",
    "run_simulate",
    "run_analyze",
    "run_sweep",
    "run_validate",
    "main",
    "entrypoint",
]

COMMANDS = ("simulate", "analyze", "sweep", "validate")

# Below this sample size the 3-sigma intervals are too wide to be a
# meaningful gate; validate still runs but flags the result.
VALIDATE_CAVEAT_N = 10_000

# Bytes of float64 samples one run may hold in a single array: simulate's
# (n, horizon) ensemble matrix, the n draws of each validate/sweep estimate.
# A larger --n is refused before anything is sampled.
MAX_SAMPLE_BYTES = 2**30


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one CLI run."""

    command: str
    scenario_path: str
    seed: int = 0
    n: int = 100_000
    output_path: str | None = None
    format: str = "csv"
    grid_cells: int = DEFAULT_CELLS
    s_prev: float | None = None
    levels: tuple[float, ...] | None = None
    step: int = 1

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.scenario_path:
            raise ConfigError("a scenario is required (--scenario)")
        if int(self.seed) < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if int(self.n) < 1:
            raise ConfigError(f"--n must be >= 1, got {self.n}")
        if int(self.grid_cells) < 2:
            raise ConfigError(f"--grid-cells must be >= 2, got {self.grid_cells}")
        if int(self.step) < 1:
            raise ConfigError(f"--step must be >= 1, got {self.step}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.format!r}")
        if self.command in ("simulate", "analyze", "sweep") and not self.output_path:
            raise ConfigError(f"{self.command} requires an output file (--out)")
        if self.command == "analyze" and self.s_prev is None:
            raise ConfigError("analyze requires a battery level (--s-prev)")
        if self.levels is not None:
            object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))


def _parse_levels_arg(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None
    if not levels:
        raise argparse.ArgumentTypeError("expected at least one level")
    return levels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochstore",
        description="Stochastic generation/demand/storage analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "simulate one seeded realization plus ensemble statistics",
        "analyze": "analytic (grid) step probabilities at a battery level",
        "sweep": "closed-form vs Monte Carlo triple across battery levels",
        "validate": "gate: analytic values must sit inside MC confidence intervals",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="bundled fixture name or scenario file path")
        p.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
        p.add_argument("--n", type=int, default=100_000, help="Monte Carlo sample count (default 100000)")
        p.add_argument("--out", help="output file path" + ("" if name == "validate" else " (required)"))
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument("--grid-cells", type=int, default=DEFAULT_CELLS, help="density grid resolution")
        p.add_argument("--s-prev", type=float, help="battery level before the step")
        p.add_argument("--levels", type=_parse_levels_arg, help="comma-separated battery levels")
        if name == "analyze":
            p.add_argument("--step", type=int, default=1, help="1-based step to analyze (default 1)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        scenario_path=args.scenario,
        seed=args.seed,
        n=args.n,
        output_path=args.out,
        format=args.format,
        grid_cells=args.grid_cells,
        s_prev=args.s_prev,
        levels=args.levels,
        step=getattr(args, "step", 1),
    )


def _load_scenario(config: RunConfig) -> Scenario:
    path = Path(config.scenario_path)
    if path.exists():
        return parse_scenario(path.read_text(encoding="utf-8"))
    name = config.scenario_path
    if "/" not in name and "\\" not in name and not name.endswith(".json"):
        bundled = resources.files(__package__) / "scenarios" / f"{name}.json"
        if bundled.is_file():
            return parse_scenario(bundled.read_text(encoding="utf-8"))
    raise ConfigError(f"scenario file not found: {config.scenario_path}")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _metadata(config: RunConfig, scenario: Scenario, **extra) -> dict:
    md = {
        "scenario": scenario.name,
        "seed": config.seed,
        "n": config.n,
        "version": __version__,
        "command": config.command,
        "energy_unit": scenario.energy_unit,
    }
    md.update(extra)
    return md


def _write_table(config: RunConfig, table: ResultTable, path: str | Path | None = None) -> Path:
    target = Path(path if path is not None else config.output_path)
    target.write_bytes(write_results(table, config.format))
    return target


def _check_window(storage, value: float, flag: str) -> float:
    value = float(value)
    if not storage.s_min <= value <= storage.s_max:
        raise ConfigError(
            f"{flag} {value:g} lies outside the storage window "
            f"[{storage.s_min:g}, {storage.s_max:g}]"
        )
    return value


def _check_sample_budget(config: RunConfig, values_per_sample: int) -> None:
    size = 8 * config.n * values_per_sample
    if size > MAX_SAMPLE_BYTES:
        raise ConfigError(
            f"--n {config.n} needs {size:.3g} bytes of samples "
            f"({values_per_sample} value(s) each); the limit is {MAX_SAMPLE_BYTES} bytes"
        )


def _balance_grid(step_spec, cells: int):
    return difference_density(
        discretize(step_spec.generation, cells),
        discretize(step_spec.demand, cells),
    )


# --- commands ----------------------------------------------------------------


def _run_simulate(config: RunConfig, scenario: Scenario) -> int:
    _check_sample_budget(config, scenario.horizon)
    traj = simulate_trajectory(scenario, config.seed, 0)
    stats = simulate_ensemble(scenario, config.n, config.seed)

    steps = range(1, scenario.horizon + 1)
    traj_table = ResultTable(
        columns=("step", "generation", "demand", "balance", "storage", "spill", "deficit"),
        rows=tuple(
            (
                t,
                float(traj.generation[t - 1]),
                float(traj.demand[t - 1]),
                float(traj.balance[t - 1]),
                float(traj.storage[t - 1]),
                float(traj.spill[t - 1]),
                float(traj.deficit[t - 1]),
            )
            for t in steps
        ),
        metadata=_metadata(config, scenario, s_init=scenario.storage.s_init, trajectory_index=0),
    )
    quantile_names = tuple(f"s_q{round(q * 100):02d}" for q in QUANTILE_LEVELS)
    ensemble_table = ResultTable(
        columns=("step", "s_mean", *quantile_names, "b_mean", "spill_freq", "deficit_freq"),
        rows=tuple(
            (
                t,
                float(stats.s_mean[t - 1]),
                *(float(stats.s_quantiles[j, t - 1]) for j in range(len(QUANTILE_LEVELS))),
                float(stats.b_mean[t - 1]),
                float(stats.spill_freq[t - 1]),
                float(stats.deficit_freq[t - 1]),
            )
            for t in steps
        ),
        metadata=_metadata(config, scenario, s_init=scenario.storage.s_init),
    )

    out = Path(config.output_path)
    ensemble_out = out.with_name(out.stem + "_ensemble" + out.suffix)
    _write_table(config, traj_table, out)
    _write_table(config, ensemble_table, ensemble_out)
    print(
        f"simulate {scenario.name}: {scenario.horizon} step(s), seed={config.seed}, "
        f"ensemble n={config.n}"
    )
    print(f"  realization -> {out}")
    print(f"  ensemble    -> {ensemble_out}")
    return 0


def _run_analyze(config: RunConfig, scenario: Scenario) -> int:
    if not 1 <= config.step <= scenario.horizon:
        raise ConfigError(
            f"--step must lie in [1, {scenario.horizon}] for this scenario, got {config.step}"
        )
    s_prev = _check_window(scenario.storage, config.s_prev, "--s-prev")
    b = _balance_grid(scenario.steps[config.step - 1], config.grid_cells)
    triple = self_sufficiency(b, BalanceQuery(s_prev=s_prev, storage=scenario.storage))

    table = ResultTable(
        columns=("step", "s_prev", "p_deficit", "p_overflow", "p_self", "p_not_self", "truncated_mass"),
        rows=(
            (
                config.step,
                s_prev,
                triple.p_deficit,
                triple.p_overflow,
                triple.p_self,
                1.0 - triple.p_self,
                b.truncated_mass,
            ),
        ),
        metadata=_metadata(config, scenario, grid_cells=config.grid_cells),
    )
    out = _write_table(config, table)
    print(f"analyze {scenario.name} step {config.step} at s_prev={s_prev:g}:")
    print(f"  p_deficit={triple.p_deficit:.6f}  p_overflow={triple.p_overflow:.6f}")
    print(
        f"  self-sufficient: p_self={triple.p_self:.6f}  "
        f"(not self-sufficient: 1-p_self={1.0 - triple.p_self:.6f})"
    )
    print(f"  truncated mass {b.truncated_mass:.3e} -> {out}")
    return 0


def _run_sweep(config: RunConfig, scenario: Scenario) -> int:
    _check_sample_budget(config, 1)
    step_spec = scenario.steps[0]
    if not isinstance(step_spec.generation, Deterministic) or not isinstance(
        step_spec.demand, Weibull
    ):
        raise ScenarioInvariantError(
            "scenario.steps[0]: sweep requires deterministic generation and "
            "weibull demand (the closed-form pairing)"
        )
    storage = scenario.storage
    if config.levels is not None:
        levels = tuple(_check_window(storage, v, "--levels entry") for v in config.levels)
    else:
        levels = tuple(float(v) for v in np.linspace(storage.s_min, storage.s_max, 51))

    rows = sweep_battery_levels(
        step_spec.generation.value, step_spec.demand, storage, levels, config.n, config.seed
    )
    table = ResultTable(
        columns=(
            "level",
            "p_A_analytic",
            "p_B_analytic",
            "p_self_analytic",
            "p_A_mc",
            "p_B_mc",
            "p_self_mc",
            "ci_halfwidth",
        ),
        rows=tuple(
            (
                row.level,
                row.analytic.p_deficit,
                row.analytic.p_overflow,
                row.analytic.p_self,
                row.mc.deficit.p_hat,
                row.mc.overflow.p_hat,
                row.mc.self_sufficient.p_hat,
                max(
                    row.mc.deficit.ci_halfwidth,
                    row.mc.overflow.ci_halfwidth,
                    row.mc.self_sufficient.ci_halfwidth,
                ),
            )
            for row in rows
        ),
        metadata=_metadata(config, scenario),
    )
    out = _write_table(config, table)
    first, last = rows[0], rows[-1]
    print(f"sweep {scenario.name}: {len(rows)} level(s), n={config.n}, seed={config.seed}")
    print(
        f"  level {first.level:g}: p_self={first.analytic.p_self:.6f} "
        f"(1-p_self={1.0 - first.analytic.p_self:.6f})"
    )
    print(
        f"  level {last.level:g}: p_self={last.analytic.p_self:.6f} "
        f"(1-p_self={1.0 - last.analytic.p_self:.6f})"
    )
    print(f"  table -> {out}")
    return 0


def _run_validate(config: RunConfig, scenario: Scenario) -> int:
    _check_sample_budget(config, 1)
    storage = scenario.storage
    s_init = storage.s_init
    # Frequency 0/1 gives a zero-width interval; a true probability may
    # still be (tiny but) nonzero, so checks never use a tolerance below
    # the rule-of-three bound 3/n.
    floor = 3.0 / config.n
    checks: list[tuple[str, str, float, float, float, bool]] = []

    def add_checks(source, analytic_triple, mc) -> None:
        for quantity, analytic, est in (
            ("p_deficit", analytic_triple.p_deficit, mc.deficit),
            ("p_overflow", analytic_triple.p_overflow, mc.overflow),
            ("p_self", analytic_triple.p_self, mc.self_sufficient),
        ):
            within = abs(analytic - est.p_hat) <= max(est.ci_halfwidth, floor)
            checks.append(
                (source, quantity, float(analytic), est.p_hat, est.ci_halfwidth, within)
            )

    # Every step, analytic grid vs MC, conditioned at the initial level.
    first_grid = None
    for t, step_spec in enumerate(scenario.steps, start=1):
        b = _balance_grid(step_spec, config.grid_cells)
        if first_grid is None:
            first_grid = b
        triple = self_sufficiency(b, BalanceQuery(s_prev=s_init, storage=storage))
        mc = estimate_self_sufficiency(
            step_spec.generation, step_spec.demand, storage, s_init, config.n, config.seed
        )
        add_checks(f"step[{t}] grid", triple, mc)

    # Battery-level sweep on the first step; closed form joins in when it
    # applies, checked against the same MC estimate as the grid.
    step_spec = scenario.steps[0]
    if config.levels is not None:
        levels = tuple(_check_window(storage, v, "--levels entry") for v in config.levels)
    else:
        levels = tuple(float(v) for v in np.linspace(storage.s_min, storage.s_max, 6))
    has_closed_form = isinstance(step_spec.generation, Deterministic) and isinstance(
        step_spec.demand, Weibull
    )
    for level in levels:
        mc = estimate_self_sufficiency(
            step_spec.generation, step_spec.demand, storage, level, config.n, config.seed
        )
        grid_triple = self_sufficiency(first_grid, BalanceQuery(s_prev=level, storage=storage))
        add_checks(f"level[{level:g}] grid", grid_triple, mc)
        if has_closed_form:
            closed = weibull_closed_form(step_spec.generation.value, level, storage, step_spec.demand)
            add_checks(f"level[{level:g}] closed_form", closed, mc)

    caveat = config.n < VALIDATE_CAVEAT_N
    failures = [c for c in checks if not c[5]]
    if config.output_path:
        table = ResultTable(
            columns=("source", "quantity", "analytic", "mc_p_hat", "ci_halfwidth", "within_ci"),
            rows=tuple(checks),
            metadata=_metadata(config, scenario, grid_cells=config.grid_cells, caveat=caveat),
        )
        out = _write_table(config, table)
        print(f"  report -> {out}")

    print(
        f"validate {scenario.name}: {len(checks) - len(failures)}/{len(checks)} analytic "
        f"values within MC confidence intervals (n={config.n}, seed={config.seed})"
    )
    if caveat:
        _diag(
            f"warning: n={config.n} < {VALIDATE_CAVEAT_N}: confidence intervals are too "
            f"wide for a meaningful gate (caveat recorded in the report)"
        )
    for source, quantity, analytic, p_hat, ci, _ in failures:
        print(
            f"  FAIL {source} {quantity}: analytic={analytic:.9g} "
            f"mc={p_hat:.9g} ci_halfwidth={ci:.3g}"
        )
    return 1 if failures else 0


_HANDLERS = {
    "simulate": _run_simulate,
    "analyze": _run_analyze,
    "sweep": _run_sweep,
    "validate": _run_validate,
}


def run_command(config: RunConfig) -> int:
    """Execute a configured run, mapping failures to the exit-code taxonomy."""
    try:
        scenario = _load_scenario(config)
        return _HANDLERS[config.command](config, scenario)
    except ConfigError as e:
        _diag(f"config error: {e}")
        return 2
    except ScenarioError as e:
        _diag(f"scenario error: {e}")
        return 3
    except TruncationBudgetError as e:
        _diag(f"numeric budget exceeded: {e}")
        return 4


def _run_as(command: str, config: RunConfig) -> int:
    if config.command != command:
        _diag(f"config error: expected a {command} config, got {config.command!r}")
        return 2
    return run_command(config)


def run_simulate(config: RunConfig) -> int:
    """Run the simulate command; returns the process exit code."""
    return _run_as("simulate", config)


def run_analyze(config: RunConfig) -> int:
    """Run the analyze command; returns the process exit code."""
    return _run_as("analyze", config)


def run_sweep(config: RunConfig) -> int:
    """Run the sweep command; returns the process exit code."""
    return _run_as("sweep", config)


def run_validate(config: RunConfig) -> int:
    """Run the validate command; returns the process exit code."""
    return _run_as("validate", config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as e:
        _diag(f"config error: {e}")
        return 2
    return run_command(config)


def entrypoint() -> None:
    sys.exit(main())
