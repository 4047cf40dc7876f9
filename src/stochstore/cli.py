"""Command-line front end.

    stochstore simulate --scenario day24_lognormal --n 10000 --out run.csv
    stochstore analyze  --scenario fig2_battery --s-prev 0 --out probs.csv
    stochstore sweep    --scenario fig2_battery --out sweep.csv
    stochstore validate --scenario fig2_battery --n 1000000

``--scenario`` accepts either a path to a scenario file or the name of a
bundled fixture (``fig2_battery``, ``day24_lognormal``).

Exit codes: 0 success; 1 validation gate failure; 2 configuration error
(including an ``--n`` over the sample budget, a ``--grid-cells`` over
``MAX_GRID_CELLS``, a balance grid over ``balance.MAX_BALANCE_CELLS``, a
continuous input whose cells hold less than ``1 - MASS_TRUNCATION_BUDGET``
of its mass, an unreadable scenario and an unwritable or directory output
path); 3 scenario error; 4 numeric truncation budget exceeded.  A closed
stdout is none of these: the command keeps its own exit code.

This is the one module where the routes meet.  Each route is one function
of the same shape, a triple per (step, level): ``_grid`` for the grid,
``_closed_form`` for the closed form and the sampler's ``estimate_steps``
for Monte Carlo.  ``analyze``, ``sweep`` and ``validate`` build their rows
from them as tables.

``main(argv)`` is the one programmatic entry: it returns the exit code, and
an argument error (an unknown command or flag, a bad ``--format``) raises
``SystemExit(2)`` from argparse.  The parser states each flag, its default
and its help text; ``run_command`` makes the checks argparse cannot.
``main`` builds the parser on the first call and reuses it in the process.
On glibc the first call also keeps freed memory for reuse in the process
(``_retain_freed_memory``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import os
import stat
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .balance import (
    DEFAULT_CELLS,
    CellBudgetError,
    TruncationBudgetError,
    difference_density,
    discretize,
    point_mass_balance,
    self_sufficiency,
    weibull_closed_form,
)
from .distributions import Deterministic, Weibull
from .montecarlo import QUANTILE_LEVELS, estimate_steps, simulate_ensemble, sweep_battery_levels
from .scenario import (
    ResultTable,
    Scenario,
    ScenarioError,
    ScenarioInvariantError,
    load_scenario,
    write_results,
)

__all__ = ["ConfigError", "main", "entrypoint"]

# Below this sample size the 3-sigma intervals are too wide to be a
# meaningful gate; validate still runs but flags the result.
VALIDATE_CAVEAT_N = 10_000

# Bytes of float64 samples one run may hold in a single array: simulate's
# (n, horizon) ensemble matrix.  validate and sweep draw n float64 values
# per side (Empirical too) but hold them a block at a time and no n-length
# array, so for them the budget bounds run time, not memory.  A larger --n
# is refused before anything is sampled.
MAX_SAMPLE_BYTES = 2**30

# Largest --grid-cells.  The grid route grows about linearly (one array cdf
# call per grid, a resample, a few dot products per query): analyze day24
# --step 12 takes ~1.4 ms at 2**14 cells and ~4.1 ms at 2**16 (best of 300
# in-process runs, 2-vCPU Xeon VM).  The cap refuses sizes that would exhaust
# memory (10**11 cells) before any array is allocated.
MAX_GRID_CELLS = 2**16

# glibc's mallopt parameter numbers (malloc.h).  Setting either one turns off
# glibc's adaptive thresholds, which follow the largest block freed so far.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# Largest block served from the heap, glibc's ceiling on 64-bit: above every
# array of a default grid step and every block of Monte Carlo draws.
_MMAP_THRESHOLD = 32 * 2**20
# Free memory kept at the top of the heap: twice the above, glibc's own ratio.
_TRIM_THRESHOLD = 64 * 2**20


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _parse_levels_arg(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        ) from None
    return levels


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one statement of each flag, its default and its help text."""
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
    # Each command takes only the flags it reads, so an unused flag is an error.
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="bundled fixture name or scenario file path")
        p.add_argument("--seed", type=int, default=0,
                       help="master random seed (default %(default)s)")
        p.add_argument("--n", type=int, default=100_000,
                       help="Monte Carlo sample count (default %(default)s)")
        p.add_argument("--out",
                       help="output file path" + ("" if name == "validate" else " (required)"))
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default %(default)s)")
        if name in ("analyze", "validate"):
            p.add_argument("--grid-cells", type=int, default=DEFAULT_CELLS,
                           help="grid resolution of continuous pairs (default %(default)s)")
        if name == "analyze":
            p.add_argument("--s-prev", type=float,
                           help="battery level before the step (required)")
            p.add_argument("--step", type=int, default=1,
                           help="1-based step to analyze (default %(default)s)")
        if name in ("sweep", "validate"):
            p.add_argument("--levels", type=_parse_levels_arg, help="comma-separated battery levels")
    return parser


@functools.cache
def _retain_freed_memory() -> None:
    """Keep freed numpy temporaries in the heap for the next grid step or sweep
    level, which would otherwise fault them in again as zeroed pages; a no-op
    without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _ensemble_path(out: Path) -> Path:
    """Where simulate writes the ensemble table next to the realization ``out``."""
    return out.with_name(out.stem + "_ensemble" + out.suffix)


def _load_scenario(args: argparse.Namespace) -> Scenario:
    """Load ``--scenario`` as a file path, else as the name of a bundled fixture."""
    name = args.scenario
    path = Path(name)
    if not path.exists() and "/" not in name and "\\" not in name and not name.endswith(".json"):
        bundled = resources.files(__package__) / "scenarios" / f"{name}.json"
        if bundled.is_file():
            path = bundled
    return load_scenario(path)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _say(message: str) -> None:
    """Print ``message`` to stdout at once.  A closed stdout (its reader gone)
    is pointed at ``os.devnull``, as the Python docs advise, so the rest of
    the run and the flush at exit write nowhere and keep the exit code."""
    try:
        print(message, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@contextlib.contextmanager
def _config_os_errors():
    """An OSError here (an unreadable ``--scenario``, an unwritable ``--out``)
    is a configuration error; one elsewhere is not."""
    try:
        yield
    except OSError as e:
        raise ConfigError(str(e)) from None


def _metadata(args: argparse.Namespace, scenario: Scenario, **extra) -> dict:
    md = {
        "scenario": scenario.name,
        "seed": args.seed,
        "n": args.n,
        "version": __version__,
        "command": args.command,
        "energy_unit": scenario.energy_unit,
    }
    md.update(extra)
    return md


def _write_table(args: argparse.Namespace, table: ResultTable, path: str | Path | None = None) -> Path:
    """Write ``table`` to ``path`` (default ``--out``) and return the path.

    An existing regular file is written over in place and then cut to the
    new length, which keeps its blocks instead of freeing them in a
    truncating open; a new path is created.  A FIFO or a terminal is
    written as it is, without the cut.
    """
    target = Path(path if path is not None else args.out)
    data = write_results(table, args.format)
    with _config_os_errors(), open(os.open(target, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()
    return target


def _check_window(storage, value: float, flag: str) -> float:
    try:
        return storage.check_level(value, flag)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _levels(args: argparse.Namespace, storage, default_count: int) -> tuple[float, ...]:
    """``--levels`` checked against the window, else evenly spaced levels across it."""
    if args.levels is not None:
        return tuple(_check_window(storage, v, "--levels entry") for v in args.levels)
    return tuple(float(v) for v in np.linspace(storage.s_min, storage.s_max, default_count))


def _closed_form(step_spec, storage, levels):
    """The closed-form triple at each level; ``None`` unless the step pairs
    deterministic generation with Weibull demand."""
    gen, dem = step_spec.generation, step_spec.demand
    if not (isinstance(gen, Deterministic) and isinstance(dem, Weibull)):
        return None
    return [weibull_closed_form(gen.value, level, storage, dem) for level in levels]


def _check_sample_budget(args: argparse.Namespace, values_per_sample: int) -> None:
    size = 8 * args.n * values_per_sample
    if size > MAX_SAMPLE_BYTES:
        raise ConfigError(
            f"--n {args.n} needs {size:.3g} bytes of samples "
            f"({values_per_sample} value(s) each); the limit is {MAX_SAMPLE_BYTES} bytes"
        )


def _grid(steps, storage, level_lists, cells: int):
    """The grid route: yield each step's balance, one grid alive at a time,
    with its triple at each of its levels.

    A step with a point-mass side is read exactly (``point_mass_balance``).
    Of the other steps, ``discretize`` runs once per distinct distribution,
    at ``cells``; a grid is kept from its first use to its last, so a
    quantity that recurs across steps (day24's generation) is gridded once.
    """
    exact = [point_mass_balance(spec.generation, spec.demand) for spec in steps]
    gridded = [spec for spec, b in zip(steps, exact) if b is None]
    uses = collections.Counter(d for spec in gridded for d in (spec.generation, spec.demand))
    grids = {}

    def grid_of(dist):
        if dist not in grids:
            grids[dist] = discretize(dist, cells)
        uses[dist] -= 1
        return grids[dist] if uses[dist] else grids.pop(dist)

    for spec, b, levels in zip(steps, exact, level_lists):
        if b is None:
            b = difference_density(grid_of(spec.generation), grid_of(spec.demand))
        yield b, [self_sufficiency(b, s, storage) for s in levels]


# --- commands ----------------------------------------------------------------


def _step_rows(*columns) -> tuple:
    """Rows ``(step, *values)`` for steps 1, 2, ... from per-step arrays (or rows of them)."""
    return tuple((t, *row) for t, row in enumerate(np.vstack(columns).T.tolist(), start=1))


def _run_simulate(args: argparse.Namespace, scenario: Scenario) -> int:
    _check_sample_budget(args, scenario.horizon)
    stats = simulate_ensemble(scenario, args.n, args.seed)
    if not np.all(np.isfinite(stats.b_mean)):
        raise ConfigError(
            f"--n {args.n}: the total of the ensemble's balances overflows a float; "
            f"use a smaller --n or a scenario with smaller quantities"
        )
    traj = stats.realization

    traj_table = ResultTable(
        columns=("step", "generation", "demand", "balance", "storage", "spill", "deficit"),
        rows=_step_rows(
            traj.generation, traj.demand, traj.balance, traj.storage, traj.spill, traj.deficit
        ),
        metadata=_metadata(args, scenario, s_init=scenario.storage.s_init, trajectory_index=0),
    )
    quantile_names = tuple(f"s_q{round(q * 100):02d}" for q in QUANTILE_LEVELS)
    ensemble_table = ResultTable(
        columns=("step", "s_mean", *quantile_names, "b_mean", "spill_freq", "deficit_freq"),
        rows=_step_rows(
            stats.s_mean, stats.s_quantiles, stats.b_mean, stats.spill_freq, stats.deficit_freq
        ),
        metadata=_metadata(args, scenario, s_init=scenario.storage.s_init),
    )

    out = Path(args.out)
    ensemble_out = _ensemble_path(out)
    _write_table(args, traj_table, out)
    _write_table(args, ensemble_table, ensemble_out)
    _say(
        f"simulate {scenario.name}: {scenario.horizon} step(s), seed={args.seed}, "
        f"ensemble n={args.n}"
    )
    _say(f"  realization -> {out}")
    _say(f"  ensemble    -> {ensemble_out}")
    return 0


def _run_analyze(args: argparse.Namespace, scenario: Scenario) -> int:
    if not 1 <= args.step <= scenario.horizon:
        raise ConfigError(
            f"--step must lie in [1, {scenario.horizon}] for this scenario, got {args.step}"
        )
    s_prev = _check_window(scenario.storage, args.s_prev, "--s-prev")
    step_spec = scenario.steps[args.step - 1]
    [(b, [triple])] = _grid([step_spec], scenario.storage, [(s_prev,)], args.grid_cells)

    table = ResultTable(
        columns=("step", "s_prev", "p_deficit", "p_overflow", "p_self", "p_not_self", "truncated_mass"),
        # The truncated mass past 3 digits is rounding noise of 1 - total mass.
        rows=((args.step, s_prev, triple.p_deficit, triple.p_overflow, triple.p_self,
               1.0 - triple.p_self, float(f"{b.truncated_mass:.3e}")),),
        metadata=_metadata(args, scenario, grid_cells=args.grid_cells),
    )
    out = _write_table(args, table)
    _say(f"analyze {scenario.name} step {args.step} at s_prev={s_prev:g}:")
    _say(f"  p_deficit={triple.p_deficit:.6f}  p_overflow={triple.p_overflow:.6f}")
    _say(
        f"  self-sufficient: p_self={triple.p_self:.6f}  "
        f"(not self-sufficient: 1-p_self={1.0 - triple.p_self:.6f})"
    )
    _say(f"  truncated mass {b.truncated_mass:.3e} -> {out}")
    return 0


def _run_sweep(args: argparse.Namespace, scenario: Scenario) -> int:
    _check_sample_budget(args, 1)
    step_spec, storage = scenario.steps[0], scenario.storage
    levels = _levels(args, storage, 51)
    closed = _closed_form(step_spec, storage, levels)
    if closed is None:
        raise ScenarioInvariantError(
            "scenario.steps[0]: sweep requires deterministic generation and "
            "weibull demand (the closed-form pairing)"
        )

    estimates = sweep_battery_levels(
        step_spec.generation.value, step_spec.demand, storage, levels, args.n, args.seed
    )
    rows = tuple(
        (level, t.p_deficit, t.p_overflow, t.p_self, mc.p_deficit, mc.p_overflow, mc.p_self,
         max(map(mc.halfwidth, (mc.p_deficit, mc.p_overflow, mc.p_self))))
        for level, t, mc in zip(levels, closed, estimates)
    )
    table = ResultTable(
        columns=("level", "p_A_analytic", "p_B_analytic", "p_self_analytic",
                 "p_A_mc", "p_B_mc", "p_self_mc", "ci_halfwidth"),
        rows=rows,
        metadata=_metadata(args, scenario),
    )
    out = _write_table(args, table)
    _say(f"sweep {scenario.name}: {len(levels)} level(s), n={args.n}, seed={args.seed}")
    for level, analytic in ((levels[0], closed[0]), (levels[-1], closed[-1])):
        _say(
            f"  level {level:g}: p_self={analytic.p_self:.6f} "
            f"(1-p_self={1.0 - analytic.p_self:.6f})"
        )
    _say(f"  table -> {out}")
    return 0


def _run_validate(args: argparse.Namespace, scenario: Scenario) -> int:
    _check_sample_budget(args, 1)
    storage = scenario.storage
    levels = _levels(args, storage, 6)
    # Each step at the initial level, and the first step also at every
    # level: the grid and Monte Carlo both read these lists.
    level_lists = [(storage.s_init, *levels)] + [(storage.s_init,)] * (scenario.horizon - 1)
    # Every grid triple comes before any sampling, so a grid over the cell
    # budget exits 2 at once.
    grid = [triples for _, triples in _grid(scenario.steps, storage, level_lists, args.grid_cells)]
    # One Monte Carlo call for every step and level, all from the same seed.
    pairs = [(spec.generation, spec.demand) for spec in scenario.steps]
    mc = estimate_steps(pairs, storage, level_lists, args.n, args.seed)
    closed = _closed_form(scenario.steps[0], storage, levels)

    # (source, analytic triple, Monte Carlo estimate): each step at the
    # initial level, then the first step at every level, where the closed
    # form joins in when it applies against the same estimate as the grid.
    rows = [(f"step[{t}] grid", g[0], m[0]) for t, (g, m) in enumerate(zip(grid, mc), start=1)]
    for k, level in enumerate(levels):
        rows.append((f"level[{level:g}] grid", grid[0][k + 1], mc[0][k + 1]))
        if closed is not None:
            rows.append((f"level[{level:g}] closed_form", closed[k], mc[0][k + 1]))
    # Frequency 0/1 gives a zero-width interval; a true probability may
    # still be (tiny but) nonzero, so checks never use a tolerance below
    # the rule-of-three bound 3/n.
    floor = 3.0 / args.n
    checks = []
    for source, triple, est in rows:
        for quantity in ("p_deficit", "p_overflow", "p_self"):
            a, p = getattr(triple, quantity), getattr(est, quantity)
            ci = est.halfwidth(p)
            checks.append((source, quantity, a, p, ci, abs(a - p) <= max(ci, floor)))

    caveat = args.n < VALIDATE_CAVEAT_N
    failures = [c for c in checks if not c[5]]
    if args.out:
        table = ResultTable(
            columns=("source", "quantity", "analytic", "mc_p_hat", "ci_halfwidth", "within_ci"),
            rows=tuple(checks),
            metadata=_metadata(args, scenario, grid_cells=args.grid_cells, caveat=caveat),
        )
        out = _write_table(args, table)
        _say(f"  report -> {out}")

    _say(
        f"validate {scenario.name}: {len(checks) - len(failures)}/{len(checks)} analytic "
        f"values within MC confidence intervals (n={args.n}, seed={args.seed})"
    )
    if caveat:
        _diag(
            f"warning: n={args.n} < {VALIDATE_CAVEAT_N}: confidence intervals are too "
            f"wide for a meaningful gate (caveat recorded in the report)"
        )
    for source, quantity, analytic, p_hat, ci, _ in failures:
        _say(
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


def run_command(args: argparse.Namespace) -> int:
    """Run a parsed command line, mapping failures to the exit-code taxonomy."""
    try:
        # The checks argparse cannot make.
        if not args.scenario:
            raise ConfigError("a scenario is required (--scenario)")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.n < 1:
            raise ConfigError(f"--n must be >= 1, got {args.n}")
        if "grid_cells" in args and not 2 <= args.grid_cells <= MAX_GRID_CELLS:
            raise ConfigError(
                f"--grid-cells must lie in [2, {MAX_GRID_CELLS}], got {args.grid_cells}"
            )
        if args.command != "validate" and not args.out:
            raise ConfigError(f"{args.command} requires an output file (--out)")
        if args.command == "analyze" and args.s_prev is None:
            raise ConfigError("analyze requires a battery level (--s-prev)")
        with _config_os_errors():
            if args.out:
                out = Path(args.out)
                if not out.parent.is_dir():
                    raise ConfigError(f"--out {out}: no such directory")
                targets = (out, _ensemble_path(out)) if args.command == "simulate" else (out,)
                for target in targets:
                    if target.is_dir():
                        raise ConfigError(f"--out: {target} is a directory")
            scenario = _load_scenario(args)
        return _HANDLERS[args.command](args, scenario)
    # CellBudgetError: the inputs' grids refine to more cells than
    # balance.MAX_BALANCE_CELLS, or an input's cells hold too little mass.
    except (ConfigError, CellBudgetError) as e:
        _diag(f"config error: {e}")
        return 2
    except ScenarioError as e:
        _diag(f"scenario error: {e}")
        return 3
    except TruncationBudgetError as e:
        _diag(f"numeric budget exceeded: {e}")
        return 4


def main(argv=None) -> int:
    _retain_freed_memory()
    return run_command(_parser().parse_args(argv))


def entrypoint() -> None:
    sys.exit(main())
