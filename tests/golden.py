"""The golden byte table: one SHA-256 per CLI run, over what the run leaves.

Each run calls ``stochstore.cli.main`` in process, writing into an empty
directory.  Its digest covers the exit code, stdout with that directory
written as ``<out>``, and the name and bytes of every file the run wrote.
stderr is left out: argparse words its refusals differently across Python
versions, and the exit code already tells a refusal apart.

The runs cover every command on both bundled fixtures at seeds 0 and 7 in
CSV and JSON; ``simulate`` at n = 1, 257 and 2000 (a one-trajectory
ensemble, one past a chunk edge, and several chunks); day24 at extra
levels and ``analyze`` at several steps and cell counts; and the CI
workflow's inline scenarios, its refusals (exit 2) included.

After a declared byte change, rewrite the table with

    PYTHONPATH=src python tests/golden.py

and the diff of ``golden_bytes.txt`` names the runs that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from stochstore.cli import main

TABLE = Path(__file__).with_name("golden_bytes.txt")

FIXTURES = ("fig2_battery", "day24_lognormal")
SEEDS = (0, 7)
FORMATS = ("csv", "json")

# Scenarios the CI workflow writes inline, by file stem.
INLINE = {
    "tie": {
        "name": "tie", "energy_unit": "kWh", "horizon": 1,
        "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0},
        "steps": [{"generation": {"kind": "deterministic", "value": 3.0},
                   "demand": {"kind": "empirical", "samples": [1.0, 3.0]}}],
    },
    "mid_multi_gen": {
        "name": "mid_multi_gen", "energy_unit": "kWh", "horizon": 3,
        "storage": {"s_min": 0.0, "s_max": 10.0, "s_init": 5.0},
        "steps": [{"generation": {"kind": "weibull", "scale": 1.5, "shape": 2.0},
                   "demand": {"kind": "lognormal", "mean": 2.0, "variance": 1.5}},
                  {"generation": {"kind": "empirical", "samples": [1.0, 5.5, 2.0, 7.5]},
                   "demand": {"kind": "lognormal", "mean": 1.8, "variance": 2.5}},
                  {"generation": {"kind": "weibull", "scale": 3.0, "shape": 0.7},
                   "demand": {"kind": "lognormal", "mean": 1.1, "variance": 0.3}}],
    },
    "one_sided": {
        "name": "one_sided", "energy_unit": "kWh", "horizon": 3,
        "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0},
        "steps": [{"generation": {"kind": "lognormal", "mean": 1.25, "variance": 1.0},
                   "demand": {"kind": "deterministic", "value": 1.0}},
                  {"generation": {"kind": "weibull", "scale": 1.0, "shape": 0.05},
                   "demand": {"kind": "deterministic", "value": 1.0}},
                  {"generation": {"kind": "deterministic", "value": 2.0},
                   "demand": {"kind": "empirical", "samples": [0.5, 1.0, 3.0, 2.0, 4.5]}}],
    },
    "over_budget": {
        "name": "over_budget", "energy_unit": "kWh", "horizon": 1,
        "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0},
        "steps": [{"generation": {"kind": "weibull", "scale": 1e300, "shape": 1.0},
                   "demand": {"kind": "weibull", "scale": 1.0, "shape": 1.0}}],
    },
}

# A run is its id and its argv without ``--out``; ``<name>.json`` in a
# scenario names an ``INLINE`` scenario.  ``NO_OUT`` runs get no ``--out``.
NO_OUT = "no-out"


def _runs() -> list[tuple[str, list[str]]]:
    runs = []
    analyze_args = {"fig2_battery": ("--s-prev", "0"),
                    "day24_lognormal": ("--step", "12", "--s-prev", "5")}
    for fixture in FIXTURES:
        for seed in SEEDS:
            for fmt in FORMATS:
                common = ("--scenario", fixture, "--seed", str(seed), "--format", fmt)
                runs.append(("validate", common + ("--n", "20000")))
                runs.append(("sweep", common + ("--n", "20000")))
                for n in ("1", "257", "2000"):
                    runs.append(("simulate", common + ("--n", n)))
                runs.append(("analyze", common + analyze_args[fixture]))
    day24 = ("--scenario", "day24_lognormal")
    for seed in SEEDS:
        levels = ("--n", "20000", "--levels", "2,4,6,8")
        runs.append(("validate", day24 + ("--seed", str(seed)) + levels))
    runs.append(("validate", day24 + ("--n", "20000", "--levels", "1,2,3,4,5,6,7,8,9")))
    for step, cells in (("1", "2"), ("1", "64"), ("24", "16384"), ("7", "1024")):
        runs.append(("analyze", day24 + ("--step", step, "--grid-cells", cells, "--s-prev", "2.5")))
    for s_prev in ("4", "5"):
        runs.append(("analyze", ("--scenario", "fig2_battery", "--s-prev", s_prev)))
    runs += [
        ("validate", ("--scenario", "tie.json", "--n", "20000")),
        ("simulate", ("--scenario", "tie.json", "--n", "1000")),
        ("validate", ("--scenario", "mid_multi_gen.json", "--n", "20000", "--levels", "2,5,8")),
        ("validate", ("--scenario", "one_sided.json", "--n", "20000", "--levels", "0,1,2.5,5")),
        # Refusals: argparse's and the commands' own (exit 2).
        ("analyze", ("--scenario", "fig2_battery")),
        ("analyze", ("--scenario", "fig2_battery", "--grid-cells", "1", "--s-prev", "0")),
        ("validate", ("--scenario", "fig2_battery", "--n", "0")),
        ("validate", ("--scenario", "fig2_battery", "--seed", "-1")),
        ("validate", ("--scenario", "fig2_battery", "--format", "yaml")),
        ("simulate", ("--scenario", "fig2_battery", "--grid-cells", "64")),
        ("analyze", ("--scenario", "over_budget.json", "--s-prev", "0")),
        ("validate", ("--scenario", "over_budget.json")),
        ("analyze", ("--scenario", "fig2_battery", "--s-prev", "0", NO_OUT)),
    ]
    return [(" ".join((command, *args)), [command, *args]) for command, args in runs]


RUNS = _runs()


def digest(argv: list[str]) -> str:
    """The SHA-256 of one run: its exit code, stdout and output files."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out_dir = tmp / "out"
        out_dir.mkdir()
        args = []
        for arg in argv:
            if arg.endswith(".json") and arg[:-5] in INLINE:
                path = tmp / arg
                path.write_text(json.dumps(INLINE[arg[:-5]]), encoding="utf-8")
                arg = str(path)
            args.append(arg)
        if NO_OUT in args:
            args.remove(NO_OUT)
        else:
            fmt = args[args.index("--format") + 1] if "--format" in args else "csv"
            args += ["--out", str(out_dir / f"run.{fmt}")]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(args)
            except SystemExit as e:
                code = e.code
        h = hashlib.sha256(f"exit {code}\n".encode())
        h.update(stdout.getvalue().replace(str(out_dir), "<out>").encode())
        for path in sorted(out_dir.iterdir()):
            h.update(f"\nfile {path.name}\n".encode())
            h.update(path.read_bytes())
        return h.hexdigest()


def read_table() -> dict[str, str]:
    """Run id -> digest, as committed."""
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    return {run: sha for sha, run in (line.split("  ", 1) for line in lines)}


if __name__ == "__main__":
    TABLE.write_text("".join(f"{digest(argv)}  {run}\n" for run, argv in RUNS), encoding="utf-8")
    print(f"{len(RUNS)} runs -> {TABLE}")
