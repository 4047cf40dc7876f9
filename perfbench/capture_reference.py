"""Capture the checker's reference values and hashes from the program as it is.

    PYTHONPATH=src python3 perfbench/capture_reference.py > perfbench/reference.json

The committed ``reference.json`` was captured at the commit it names.  Run
this again only when a change is meant to alter the program's outputs,
and say so in the change: the checker treats any other difference as a
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import checker
import workloads
from stochstore import cli, parse_scenario


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} exited {rc}")


def fixture(name: str) -> dict:
    text = (resources.files("stochstore") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
    sc = parse_scenario(text)
    info = {
        "horizon": sc.horizon,
        "s_min": sc.storage.s_min,
        "s_max": sc.storage.s_max,
        "s_init": sc.storage.s_init,
    }
    first = sc.steps[0]
    if type(first.generation).__name__ == "Deterministic" and type(first.demand).__name__ == "Weibull":
        info.update(
            generation=first.generation.value,
            demand_scale=first.demand.scale,
            demand_shape=first.demand.shape,
        )
    return info


def main(commit: str) -> dict:
    seed = 0
    fixtures = {name: fixture(name) for name in (workloads.DAY24, workloads.FIG2)}
    ref = {
        "commit": commit,
        "default_seed": seed,
        "fixtures": fixtures,
        "analyze": {},
        "validate": {},
        "sha256": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for cmd in workloads.grid_day24_fine(seed, ref):
            run(cmd.argv(out))
            (row,) = checker.read_csv(out / cmd.out)
            table = ref["analyze"].setdefault(cmd.scenario, {}).setdefault(str(cmd.grid_cells), {})
            table.setdefault(str(cmd.s_prev), {})[str(cmd.step)] = [
                float(row[k]) for k in ("p_deficit", "p_overflow", "p_self")
            ]
        for cmd in workloads.mc_day24_ensemble(seed, {}) + workloads.gate_fixtures(seed, {}):
            run(cmd.argv(out))
            path = out / cmd.out
            if cmd.kind == "validate":
                ref["validate"][cmd.scenario] = {
                    f"{r['source']}|{r['quantity']}": float(r["analytic"]) for r in checker.read_csv(path)
                }
            elif cmd.kind == "simulate":
                ensemble = path.with_name(path.stem + "_ensemble" + path.suffix)
                golden = ref["sha256"].setdefault("simulate", {"scenario": cmd.scenario, "n": cmd.n, "by_seed": {}})
                golden["by_seed"][str(cmd.seed)] = {
                    "realization": checker.sha256(path),
                    "ensemble": checker.sha256(ensemble),
                }
            else:
                golden = ref["sha256"].setdefault("sweep", {"scenario": cmd.scenario, "n": cmd.n, "by_seed": {}})
                golden["by_seed"][str(cmd.seed)] = {"sweep": checker.sha256(path)}
    return ref


if __name__ == "__main__":
    json.dump(main(sys.argv[1] if len(sys.argv) > 1 else "unknown"), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
