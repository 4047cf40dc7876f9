"""Output checker: decides whether one CLI command's output is correct.

* ``simulate`` and ``sweep``: at the seeds the workloads use for the
  reference seed, the CSV files must be byte-identical to SHA-256 hashes
  captured at the reference commit.  At
  every seed they must satisfy the invariants: storage inside the window,
  the ledger identity on every row, spill and deficit never both nonzero,
  frequencies in [0, 1] and whole multiples of 1/n, quantile columns
  non-decreasing, and sweep closed-form columns equal to the Weibull
  formula recomputed here.
* ``analyze`` and the grid rows of ``validate`` reports: each triple lies in
  [0, 1], sums to the grid mass, and matches the reference values within
  ``ANALYTIC_TOL``.  For ``fig2_battery`` the grid and the closed form agree
  within ``FIG2_AGREEMENT`` at every level.
* ``validate`` exit 1 is not a failure: the checks outside their interval
  are returned as alarms.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# Reference values are compared with this absolute tolerance.  An FFT
# convolution may move each cell by <= 1e-12, and a 16384-cell difference
# grid has < 5e4 cells, so a window sum may move by < 5e-8; the CSV files
# carry 9 significant digits (<= 5e-10 on a probability).  A 1e-3 error is
# four orders of magnitude above it.
ANALYTIC_TOL = 1e-7
# Acceptance criterion 2: grid and closed form agree on fig2_battery.
FIG2_AGREEMENT = 1e-3
# The grid may truncate up to this much mass (balance.MASS_TRUNCATION_BUDGET).
MASS_BUDGET = 1e-6
# Values read back from 9-significant-digit CSV cells.
CSV_REL = 5e-9


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    alarms: int = 0      # validate checks outside their interval
    estimates: int = 0   # Monte Carlo triples in the output


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= CSV_REL * (abs(a) + abs(b) + scale)


def _whole_multiple(freq: float, n: int) -> bool:
    return abs(freq * n - round(freq * n)) <= CSV_REL * freq * n + 1e-9


def weibull_triple(g: float, level: float, fixture: dict) -> tuple[float, float, float]:
    """Deficit, overflow and self-sufficiency probabilities for Weibull demand."""
    scale, shape = fixture["demand_scale"], fixture["demand_shape"]
    x_a = g + level - fixture["s_min"]
    x_b = g + level - fixture["s_max"]
    p_a = 1.0 if x_a <= 0.0 else math.exp(-((x_a / scale) ** shape))
    p_b = 0.0 if x_b <= 0.0 else 1.0 - math.exp(-((x_b / scale) ** shape))
    return p_a, p_b, 1.0 - p_a - p_b


def check_command(cmd, rc, outdir: Path, ref: dict) -> Outcome:
    """Check one command's exit code and output files against ``ref``."""
    out = Outcome()
    allowed = (0, 1) if cmd.kind == "validate" else (0,)
    if rc not in allowed:
        out.problems.append(f"exit code {rc!r}")
        return out
    path = outdir / cmd.out
    try:
        CHECKS[cmd.kind](cmd, rc, path, ref, out)
    except (OSError, KeyError, ValueError, csv.Error) as e:
        out.problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return out


def _check_hashes(cmd, files: dict[str, Path], ref: dict, out: Outcome) -> None:
    golden = ref["sha256"][cmd.kind]
    hashes = golden["by_seed"].get(str(cmd.seed))
    if hashes is None or cmd.n != golden["n"] or cmd.scenario != golden["scenario"]:
        return
    for role, path in files.items():
        if sha256(path) != hashes[role]:
            out.problems.append(f"{path.name}: bytes differ from the reference SHA-256")


def _check_simulate(cmd, rc, path: Path, ref: dict, out: Outcome) -> None:
    ensemble = path.with_name(path.stem + "_ensemble" + path.suffix)
    _check_hashes(cmd, {"realization": path, "ensemble": ensemble}, ref, out)
    fx = ref["fixtures"][cmd.scenario]
    lo, hi = fx["s_min"], fx["s_max"]
    p = out.problems

    rows = read_csv(path)
    if [int(r["step"]) for r in rows] != list(range(1, fx["horizon"] + 1)):
        p.append(f"{path.name}: steps are not 1..{fx['horizon']}")
    s_prev = fx["s_init"]
    for r in rows:
        t = r["step"]
        g, d, b, s = (float(r[k]) for k in ("generation", "demand", "balance", "storage"))
        spill, deficit = float(r["spill"]), float(r["deficit"])
        if g < 0 or d < 0 or spill < 0 or deficit < 0:
            p.append(f"{path.name} step {t}: negative generation, demand, spill or deficit")
        if not _close(b, g - d, abs(g) + abs(d)):
            p.append(f"{path.name} step {t}: balance != generation - demand")
        if not lo <= s <= hi:
            p.append(f"{path.name} step {t}: storage {s} outside [{lo}, {hi}]")
        if spill > 0 and deficit > 0:
            p.append(f"{path.name} step {t}: spill and deficit both nonzero")
        if not _close(s - s_prev, b - spill + deficit, abs(s) + abs(s_prev) + abs(b) + spill + deficit):
            p.append(f"{path.name} step {t}: ledger identity fails")
        s_prev = s

    rows = read_csv(ensemble)
    if len(rows) != fx["horizon"]:
        p.append(f"{ensemble.name}: {len(rows)} rows, expected {fx['horizon']}")
    for r in rows:
        t = r["step"]
        quantiles = [float(r[k]) for k in r if k.startswith("s_q")]
        if not quantiles or quantiles != sorted(quantiles):
            p.append(f"{ensemble.name} step {t}: quantile columns decrease")
        if not all(lo <= q <= hi for q in quantiles + [float(r["s_mean"])]):
            p.append(f"{ensemble.name} step {t}: storage statistic outside [{lo}, {hi}]")
        spill, deficit = float(r["spill_freq"]), float(r["deficit_freq"])
        if not (0 <= spill <= 1 and 0 <= deficit <= 1 and spill + deficit <= 1 + CSV_REL):
            p.append(f"{ensemble.name} step {t}: frequency outside [0, 1]")
        if not (_whole_multiple(spill, cmd.n) and _whole_multiple(deficit, cmd.n)):
            p.append(f"{ensemble.name} step {t}: frequency is not a count over n={cmd.n}")


def _check_sweep(cmd, rc, path: Path, ref: dict, out: Outcome) -> None:
    _check_hashes(cmd, {"sweep": path}, ref, out)
    fx = ref["fixtures"][cmd.scenario]
    p = out.problems
    rows = read_csv(path)
    levels = [fx["s_min"] + (fx["s_max"] - fx["s_min"]) * i / 50 for i in range(51)]
    if len(rows) != len(levels):
        p.append(f"{path.name}: {len(rows)} levels, expected {len(levels)}")
    for r, want_level in zip(rows, levels):
        level = float(r["level"])
        if not _close(level, want_level, fx["s_max"]):
            p.append(f"{path.name}: level {level} where {want_level} was expected")
        expected = weibull_triple(fx["generation"], level, fx)
        got = [float(r[k]) for k in ("p_A_analytic", "p_B_analytic", "p_self_analytic")]
        if not all(_close(a, b) for a, b in zip(got, expected)):
            p.append(f"{path.name} level {level}: closed form {got} != recomputed {list(expected)}")
        mc = [float(r[k]) for k in ("p_A_mc", "p_B_mc", "p_self_mc")]
        if not all(0 <= v <= 1 and _whole_multiple(v, cmd.n) for v in mc) or not _close(sum(mc), 1.0):
            p.append(f"{path.name} level {level}: Monte Carlo frequencies are not a partition of n")
        halfwidth = max(3 * math.sqrt(v * (1 - v) / cmd.n) for v in mc)
        if abs(float(r["ci_halfwidth"]) - halfwidth) > 1e-6 * halfwidth + 1e-12:
            p.append(f"{path.name} level {level}: ci_halfwidth is not 3 standard errors")
    out.estimates = len(rows)


def _check_triple(where: str, triple, mass: float, p: list) -> None:
    if not all(0.0 <= v <= 1.0 for v in triple):
        p.append(f"{where}: probability outside [0, 1]")
    if abs(sum(triple) - mass) > 3 * CSV_REL + 1e-12:
        p.append(f"{where}: triple sums to {sum(triple)!r}, grid mass is {mass!r}")


def _check_analyze(cmd, rc, path: Path, ref: dict, out: Outcome) -> None:
    (row,) = read_csv(path)
    where = f"{path.name} step {row['step']}"
    triple = tuple(float(row[k]) for k in ("p_deficit", "p_overflow", "p_self"))
    truncated = float(row["truncated_mass"])
    _check_triple(where, triple, 1.0 - truncated, out.problems)
    want = ref["analyze"][cmd.scenario][str(cmd.grid_cells)][str(cmd.s_prev)][str(cmd.step)]
    if int(row["step"]) != cmd.step or not _close(float(row["s_prev"]), cmd.s_prev):
        out.problems.append(f"{where}: answers another question than step {cmd.step} at {cmd.s_prev}")
    for name, got, expected in zip(("p_deficit", "p_overflow", "p_self"), triple, want):
        if abs(got - expected) > ANALYTIC_TOL:
            out.problems.append(f"{where}: {name}={got!r}, reference {expected!r}")


def _check_validate(cmd, rc, path: Path, ref: dict, out: Outcome) -> None:
    p = out.problems
    want = ref["validate"][cmd.scenario]
    rows = read_csv(path)
    got = {f"{r['source']}|{r['quantity']}": r for r in rows}
    if sorted(got) != sorted(want):
        p.append(f"{path.name}: checks differ from the reference report's")
        return
    triples: dict[str, dict[str, float]] = {}
    for key, r in got.items():
        analytic, p_hat = float(r["analytic"]), float(r["mc_p_hat"])
        if not (0 <= analytic <= 1 and 0 <= p_hat <= 1 and float(r["ci_halfwidth"]) >= 0):
            p.append(f"{path.name} {key}: value outside [0, 1]")
        if abs(analytic - want[key]) > ANALYTIC_TOL:
            p.append(f"{path.name} {key}: analytic={analytic!r}, reference {want[key]!r}")
        if r["within_ci"] not in ("true", "false"):
            p.append(f"{path.name} {key}: within_ci is {r['within_ci']!r}")
        out.alarms += r["within_ci"] == "false"
        triples.setdefault(r["source"], {})[r["quantity"]] = analytic
    for source, t in triples.items():
        triple = (t["p_deficit"], t["p_overflow"], t["p_self"])
        if source.endswith(" grid"):
            if not 1.0 - MASS_BUDGET - 3 * CSV_REL <= sum(triple) <= 1.0 + 3 * CSV_REL:
                p.append(f"{path.name} {source}: triple sums to {sum(triple)!r}")
            closed = triples.get(source[: -len(" grid")] + " closed_form")
            if closed is not None:
                for q, v in closed.items():
                    if abs(v - t[q]) > FIG2_AGREEMENT:
                        p.append(f"{path.name} {source}: {q} grid {t[q]!r} vs closed form {v!r}")
    if (rc == 1) != (out.alarms > 0):
        p.append(f"{path.name}: exit code {rc} disagrees with {out.alarms} check(s) outside their interval")
    out.estimates = len({s.removesuffix(" grid").removesuffix(" closed_form") for s in triples})


CHECKS = {
    "simulate": _check_simulate,
    "sweep": _check_sweep,
    "analyze": _check_analyze,
    "validate": _check_validate,
}
