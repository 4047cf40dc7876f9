"""Self-tests of the benchmark's own machinery.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stochstore import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def run_cli(cmd, outdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(cmd.argv(outdir))


def test_self_times_subtract_only_direct_children():
    rec = spans.SpanRecorder()
    root = rec.add("cli.run", -1, 0.0, 10.0)
    rec.add("balance.discretize", root, 1.0, 4.0)
    convolve = rec.add("balance.convolve", root, 5.0, 9.0)
    rec.add("distributions.cdf", convolve, 6.0, 8.0)
    rec.add("distributions.cdf", convolve, 8.0, 8.5)

    stats = spans.reduce_spans(rec)
    assert stats["cli.run"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["balance.discretize"].self_s == pytest.approx(3.0)
    assert stats["balance.convolve"].self_s == pytest.approx(4.0 - 2.5)
    assert stats["distributions.cdf"].self_s == pytest.approx(2.5)
    assert stats["distributions.cdf"].calls == 2
    total = sum(s.self_s for s in stats.values())
    assert total == pytest.approx(10.0)  # self times partition the root span


def test_nested_spans_of_one_group_count_once():
    rec = spans.SpanRecorder()
    outer = rec.add("distributions.sample", -1, 0.0, 2.0, count=1)
    rec.add("distributions.sample", outer, 0.5, 1.5, count=1)  # sample -> sample_n
    stats = spans.reduce_spans(rec)["distributions.sample"]
    assert (stats.calls, stats.count, stats.self_s) == (1, 1.0, pytest.approx(2.0))


def test_checker_accepts_and_hashes_the_reference_simulate_output(tmp_path):
    cmd = workloads.mc_day24_ensemble(REFERENCE["default_seed"], REFERENCE)[3]
    rc = run_cli(cmd, tmp_path)
    assert checker.check_command(cmd, rc, tmp_path, REFERENCE).problems == []

    path = tmp_path / cmd.out
    lines = path.read_text().splitlines(keepends=True)
    row = lines[5]
    i = next(i for i, ch in enumerate(row) if ch.isdigit() and ch != "9" and i > row.index(","))
    lines[5] = row[:i] + str(int(row[i]) + 1) + row[i + 1 :]
    path.write_text("".join(lines))
    problems = checker.check_command(cmd, rc, tmp_path, REFERENCE).problems
    assert any("SHA-256" in p for p in problems)


def test_checker_invariants_catch_a_changed_storage_value(tmp_path):
    cmd = workloads.Command("simulate", workloads.DAY24, 5, "sim.csv", n=300)
    rc = run_cli(cmd, tmp_path)
    assert checker.check_command(cmd, rc, tmp_path, REFERENCE).problems == []

    path = tmp_path / cmd.out
    rows = checker.read_csv(path)
    header = list(rows[0])
    rows[3]["storage"] = repr(float(rows[3]["storage"]) * 0.9 + 0.01)
    text = ",".join(header) + "\n" + "".join(",".join(r[h] for h in header) + "\n" for r in rows)
    path.write_text(text)
    problems = checker.check_command(cmd, rc, tmp_path, REFERENCE).problems
    assert any("ledger identity" in p for p in problems)


def test_checker_rejects_an_analyze_triple_off_by_1e_3(tmp_path):
    cmd = workloads.grid_day24_fine(REFERENCE["default_seed"], REFERENCE)[0]
    rc = run_cli(cmd, tmp_path)
    assert checker.check_command(cmd, rc, tmp_path, REFERENCE).problems == []

    path = tmp_path / cmd.out
    (row,) = checker.read_csv(path)
    # Move 1e-3 from p_self to p_deficit: still a valid triple summing to the
    # grid mass, so only the reference comparison can catch it.
    row["p_deficit"] = repr(float(row["p_deficit"]) + 1e-3)
    row["p_self"] = repr(float(row["p_self"]) - 1e-3)
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    problems = checker.check_command(cmd, rc, tmp_path, REFERENCE).problems
    assert any("p_deficit" in p and "reference" in p for p in problems)


def test_validate_alarms_are_counted_not_failed(tmp_path):
    cmd = workloads.Command("validate", workloads.FIG2, 0, "validate.csv", n=20_000)
    assert run_cli(cmd, tmp_path) == 0
    path = tmp_path / cmd.out
    rows = checker.read_csv(path)
    rows[0]["within_ci"] = "false"
    header = list(rows[0])
    path.write_text(",".join(header) + "\n" + "".join(",".join(r[h] for h in header) + "\n" for r in rows))

    outcome = checker.check_command(cmd, 1, tmp_path, REFERENCE)
    assert (outcome.problems, outcome.alarms) == ([], 1)
    assert checker.check_command(cmd, 0, tmp_path, REFERENCE).problems  # exit 0 with an alarm
    assert checker.check_command(cmd, 2, tmp_path, REFERENCE).problems


def test_redraw_factor_is_51_on_the_default_sweep(tmp_path):
    cmd = workloads.Command("sweep", workloads.FIG2, 0, "sweep.csv", n=20_000)
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec) as inst:
        assert run_cli(cmd, tmp_path) == 0
    metrics = spans.layer_metrics(spans.reduce_spans(rec), inst.present, rec.failed_counters)
    assert metrics["montecarlo.redraw_factor"] == 51
    assert metrics["montecarlo.estimate_calls"] == 51
    assert metrics["distributions.samples"] == 51 * 2 * 20_000
    assert cli.difference_density.__name__ == "difference_density"
    assert not hasattr(cli.run_command, "__wrapped__")  # wrappers removed on exit


def test_absent_boundary_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(cli, "write_results")
    rec = spans.SpanRecorder()
    inst = spans.Instrumentation(rec)
    inst.install()
    inst.remove()
    metrics = spans.layer_metrics(spans.reduce_spans(rec), inst.present, rec.failed_counters)
    assert "scenario.write_s" not in metrics and "scenario.bytes_written" not in metrics
    assert "balance.convolve_s" in metrics

    # A counter that no longer fits the API drops only the counts it feeds.
    stats = spans.reduce_spans(rec)
    metrics = spans.layer_metrics(stats, inst.present, {"balance.convolve"})
    assert "balance.convolve_s" in metrics and "balance.convolve_calls" in metrics
    assert "balance.convolve_products" not in metrics
