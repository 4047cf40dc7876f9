"""End-to-end CLI behavior: commands, outputs, and the exit-code taxonomy."""

import csv
import json
import time
import tracemalloc

import pytest

import stochstore.cli as cli
from stochstore import (
    MAX_BALANCE_CELLS,
    BalanceQuery,
    Deterministic,
    ProbabilityTriple,
    StorageSpec,
    Weibull,
    difference_density,
    discretize,
    self_sufficiency,
)
from stochstore.cli import ConfigError, RunConfig, main

from conftest import read_fixture_text

E_MINUS_1 = 0.36787944117144233
P_B_AT_4 = 0.03076676552365592
P_B_AT_5 = 0.6321205588285577


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- analyze -------------------------------------------------------------------


@pytest.mark.parametrize(
    "s_prev, column, expected",
    [(0.0, "p_deficit", E_MINUS_1), (4.0, "p_overflow", P_B_AT_4), (5.0, "p_overflow", P_B_AT_5)],
)
def test_analyze_hits_closed_form_checkpoints(tmp_path, s_prev, column, expected):
    out = tmp_path / "probs.csv"
    code = main(
        [
            "analyze",
            "--scenario",
            "fig2_battery",
            "--s-prev",
            str(s_prev),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == [
        "step",
        "s_prev",
        "p_deficit",
        "p_overflow",
        "p_self",
        "p_not_self",
        "truncated_mass",
    ]
    assert len(rows) == 1
    value = float(rows[0][header.index(column)])
    assert value == pytest.approx(expected, abs=1e-3)
    p_self = float(rows[0][header.index("p_self")])
    p_not = float(rows[0][header.index("p_not_self")])
    # CSV carries 9 significant digits, so the complement only closes to ~1e-9.
    assert p_self + p_not == pytest.approx(1.0, abs=1e-8)


def test_analyze_prints_both_probability_readings(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--scenario",
            "fig2_battery",
            "--s-prev",
            "0",
            "--out",
            str(tmp_path / "p.csv"),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "p_self=" in text
    assert "1-p_self=" in text


def test_analyze_json_format_carries_metadata(tmp_path):
    out = tmp_path / "probs.json"
    code = main(
        [
            "analyze",
            "--scenario",
            "fig2_battery",
            "--s-prev",
            "0",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("scenario", "seed", "n", "version", "command", "energy_unit", "grid_cells"):
        assert key in doc["metadata"]
    assert doc["metadata"]["command"] == "analyze"
    assert doc["columns"]["p_self"][0] == pytest.approx(1.0 - E_MINUS_1, abs=1e-3)


def test_analyze_step_selector_bounds(tmp_path):
    out = tmp_path / "p.csv"
    args = ["analyze", "--scenario", "day24_lognormal", "--s-prev", "5", "--out", str(out)]
    assert main(args + ["--step", "24"]) == 0
    assert main(args + ["--step", "25"]) == 2
    assert main(args + ["--step", "0"]) == 2


def test_analyze_accepts_scenario_file_path(tmp_path):
    path = tmp_path / "my_scenario.json"
    path.write_text(read_fixture_text("fig2_battery"), encoding="utf-8")
    out = tmp_path / "p.csv"
    code = main(["analyze", "--scenario", str(path), "--s-prev", "0", "--out", str(out)])
    assert code == 0


# --- simulate ------------------------------------------------------------------


def test_simulate_writes_both_tables_and_is_byte_stable(tmp_path):
    out_a = tmp_path / "a" / "run.csv"
    out_b = tmp_path / "b" / "run.csv"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    argv_tail = ["--scenario", "day24_lognormal", "--n", "500", "--seed", "7"]
    assert main(["simulate", *argv_tail, "--out", str(out_a)]) == 0
    assert main(["simulate", *argv_tail, "--out", str(out_b)]) == 0

    ens_a = out_a.with_name("run_ensemble.csv")
    ens_b = out_b.with_name("run_ensemble.csv")
    assert out_a.read_bytes() == out_b.read_bytes()
    assert ens_a.read_bytes() == ens_b.read_bytes()

    header, rows = _read_csv(out_a)
    assert header == ["step", "generation", "demand", "balance", "storage", "spill", "deficit"]
    assert len(rows) == 24
    storage_col = [float(r[header.index("storage")]) for r in rows]
    assert all(0.0 <= s <= 10.0 for s in storage_col)

    e_header, e_rows = _read_csv(ens_a)
    assert e_header == [
        "step",
        "s_mean",
        "s_q05",
        "s_q25",
        "s_q50",
        "s_q75",
        "s_q95",
        "b_mean",
        "spill_freq",
        "deficit_freq",
    ]
    assert len(e_rows) == 24


# --- sweep -----------------------------------------------------------------------


def test_sweep_default_levels_and_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--scenario", "fig2_battery", "--n", "2000", "--out", str(out)]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == [
        "level",
        "p_A_analytic",
        "p_B_analytic",
        "p_self_analytic",
        "p_A_mc",
        "p_B_mc",
        "p_self_mc",
        "ci_halfwidth",
    ]
    assert len(rows) == 51
    levels = [float(r[0]) for r in rows]
    assert levels[0] == 0.0
    assert levels[-1] == 5.0
    p_a = [float(r[1]) for r in rows]
    p_b = [float(r[2]) for r in rows]
    assert all(x >= y for x, y in zip(p_a, p_a[1:]))
    assert all(x <= y for x, y in zip(p_b, p_b[1:]))


def test_sweep_single_level_agrees_with_analyze(tmp_path):
    sweep_out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--scenario",
            "fig2_battery",
            "--levels",
            "2.5",
            "--n",
            "1000",
            "--out",
            str(sweep_out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(sweep_out)
    assert len(rows) == 1
    p_a_closed = float(rows[0][header.index("p_A_analytic")])

    # Independent route: the grid pipeline queried directly.
    b = difference_density(
        discretize(Deterministic(2.0), 4096),
        discretize(Weibull(scale=2.0, shape=5.0), 4096),
    )
    triple = self_sufficiency(
        b, BalanceQuery(s_prev=2.5, storage=StorageSpec(0.0, 5.0, 0.0))
    )
    assert p_a_closed == pytest.approx(triple.p_deficit, abs=1e-3)

    # Third route: analyze at the same stored level must tell the same story.
    analyze_out = tmp_path / "analyze.csv"
    code = main(
        [
            "analyze",
            "--scenario",
            "fig2_battery",
            "--s-prev",
            "2.5",
            "--out",
            str(analyze_out),
        ]
    )
    assert code == 0
    a_header, a_rows = _read_csv(analyze_out)
    p_deficit_grid = float(a_rows[0][a_header.index("p_deficit")])
    assert p_a_closed == pytest.approx(p_deficit_grid, abs=1e-3)


def test_sweep_requires_the_closed_form_pairing(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "day24_lognormal",
            "--out",
            str(tmp_path / "sweep.csv"),
        ]
    )
    assert code == 3
    assert "scenario error" in capsys.readouterr().err


# --- validate ---------------------------------------------------------------------


def test_validate_passes_on_fig2(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "validate",
            "--scenario",
            "fig2_battery",
            "--n",
            "20000",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "within MC confidence intervals" in text
    header, rows = _read_csv(out)
    assert header == ["source", "quantity", "analytic", "mc_p_hat", "ci_halfwidth", "within_ci"]
    # 1 step x 3 + 6 levels x (grid 3 + closed form 3)
    assert len(rows) == 3 + 6 * 6
    assert all(r[header.index("within_ci")] == "true" for r in rows)
    sources = {r[0] for r in rows}
    assert any("closed_form" in s for s in sources)
    assert any("grid" in s for s in sources)


def test_validate_small_n_warns_but_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "validate",
            "--scenario",
            "fig2_battery",
            "--n",
            "100",
            "--seed",
            "0",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "100" in captured.err
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["metadata"]["caveat"] is True


def test_validate_flags_a_corrupted_closed_form(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "weibull_closed_form",
        lambda g, s, storage, dem: ProbabilityTriple(0.9, 0.05, 0.05),
    )
    code = main(
        ["validate", "--scenario", "fig2_battery", "--n", "20000", "--seed", "0"]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "closed_form" in text


# --- exit-code taxonomy -------------------------------------------------------------


def test_exit_2_on_config_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cases = [
        ["analyze", "--scenario", "fig2_battery", "--s-prev", "-1", "--out", out],
        ["analyze", "--scenario", "fig2_battery", "--s-prev", "99", "--out", out],
        ["analyze", "--scenario", "no_such_scenario_anywhere", "--s-prev", "0", "--out", out],
        ["analyze", "--scenario", "fig2_battery", "--out", out],  # missing --s-prev
        ["analyze", "--scenario", "fig2_battery", "--s-prev", "0"],  # missing --out
        ["sweep", "--scenario", "fig2_battery"],  # missing --out
        ["validate", "--scenario", "fig2_battery", "--n", "0"],
        ["sweep", "--scenario", "fig2_battery", "--levels", "99", "--out", out],
        ["validate", "--scenario", "fig2_battery", "--levels", "nan"],
        ["analyze", "--scenario", "fig2_battery", "--s-prev", "0", "--out", out,
         "--grid-cells", str(cli.MAX_GRID_CELLS + 1)],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "config error" in capsys.readouterr().err
    # The largest allowed grid still runs.
    argv = ["analyze", "--scenario", "fig2_battery", "--s-prev", "0", "--out", out]
    assert main(argv + ["--grid-cells", str(cli.MAX_GRID_CELLS)]) == 0


@pytest.mark.parametrize(
    "command, scenario, n",
    [
        ("simulate", "fig2_battery", 10**12),
        ("validate", "fig2_battery", 10**12),
        ("sweep", "fig2_battery", 10**12),
        # simulate holds n x horizon values: just over the budget at 24 steps
        ("simulate", "day24_lognormal", cli.MAX_SAMPLE_BYTES // (8 * 24) + 1),
    ],
)
def test_exit_2_refuses_oversized_n_before_sampling(tmp_path, capsys, command, scenario, n):
    out = tmp_path / "x.csv"
    argv = [command, "--scenario", scenario, "--n", str(n), "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert peak < 2**20  # nothing sample-sized was allocated
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "200000"],
        ["analyze", "--s-prev", "0"],
        ["sweep", "--n", "200000"],
        ["validate", "--n", "200000"],
    ],
    ids=lambda argv: argv[0],
)
def test_exit_2_refuses_a_missing_out_directory_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in (
        "simulate_trajectory",
        "simulate_ensemble",
        "estimate_self_sufficiency",
        "sweep_battery_levels",
        "discretize",
        "difference_density",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--scenario", "fig2_battery", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--scenario", "fig2_battery", "--s-prev", "99"],
        ["simulate", "--scenario", "fig2_battery", "--grid-cells", "8", "--out", "x.csv"],
        ["analyze", "--scenario", "fig2_battery", "--s-prev", "0", "--levels", "1", "--out", "x.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_3_on_scenario_errors(tmp_path, capsys):
    bad_window = tmp_path / "bad.json"
    doc = json.loads(read_fixture_text("fig2_battery"))
    doc["storage"]["s_max"] = doc["storage"]["s_min"]
    bad_window.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        ["analyze", "--scenario", str(bad_window), "--s-prev", "0", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    assert "s_max > s_min" in capsys.readouterr().err

    not_json = tmp_path / "mangled.json"
    not_json.write_text("{", encoding="utf-8")
    code = main(
        ["analyze", "--scenario", str(not_json), "--s-prev", "0", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    assert "scenario error" in capsys.readouterr().err


FIG2_TEXT = read_fixture_text("fig2_battery")
HUGE_INT = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize(
    "document, out_name, code, message",
    [
        pytest.param(None, "missing/o.csv", 2, "config error", id="out-in-missing-directory"),
        pytest.param("", "o.csv", 2, "config error", id="scenario-is-a-directory"),
        pytest.param(b"\xff\xfe{}", "o.csv", 3, "not UTF-8", id="not-utf8"),
        pytest.param(
            FIG2_TEXT.replace('"s_max": 5.0', '"s_max": ' + "1" * 4301),
            "o.csv", 3, "not valid JSON", id="int-over-4300-digits",
        ),
        pytest.param("[" * 10**5 + "]" * 10**5, "o.csv", 3, "not valid JSON", id="nested-1e5-deep"),
        pytest.param(
            FIG2_TEXT.replace('"s_max": 5.0', '"s_max": ' + HUGE_INT),
            "o.csv", 3, "scenario.storage.s_max: must be finite", id="401-digit-number",
        ),
        pytest.param(
            FIG2_TEXT.replace(
                '{"kind": "weibull", "scale": 2.0, "shape": 5.0}',
                '{"kind": "empirical", "samples": [1.0, ' + HUGE_INT + "]}",
            ),
            "o.csv", 3, "demand.samples[1]: must be finite", id="401-digit-sample",
        ),
        pytest.param(
            FIG2_TEXT.replace(
                '{"kind": "weibull", "scale": 2.0, "shape": 5.0}',
                '{"kind": "lognormal", "mean": 1e200, "variance": 1.0}',
            ),
            "o.csv", 3, "scenario error", id="lognormal-moments-overflow",
        ),
    ],
)
def test_io_and_parse_failures_exit_with_their_code(tmp_path, capsys, document, out_name, code, message):
    # None: the bundled fixture; "": a directory; otherwise a file with these contents.
    if document is None:
        scenario = "fig2_battery"
    elif document == "":
        scenario = str(tmp_path)
    else:
        path = tmp_path / "scenario.json"
        path.write_bytes(document if isinstance(document, bytes) else document.encode("utf-8"))
        scenario = str(path)
    out = tmp_path / out_name
    argv = ["analyze", "--scenario", scenario, "--s-prev", "0", "--out", str(out)]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_exit_2_when_refinement_exceeds_the_cell_budget(tmp_path, capsys, command):
    # A near-atom generation refines the Weibull demand grid to ~1.3e7 cells.
    path = tmp_path / "narrow.json"
    path.write_text(
        FIG2_TEXT.replace(
            '{"kind": "deterministic", "value": 2.0}',
            '{"kind": "lognormal", "mu": 0.0, "sigma": 0.0001}',
        ),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if command == "analyze":
        argv += ["--s-prev", "0"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "config error" in err and str(MAX_BALANCE_CELLS) in err
    assert not out.exists()


def test_exit_4_when_truncation_budget_is_exceeded(tmp_path, capsys, monkeypatch):
    real_discretize = discretize
    monkeypatch.setattr(
        cli,
        "discretize",
        lambda dist, cells: real_discretize(dist, cells, coverage=0.9),
    )
    code = main(
        [
            "analyze",
            "--scenario",
            "fig2_battery",
            "--s-prev",
            "0",
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert code == 4
    assert "budget" in capsys.readouterr().err


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(command="analyze", scenario_path="fig2_battery", n=0, output_path="x", s_prev=0.0)
    with pytest.raises(ConfigError):
        RunConfig(command="frobnicate", scenario_path="fig2_battery")
    with pytest.raises(ConfigError):
        RunConfig(command="simulate", scenario_path="fig2_battery")  # no --out
    with pytest.raises(ConfigError):
        RunConfig(command="analyze", scenario_path="fig2_battery", output_path="x")  # no s_prev
    with pytest.raises(ConfigError):
        RunConfig(
            command="analyze",
            scenario_path="fig2_battery",
            output_path="x",
            s_prev=0.0,
            format="yaml",
        )


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
