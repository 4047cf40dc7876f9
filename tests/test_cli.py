"""End-to-end CLI behavior: commands, outputs, and the exit-code taxonomy."""

import csv
import ctypes
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import stochstore
import stochstore.cli as cli
import stochstore.montecarlo as montecarlo
from stochstore import (
    MAX_BALANCE_CELLS,
    Deterministic,
    ProbabilityTriple,
    StorageSpec,
    Weibull,
    discretize,
    point_mass_balance,
    self_sufficiency,
)
from stochstore.cli import main

from conftest import grid_from_masses, read_fixture_text

E_MINUS_1 = 0.36787944117144233
P_B_AT_4 = 0.03076676552365592
P_B_AT_5 = 0.6321205588285577


def _child_env(**extra):
    """The environment of a child Python that imports this checkout's stochstore."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(stochstore.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# Monte Carlo (deficit, overflow) counts of validate and sweep at n = 20000,
# recorded with one separate draw per estimate; the shared draws must give
# exactly count / n.  fig2's generation is deterministic, so its counts have
# not moved since they were recorded; day24's are conftest.estimate_reference's,
# whose two sides take turns by block.
PINNED_N = 20_000
PINNED_VALIDATE_FIG2 = (
    [(7442, 0)] * 3 + [(11, 0)] * 2 + [(0, 0)] * 4 + [(0, 599)] * 2 + [(0, 12558)] * 2
)
PINNED_VALIDATE_DAY24 = [
    (53, 96), (53, 91), (55, 87), (56, 83), (57, 79), (60, 76), (62, 74), (67, 71),
    (68, 71), (70, 66), (74, 59), (78, 58), (84, 57), (88, 56), (90, 54), (93, 54),
    (100, 52), (107, 51), (115, 49), (124, 48), (132, 46), (141, 45), (152, 43), (162, 41),
    (7582, 6), (635, 14), (114, 46), (30, 232), (9, 1491), (2, 12418),
]
PINNED_SWEEP_FIG2 = list(
    zip(
        [7442, 5596, 4016, 2622, 1644, 947, 492, 241, 105, 30, 11, 2, 1, 1] + [0] * 37,
        [0] * 34
        + [8, 22, 47, 107, 201, 358, 599, 969, 1512, 2191, 3072, 4158, 5453, 7006, 8794]
        + [10692, 12558],
    )
)


def _fractions(counts):
    return [(a / PINNED_N, b / PINNED_N, (PINNED_N - a - b) / PINNED_N) for a, b in counts]


# day24 at seed 3 reads 89/90: step 11's p_overflow, 59/20000 against the
# grid's 0.00415, is 0.00005 past its 3-standard-error halfwidth.  That is
# a false alarm of the gate (ROADMAP item 12), and the pin keeps it.
@pytest.mark.parametrize(
    "scenario, seed, counts, code",
    [
        ("fig2_battery", 0, PINNED_VALIDATE_FIG2, 0),
        ("day24_lognormal", 3, PINNED_VALIDATE_DAY24, 1),
    ],
    ids=["fig2", "day24"],
)
def test_validate_monte_carlo_column_is_pinned(tmp_path, scenario, seed, counts, code):
    out = tmp_path / "v.json"
    argv = ["validate", "--scenario", scenario, "--n", str(PINNED_N), "--seed", str(seed)]
    assert main([*argv, "--format", "json", "--out", str(out)]) == code
    mc = json.loads(out.read_text(encoding="utf-8"))["columns"]["mc_p_hat"]
    assert [tuple(mc[i : i + 3]) for i in range(0, len(mc), 3)] == _fractions(counts)


def test_sweep_monte_carlo_columns_are_pinned(tmp_path):
    out = tmp_path / "s.json"
    argv = ["sweep", "--scenario", "fig2_battery", "--n", str(PINNED_N), "--seed", "0"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    columns = json.loads(out.read_text(encoding="utf-8"))["columns"]
    mc = list(zip(columns["p_A_mc"], columns["p_B_mc"], columns["p_self_mc"]))
    assert mc == _fractions(PINNED_SWEEP_FIG2)


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


# np.quantile and a plain np.unique import numpy.ma, about 1.4 MB resident.
NUMPY_MA_CHILD = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
from stochstore import cli
code = cli.main(["simulate", "--scenario", "day24_lognormal", "--n", "100", "--out", sys.argv[1]])
print(code, "numpy.ma" in sys.modules)
"""


def test_simulate_never_imports_numpy_ma(tmp_path):
    env = _child_env()
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_CHILD, str(tmp_path / "run.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if done.returncode == 3:
        pytest.skip("import numpy alone loads numpy.ma")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]


def test_an_existing_longer_output_holds_exactly_the_new_bytes(tmp_path):
    fresh = tmp_path / "fresh" / "run.csv"
    fresh.parent.mkdir()
    argv_tail = ["--scenario", "day24_lognormal", "--n", "50", "--seed", "2"]
    assert main(["simulate", *argv_tail, "--out", str(fresh)]) == 0
    out = tmp_path / "run.csv"
    written = (out, out.with_name("run_ensemble.csv"))
    for path in written:
        path.write_bytes(b"x" * 100_000)
        path.chmod(0o640)
    assert main(["simulate", *argv_tail, "--out", str(out)]) == 0
    for path in written:
        assert path.read_bytes() == fresh.with_name(path.name).read_bytes()
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_a_fifo_output_is_written_without_the_cut(tmp_path):
    argv = ["analyze", "--scenario", "fig2_battery", "--s-prev", "1", "--out"]
    assert main([*argv, str(tmp_path / "p.csv")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main([*argv, str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [(tmp_path / "p.csv").read_bytes()]


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

    # Independent route: the exact point-mass balance queried directly.
    b = point_mass_balance(Deterministic(2.0), Weibull(scale=2.0, shape=5.0))
    triple = self_sufficiency(b, 2.5, StorageSpec(0.0, 5.0, 0.0))
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


def test_validate_grids_each_distinct_distribution_once(monkeypatch):
    # day24 shares one generation log-normal across its 24 steps.
    gridded = []

    def recording(dist, cells):
        gridded.append(dist)
        return discretize(dist, cells)

    monkeypatch.setattr(cli, "discretize", recording)
    assert main(["validate", "--scenario", "day24_lognormal", "--n", "20000"]) == 0
    assert len(gridded) == len(set(gridded)) == 25


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


EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "200000"],
        ["analyze", "--s-prev", "0"],
        ["sweep", "--n", "200000"],
        ["validate", "--n", "200000"],
    ],
    ids=lambda argv: argv[0],
)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command loads its scenario or starts any work."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in (
        "load_scenario",
        "simulate_ensemble",
        "estimate_steps",
        "discretize",
        "difference_density",
        "point_mass_balance",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    # The sweep reaches the sampler through montecarlo's own estimate_steps.
    monkeypatch.setattr(montecarlo, "estimate_steps", must_not_run)


@EVERY_COMMAND
def test_exit_2_refuses_a_missing_out_directory_before_any_work(tmp_path, capsys, no_work, argv):
    out = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--scenario", "fig2_battery", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


@EVERY_COMMAND
def test_exit_2_refuses_a_directory_out_before_any_work(tmp_path, capsys, no_work, argv):
    out = tmp_path / "out.csv"
    out.mkdir()
    assert main([*argv, "--scenario", "fig2_battery", "--out", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["out.csv"]


def test_exit_2_refuses_a_directory_ensemble_path_before_any_work(tmp_path, capsys, no_work):
    (tmp_path / "run_ensemble.csv").mkdir()
    argv = ["simulate", "--scenario", "fig2_battery", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == 2
    assert "run_ensemble.csv is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["run_ensemble.csv"]


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


@pytest.mark.parametrize("levels", ["", "1,,2", "x"])
def test_levels_that_are_not_a_list_of_numbers_exit_2(capsys, levels):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--scenario", "fig2_battery", "--levels", levels, "--out", "x.csv"])
    assert info.value.code == 2
    assert f"expected a comma-separated list of numbers, got {levels!r}" in capsys.readouterr().err


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
# Finite parameters whose largest values overflow the float range.
OVERFLOWING_DOCUMENTS = {
    "lognormal-mu-800": FIG2_TEXT.replace(
        '{"kind": "deterministic", "value": 2.0}', '{"kind": "lognormal", "mu": 800, "sigma": 1}'
    ),
    "weibull-shape-0.001": FIG2_TEXT.replace(
        '{"kind": "weibull", "scale": 2.0, "shape": 5.0}',
        '{"kind": "weibull", "scale": 2, "shape": 0.001}',
    ),
    "weibull-scale-1e308": FIG2_TEXT.replace(
        '{"kind": "weibull", "scale": 2.0, "shape": 5.0}',
        '{"kind": "weibull", "scale": 1e308, "shape": 1}',
    ),
}


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
        *(
            pytest.param(document, "o.csv", 3, "overflow the float range", id=name)
            for name, document in OVERFLOWING_DOCUMENTS.items()
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


# Deterministic 3 against Empirical [1, 3] in an empty [0, 5] store: the
# balance is 0 half the time, which is a deficit.
TIE_SCENARIO = {
    "name": "tie", "energy_unit": "kWh", "horizon": 1,
    "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0},
    "steps": [{
        "generation": {"kind": "deterministic", "value": 3.0},
        "demand": {"kind": "empirical", "samples": [1.0, 3.0]},
    }],
}


def test_the_tie_reads_its_exact_deficit(tmp_path, capsys):
    tie = tmp_path / "tie.json"
    tie.write_text(json.dumps(TIE_SCENARIO), encoding="utf-8")
    out = tmp_path / "analyze.csv"
    assert main(["analyze", "--scenario", str(tie), "--s-prev", "0", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert float(rows[0][header.index("p_deficit")]) == 0.5
    assert float(rows[0][header.index("truncated_mass")]) == 0.0
    assert main(["validate", "--scenario", str(tie), "--n", "20000"]) == 0
    assert "21/21" in capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_keeps_the_commands_exit_code(tmp_path, unbuffered):
    env = _child_env(PYTHONUNBUFFERED=unbuffered)
    python = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "stochstore"]
    runs = [
        (["analyze", "--scenario", "fig2_battery", "--s-prev", "0"], 0),
        (["validate", "--scenario", "fig2_battery", "--n", "20000"], 0),
        # A seeded false alarm on the cell-grid route.
        (["validate", "--scenario", "day24_lognormal", "--n", "20000", "--seed", "4"], 1),
    ]
    for k, (argv, code) in enumerate(runs):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [*python, *argv, "--out", str(tmp_path / f"{k}.csv")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.returncode == code, (argv, child.stderr)
        # Under -X dev a leaked descriptor would be reported here.
        assert child.stderr == "", (argv, child.stderr)
        # The same command with an open stdout writes the same --out bytes.
        assert main([*argv, "--out", str(tmp_path / f"{k}_open.csv")]) == code
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}_open.csv").read_bytes()


# analyze takes these documents in test_io_and_parse_failures_exit_with_their_code.
@pytest.mark.parametrize("command", ["simulate", "sweep", "validate"])
def test_every_command_refuses_overflowing_parameters_with_exit_3(tmp_path, capsys, command):
    for name, document in OVERFLOWING_DOCUMENTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(document, encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 3, name
        assert "overflow the float range" in capsys.readouterr().err
        assert not out.exists()


# fig2 with a huge generation: each draw is finite (its 1 - 2**-53
# quantile is about 1.6e307), its grid is wider than the float range of
# cells, and the sum of 10**5 of its balances overflows.
HUGE_GENERATION = '{"kind": "lognormal", "mu": 700, "sigma": 1}'


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_exit_2_when_refinement_exceeds_the_cell_budget(tmp_path, capsys, command):
    # A near-atom generation refines the Weibull demand grid to ~1.3e7
    # cells; a huge one would need an infinite count of them.
    for name, generation in (
        ("narrow", '{"kind": "lognormal", "mu": 0.0, "sigma": 0.0001}'),
        ("huge", HUGE_GENERATION),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(
            FIG2_TEXT.replace('{"kind": "deterministic", "value": 2.0}', generation),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", str(path), "--out", str(out)]
        if command == "analyze":
            argv += ["--s-prev", "0"]
        start = time.perf_counter()
        assert main(argv) == 2, name
        assert time.perf_counter() - start < 1.0, name
        err = capsys.readouterr().err
        assert "config error" in err and str(MAX_BALANCE_CELLS) in err, name
        assert not out.exists()


def test_a_lognormal_narrower_than_float_resolution_exits_2(tmp_path, capsys):
    # At sigma 1e-300 the quantile window rounds to [1.0, 1.0]: no float step
    # grids it.  At 1e-17 it is one ulp wide, and its cells hold half the mass.
    for sigma, message in (
        ("1e-300", "degenerate quantile window [1.0, 1.0]"),
        ("1e-17", "[0.9999999999999999, 1.0] hold only 0.5 of its mass"),
    ):
        path = tmp_path / f"sigma{sigma}.json"
        path.write_text(
            FIG2_TEXT.replace(
                '{"kind": "deterministic", "value": 2.0}',
                f'{{"kind": "lognormal", "mu": 0, "sigma": {sigma}}}',
            ),
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        for command in ("analyze", "validate"):
            argv = [command, "--scenario", str(path), "--out", str(out)]
            if command == "analyze":
                argv += ["--s-prev", "0"]
            assert main(argv) == 2, (sigma, command)
            err = capsys.readouterr().err
            assert "config error" in err and message in err, (sigma, command)
            assert "Traceback" not in err, (sigma, command)
            assert not out.exists()
        assert main(["simulate", "--scenario", str(path), "--n", "1000", "--out", str(out)]) == 0
        capsys.readouterr()
        out.unlink()


def test_a_weibull_window_of_a_few_ulps_exits_2(tmp_path, capsys):
    # At shape 3.6e16 both quantiles of the window round to within 5 ulps of
    # the scale, and the cells hold only 1 - 1/e of the mass: discretize
    # refuses the grid (exit 2) at any --grid-cells, before a query sees it.
    # The demand is continuous, so the step is gridded.
    doc = json.loads(FIG2_TEXT)
    doc["storage"]["s_init"] = 0.0
    doc["steps"][0] = {
        "generation": {"kind": "weibull", "scale": 1e12, "shape": 3.5945323362896544e16},
        "demand": {"kind": "weibull", "scale": 2.0, "shape": 5.0},
    }
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o.csv"
    runs = [
        ["analyze", "--s-prev", "0", "--grid-cells", "2"],
        ["analyze", "--s-prev", "0"],
        ["validate", "--n", "1000", "--grid-cells", "65536"],
    ]
    for argv in runs:
        assert main([*argv, "--scenario", str(path), "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "config error: cannot grid Weibull" in err and "hold only 0.632121" in err, argv
        assert not out.exists()


def test_a_lognormal_mean_whose_square_underflows_exits_3_in_every_command(tmp_path, capsys):
    path = tmp_path / "tiny_mean.json"
    path.write_text(
        FIG2_TEXT.replace(
            '{"kind": "deterministic", "value": 2.0}',
            '{"kind": "lognormal", "mean": 1e-300, "variance": 1e-300}',
        ),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    for command in ("simulate", "analyze", "sweep", "validate"):
        argv = [command, "--scenario", str(path), "--out", str(out)]
        if command == "analyze":
            argv += ["--s-prev", "0"]
        assert main(argv) == 3, command
        err = capsys.readouterr().err
        assert "scenario error: scenario.steps[0].generation:" in err, command
        assert "underflows" in err, command
        assert not out.exists()


@pytest.mark.parametrize(
    "samples, cells",
    [("[1.0, 1.0000000000001]", 4096), ("[1.0, 1.000000000001]", 65536), ("[0.0, 5e-324]", 2)],
)
def test_an_empirical_range_without_float_cells_is_read_exactly(tmp_path, capsys, samples, cells):
    path = tmp_path / "narrow.json"
    path.write_text(
        FIG2_TEXT.replace(
            '{"kind": "deterministic", "value": 2.0}',
            f'{{"kind": "empirical", "samples": {samples}}}',
        ),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    argv = ["--scenario", str(path), "--grid-cells", str(cells), "--out", str(out)]
    assert main(["analyze", *argv, "--s-prev", "0"]) == 0
    header, rows = _read_csv(out)
    # From an empty store Pr[g - D <= 0] = Pr[D >= g], averaged over the samples.
    demand = Weibull(scale=2.0, shape=5.0)
    exact = sum(1.0 - demand.cdf(g) for g in json.loads(samples)) / 2
    assert float(rows[0][header.index("p_deficit")]) == pytest.approx(exact, rel=1e-8)
    assert main(["simulate", "--scenario", str(path), "--n", "100", "--out", str(out)]) == 0


def test_exit_2_when_the_ensemble_balance_total_overflows(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        FIG2_TEXT.replace('{"kind": "deterministic", "value": 2.0}', HUGE_GENERATION),
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    argv = ["simulate", "--scenario", str(path), "--out", str(out)]
    assert main(argv + ["--n", "1000"]) == 0
    capsys.readouterr()
    out.unlink()
    assert main(argv + ["--n", "100000"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--n 100000" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize(
    "generation",
    [
        # Alone over the budget: refined to the demand's step, the generation
        # grid needs about 4.1e303 cells.
        {"kind": "weibull", "scale": 1e300, "shape": 1.0},
        # Each input alone within it: the demand grid refines to 4192085
        # cells, and the generation's own 4096 put the sum over.
        {"kind": "lognormal", "mean": 1.0, "variance": 2.655e-6},
    ],
    ids=["one_input_over", "sum_over"],
)
def test_the_cell_budget_is_refused_with_one_message(tmp_path, capsys, command, generation):
    doc = {
        "name": "over_budget",
        "energy_unit": "kWh",
        "horizon": 1,
        "storage": {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0},
        "steps": [{"generation": generation, "demand": {"kind": "weibull", "scale": 1.0, "shape": 1.0}}],
    }
    path = tmp_path / "over_budget.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o.csv"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if command == "analyze":
        argv += ["--s-prev", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: the balance grid needs " in err
    assert "cells at the finer input step" in err and "over the budget of 4194304" in err
    assert not out.exists()


def test_validate_refuses_an_over_budget_grid_before_sampling(tmp_path, capsys, monkeypatch):
    # Step 1 is fig2's; step 2's near-atom generation is over the cell budget.
    doc = json.loads(FIG2_TEXT)
    doc["horizon"] = 2
    doc["steps"].append(
        {
            "generation": {"kind": "lognormal", "mu": 0.0, "sigma": 0.0001},
            "demand": doc["steps"][0]["demand"],
        }
    )
    path = tmp_path / "two_steps.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def must_not_run(*args, **kwargs):
        raise AssertionError("sampling started before every grid was built")

    monkeypatch.setattr(cli, "estimate_steps", must_not_run)
    out = tmp_path / "o.csv"
    assert main(["validate", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(MAX_BALANCE_CELLS) in err
    assert not out.exists()


def test_exit_4_when_truncation_budget_is_exceeded(tmp_path, capsys, monkeypatch):
    def truncated(dist, cells):
        grid = discretize(dist, cells)
        return grid_from_masses(grid.origin, grid.step, 0.9 * grid.masses)

    monkeypatch.setattr(cli, "discretize", truncated)
    code = main(
        [
            "analyze",
            "--scenario",
            "day24_lognormal",
            "--s-prev",
            "0",
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert code == 4
    assert "budget" in capsys.readouterr().err


def test_run_config_validation(tmp_path, capsys):
    # Checks argparse cannot make: main returns 2 and writes nothing.
    out = str(tmp_path / "x.csv")
    cases = {
        "--n": ["analyze", "--scenario", "fig2_battery", "--n", "0", "--out", out, "--s-prev", "0"],
        "--seed": ["analyze", "--scenario", "fig2_battery", "--seed", "-1", "--out", out,
                   "--s-prev", "0"],
        "--out": ["simulate", "--scenario", "fig2_battery"],
        "--s-prev": ["analyze", "--scenario", "fig2_battery", "--out", out],
        "--scenario": ["validate", "--scenario", ""],
    }
    for flag, argv in cases.items():
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and flag in err, (argv, err)
    assert not Path(out).exists()
    # An unknown command and a bad --format are argparse's own errors.
    for argv in (
        ["frobnicate", "--scenario", "fig2_battery"],
        ["analyze", "--scenario", "fig2_battery", "--out", out, "--s-prev", "0",
         "--format", "yaml"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# --- one process, many commands -----------------------------------------------------


def _validate_levels(out):
    sources = json.loads(out.read_text(encoding="utf-8"))["columns"]["source"]
    return sorted({float(s[len("level[") : s.index("]")]) for s in sources if s.startswith("level[")})


def test_a_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    report = tmp_path / "v.json"
    validate = ["validate", "--scenario", "fig2_battery", "--n", "20000", "--format", "json",
                "--out", str(report)]
    assert main([*validate, "--levels", "1,2"]) == 0
    assert _validate_levels(report) == [1.0, 2.0]
    assert main(validate) == 0
    assert _validate_levels(report) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]  # the default 6 levels

    probs = tmp_path / "a.json"
    analyze = ["analyze", "--scenario", "day24_lognormal", "--s-prev", "5", "--format", "json",
               "--out", str(probs)]
    assert main([*analyze, "--step", "3"]) == 0
    assert json.loads(probs.read_text(encoding="utf-8"))["columns"]["step"] == [3]
    assert main(analyze) == 0
    assert json.loads(probs.read_text(encoding="utf-8"))["columns"]["step"] == [1]

    exits = [
        (["analyze", "--scenario", "fig2_battery", "--s-prev", "x"], 2),
        (["bogus"], 2),
        (["--version"], 0),
        (["-h"], 0),
        (["simulate", "-h"], 0),
    ]
    for argv, code in exits:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code, argv
        assert main(validate) == 0, argv  # a valid call still succeeds afterwards
        assert _validate_levels(report) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    capsys.readouterr()


def test_an_edited_scenario_file_is_parsed_again(tmp_path):
    path = tmp_path / "scenario.json"
    out = tmp_path / "p.json"
    argv = ["analyze", "--scenario", str(path), "--s-prev", "0", "--format", "json", "--out", str(out)]
    path.write_text(FIG2_TEXT, encoding="utf-8")
    assert main(argv) == 0
    first = json.loads(out.read_text(encoding="utf-8"))
    path.write_text(
        FIG2_TEXT.replace('"fig2_battery"', '"edited"').replace('"value": 2.0', '"value": 4.0'),
        encoding="utf-8",
    )
    assert main(argv) == 0
    second = json.loads(out.read_text(encoding="utf-8"))
    assert (first["metadata"]["scenario"], second["metadata"]["scenario"]) == ("fig2_battery", "edited")
    assert second["columns"]["p_deficit"][0] < first["columns"]["p_deficit"][0]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Minor page faults of the last of repeated in-process calls.
REPEATED_CALLS_CHILD = """\
import contextlib, io, resource, sys
from stochstore.cli import main

def last_call_faults(argv, calls):
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

out = sys.argv[1]
analyze = ["analyze", "--scenario", "day24_lognormal", "--s-prev", "5", "--step", "12",
           "--grid-cells", "16384", "--out", out + "/a.csv"]
sweep = ["sweep", "--scenario", "fig2_battery", "--n", "250000", "--out", out + "/s.csv"]
print(last_call_faults(analyze, 3), last_call_faults(sweep, 2))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_repeated_commands_reuse_freed_memory(tmp_path):
    # With glibc's adaptive thresholds the last analyze took about 2000 minor
    # faults and the last sweep about 48000: each freed temporary went back to
    # the OS and came back as fresh zeroed pages.
    env = _child_env()
    done = subprocess.run(
        [sys.executable, "-c", REPEATED_CALLS_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    analyze_faults, sweep_faults = map(int, done.stdout.split())
    assert analyze_faults < 200
    assert sweep_faults < 1000


def _no_dlopen(name):
    raise OSError("no shared objects")


@pytest.mark.parametrize("cdll", [_no_dlopen, lambda name: object()], ids=["no-dlopen", "no-mallopt"])
def test_retaining_freed_memory_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._retain_freed_memory.__wrapped__() is None


def test_retaining_freed_memory_sets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._retain_freed_memory.__wrapped__()
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]  # M_MMAP_ then M_TRIM_THRESHOLD
