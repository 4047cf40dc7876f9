"""Scenario JSON parsing, serialization round-trips, and result tables."""

import csv
import io
import json

import numpy as np
import pytest

from stochstore import (
    Deterministic,
    Empirical,
    LogNormal,
    ResultTable,
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    StorageSpec,
    Weibull,
    lognormal_from_moments,
    parse_scenario,
    serialize_scenario,
    write_results,
)
from stochstore.scenario import Scenario, StepSpec, _csv_cell

from conftest import read_fixture_text


def _fig2_doc():
    return json.loads(read_fixture_text("fig2_battery"))


# --- parsing the bundled fixtures ---------------------------------------------


def test_parse_fig2_fixture(fig2_scenario):
    s = fig2_scenario
    assert s.name == "fig2_battery"
    assert s.energy_unit == "kWh"
    assert s.horizon == 1
    assert s.storage == StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)
    assert s.steps[0].generation == Deterministic(2.0)
    assert s.steps[0].demand == Weibull(scale=2.0, shape=5.0)


def test_parse_day24_fixture(day24_scenario):
    s = day24_scenario
    assert s.energy_unit == "MWh"
    assert s.horizon == 24
    assert len(s.steps) == 24
    assert s.storage.s_max == 10.0
    assert s.steps[0].demand == lognormal_from_moments(0.94, 0.75)
    assert all(isinstance(step.generation, LogNormal) for step in s.steps)


# --- round trips ----------------------------------------------------------------


def test_round_trip_fixtures(fig2_scenario, day24_scenario):
    for scenario in (fig2_scenario, day24_scenario):
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario
        # Serialization is canonical: a second pass is byte-identical.
        assert serialize_scenario(again) == serialize_scenario(scenario)


def test_round_trip_all_distribution_kinds():
    scenario = Scenario(
        name="mixed",
        energy_unit="kWh",
        storage=StorageSpec(0.0, 8.0, 1.0),
        steps=(
            StepSpec(Deterministic(2.0), Weibull(scale=1.5, shape=3.0)),
            StepSpec(LogNormal(mu=0.1, sigma=0.4), Empirical(samples=(0.5, 1.0, 2.0))),
        ),
        description="one of each",
    )
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_moment_form_survives_round_trip():
    doc = _fig2_doc()
    doc["steps"][0]["generation"] = {"kind": "lognormal", "mean": 1.25, "variance": 1.0}
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.steps[0].generation == lognormal_from_moments(1.25, 1.0)
    assert parse_scenario(serialize_scenario(scenario)) == scenario


# --- parse errors ----------------------------------------------------------------


def test_syntax_error_on_malformed_json():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{not json")


def _mutate(path, value, *, delete=False):
    doc = _fig2_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "document, exc, fragment",
    [
        (_mutate(("name",), None, delete=True), ScenarioSchemaError, "name"),
        (_mutate(("extra_key",), 1), ScenarioSchemaError, "extra_key"),
        (_mutate(("energy_unit",), "BTU"), ScenarioSchemaError, "energy_unit"),
        (_mutate(("horizon",), 2.5), ScenarioSchemaError, "horizon"),
        (_mutate(("horizon",), 0), ScenarioInvariantError, "horizon"),
        (_mutate(("horizon",), 3), ScenarioInvariantError, "steps"),
        (_mutate(("storage", "s_max"), 0.0), ScenarioInvariantError, "s_max > s_min"),
        (_mutate(("storage", "s_init"), 9.0), ScenarioInvariantError, "storage"),
        (_mutate(("storage", "s_min"), None, delete=True), ScenarioSchemaError, "s_min"),
        (
            _mutate(("steps", 0, "demand", "kind"), "gamma"),
            ScenarioSchemaError,
            "kind",
        ),
        (
            _mutate(("steps", 0, "demand", "scale"), -2.0),
            ScenarioInvariantError,
            "steps[0].demand",
        ),
        (
            _mutate(("steps", 0, "generation", "value"), True),
            ScenarioSchemaError,
            "number",
        ),
        (_mutate(("steps",), 42), ScenarioSchemaError, "steps"),
    ],
    ids=[
        "missing-name",
        "unknown-key",
        "bad-energy-unit",
        "fractional-horizon",
        "zero-horizon",
        "horizon-step-mismatch",
        "empty-storage-window",
        "s_init-outside-window",
        "missing-s_min",
        "unknown-distribution-kind",
        "negative-weibull-scale",
        "boolean-as-number",
        "steps-not-an-array",
    ],
)
def test_parse_errors_name_the_offending_field(document, exc, fragment):
    with pytest.raises(exc) as info:
        parse_scenario(document)
    assert fragment in str(info.value)


def test_lognormal_parameterizations_are_exclusive():
    doc = _fig2_doc()
    doc["steps"][0]["generation"] = {
        "kind": "lognormal",
        "mu": 0.0,
        "sigma": 1.0,
        "mean": 1.25,
    }
    with pytest.raises(ScenarioSchemaError):
        parse_scenario(json.dumps(doc))
    doc["steps"][0]["generation"] = {"kind": "lognormal", "mu": 0.0}
    with pytest.raises(ScenarioSchemaError):
        parse_scenario(json.dumps(doc))


# --- ResultTable -----------------------------------------------------------------


META = {"scenario": "fig2_battery", "seed": 0, "n": 1000, "version": "0.1.0"}


def test_result_table_validation():
    table = ResultTable(columns=("a", "b"), rows=((1.0, 2.0), (3.0, 4.0)), metadata=META)
    assert len(table.rows) == 2
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), rows=((1.0,),), metadata=META)
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "a"), rows=(), metadata=META)
    with pytest.raises(ValueError):
        ResultTable(columns=("a",), rows=((float("nan"),),), metadata=META)
    with pytest.raises(ValueError):
        ResultTable(columns=("a",), rows=((1.0,),), metadata={"scenario": "x"})


# --- write_results ---------------------------------------------------------------


def test_csv_output_shape_and_formatting():
    table = ResultTable(
        columns=("step", "value", "flag"),
        rows=((1, 0.123456789123, True), (2, 1e-9, False)),
        metadata=META,
    )
    payload = write_results(table, format="csv")
    text = payload.decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "step,value,flag"
    assert lines[1] == "1,0.123456789,true"
    assert lines[2] == "2,1e-09,false"
    assert text.endswith("\n")
    assert "\r" not in text


def _csv_writer_reference(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def test_csv_rows_match_the_csv_writer_reference():
    numbers = (7, np.float64(1.0 / 3.0), -0.0, 5e-324, 1e308, 0.1 + 0.2, 2**70)
    table = ResultTable(
        columns=("i", "f64", "negzero", "tiny", "huge", "sum", "big", "cell"),
        rows=(
            (*numbers, 'a, "quoted" cell'),
            (*numbers, True),
            (*numbers, np.float64(-2.5e-10)),  # numbers only: the one-format path
            (-1, np.float64(1e22), 0.0, 1e-5, 123456789.5, 1e16, 0, 4),
        ),
        metadata=META,
    )
    payload = write_results(table, format="csv")
    assert payload == _csv_writer_reference(table)
    lines = payload.decode("utf-8").splitlines()
    assert lines[1].endswith(',"a, ""quoted"" cell"')
    assert lines[3] == "7,0.333333333,-0,4.94065646e-324,1e+308,0.3,1180591620717411303424,-2.5e-10"


def test_parse_scenario_reuses_a_document_and_raises_its_errors_every_time():
    text = read_fixture_text("fig2_battery")
    assert parse_scenario(text) is parse_scenario(text)
    doc = _fig2_doc()
    doc["horizon"] = 0
    for _ in range(3):
        with pytest.raises(ScenarioInvariantError, match="scenario.horizon: must be >= 1"):
            parse_scenario(json.dumps(doc))


def test_csv_empty_table_is_header_only():
    table = ResultTable(columns=("x", "y"), rows=(), metadata=META)
    assert write_results(table, format="csv") == b"x,y\n"


def test_write_results_is_byte_stable():
    table = ResultTable(
        columns=("level", "p"),
        rows=tuple((float(i), i / 7.0) for i in range(6)),
        metadata=META,
    )
    payload = write_results(table, format="csv")
    assert payload == write_results(table, format="csv")
    assert payload.decode("utf-8").count("\n") == 7  # header + 6 rows
    assert write_results(table, format="json") == write_results(table, format="json")


def test_json_output_round_trips_at_full_precision():
    rows = ((0.1 + 0.2, 1.0 / 3.0), (2.0**-40, 1234567.891011))
    table = ResultTable(columns=("a", "b"), rows=rows, metadata=META)
    doc = json.loads(write_results(table, format="json"))
    assert doc["metadata"]["scenario"] == "fig2_battery"
    assert doc["metadata"]["seed"] == 0
    assert doc["columns"]["a"] == [rows[0][0], rows[1][0]]
    assert doc["columns"]["b"][1] == rows[1][1]


def test_write_results_rejects_unknown_format():
    table = ResultTable(columns=("a",), rows=(), metadata=META)
    with pytest.raises(ValueError):
        write_results(table, format="parquet")
