"""Scenario documents and result tables.

A scenario is a JSON document:

    {
      "name": "fig2_battery",
      "energy_unit": "kWh",                  # label only: "kWh" or "MWh"
      "horizon": 1,                          # number of steps, >= 1
      "storage": {"s_min": 0, "s_max": 5, "s_init": 0},
      "steps": [
        {
          "generation": {"kind": "deterministic", "value": 2.0},
          "demand": {"kind": "weibull", "scale": 2.0, "shape": 5.0}
        }
      ],
      "description": "optional free text"
    }

Distribution nodes are tagged by "kind":

    {"kind": "deterministic", "value": v}
    {"kind": "weibull", "scale": s, "shape": k}
    {"kind": "lognormal", "mu": m, "sigma": s}       # log-space form
    {"kind": "lognormal", "mean": m, "variance": v}  # moment form
    {"kind": "empirical", "samples": [..]}

The two log-normal forms are mutually exclusive within one node; the
moment form is converted via ``lognormal_from_moments`` at parse time.
Units are never converted — the label is carried into reports as-is.

Failures are classified: :class:`ScenarioSyntaxError` (not UTF-8 JSON),
:class:`ScenarioSchemaError` (wrong shape: missing/unknown/mistyped
fields), :class:`ScenarioInvariantError` (well-formed but violating a
domain rule).  Every message carries the offending field path.

``parse_scenario`` keeps the last few parsed documents: an unchanged
document returns the same (immutable) :class:`Scenario`; errors are raised
again on every call.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field

from .distributions import (
    Deterministic,
    Distribution,
    Empirical,
    LogNormal,
    Weibull,
    lognormal_from_moments,
)
from .storage import StorageSpec

__all__ = [
    "ScenarioError",
    "ScenarioSyntaxError",
    "ScenarioSchemaError",
    "ScenarioInvariantError",
    "StepSpec",
    "Scenario",
    "ResultTable",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "write_results",
]

ENERGY_UNITS = ("kWh", "MWh")


class ScenarioError(Exception):
    """Base for scenario document failures."""


class ScenarioSyntaxError(ScenarioError):
    """The document is not parseable at all."""


class ScenarioSchemaError(ScenarioError):
    """The document parses but does not have the scenario shape."""


class ScenarioInvariantError(ScenarioError):
    """The document is well-formed but violates a domain rule."""


@dataclass(frozen=True)
class StepSpec:
    """Generation and demand models for one time step."""

    generation: Distribution
    demand: Distribution


@dataclass(frozen=True)
class Scenario:
    name: str
    energy_unit: str
    storage: StorageSpec
    steps: tuple[StepSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("scenario requires at least one step")

    @property
    def horizon(self) -> int:
        return len(self.steps)


# --- parsing ---------------------------------------------------------------


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioSchemaError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    missing = required - node.keys()
    if missing:
        raise ScenarioSchemaError(f"{path}: missing required field(s) {sorted(missing)}")
    unknown = node.keys() - required - optional
    if unknown:
        raise ScenarioSchemaError(f"{path}: unknown field(s) {sorted(unknown)}")


def _number(node: dict, path: str, key: str) -> float:
    return _finite(node[key], f"{path}.{key}")


def _finite(v, where: str) -> float:
    # bool is an int subclass; reject it explicitly.
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioSchemaError(f"{where}: expected a number, got {type(v).__name__}")
    try:
        v = float(v)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioInvariantError(f"{where}: must be finite, got {v!r}")
    return v


def _text(node: dict, path: str, key: str) -> str:
    v = node[key]
    if not isinstance(v, str):
        raise ScenarioSchemaError(f"{path}.{key}: expected a string, got {type(v).__name__}")
    return v


def _parse_distribution(node, path: str) -> Distribution:
    node = _require_mapping(node, path)
    if "kind" not in node:
        raise ScenarioSchemaError(f"{path}: missing required field(s) ['kind']")
    kind = _text(node, path, "kind")
    try:
        if kind == "deterministic":
            _check_keys(node, path, {"kind", "value"})
            dist = Deterministic(_number(node, path, "value"))
        elif kind == "weibull":
            _check_keys(node, path, {"kind", "scale", "shape"})
            dist = Weibull(scale=_number(node, path, "scale"), shape=_number(node, path, "shape"))
        elif kind == "lognormal":
            params = node.keys() - {"kind"}
            if params == {"mu", "sigma"}:
                dist = LogNormal(mu=_number(node, path, "mu"), sigma=_number(node, path, "sigma"))
            elif params == {"mean", "variance"}:
                dist = lognormal_from_moments(
                    _number(node, path, "mean"), _number(node, path, "variance")
                )
            else:
                raise ScenarioSchemaError(
                    f"{path}: lognormal takes exactly {{mu, sigma}} or {{mean, variance}}, "
                    f"got {sorted(params)}"
                )
        elif kind == "empirical":
            _check_keys(node, path, {"kind", "samples"})
            raw = node["samples"]
            if not isinstance(raw, list):
                raise ScenarioSchemaError(
                    f"{path}.samples: expected an array, got {type(raw).__name__}"
                )
            dist = Empirical(
                samples=tuple(_finite(v, f"{path}.samples[{i}]") for i, v in enumerate(raw))
            )
        else:
            raise ScenarioSchemaError(
                f"{path}.kind: unknown distribution kind {kind!r} "
                f"(expected deterministic, weibull, lognormal, or empirical)"
            )
        # Finite parameters may still give values past the float range.  The
        # 1 - 2**-53 quantile is the largest Weibull draw and bounds the grid window.
        if not math.isfinite(dist.quantile(1.0 - 2.0**-53)):
            raise OverflowError
    except OverflowError as e:
        raise ScenarioInvariantError(f"{path}: values overflow the float range") from e
    except ValueError as e:
        raise ScenarioInvariantError(f"{path}: {e}") from e
    return dist


@functools.lru_cache(maxsize=8)
def parse_scenario(document: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    # ValueError: malformed JSON or an integer literal over Python's digit limit;
    # RecursionError: arrays or objects nested too deep for the decoder.
    try:
        root = json.loads(document)
    except (ValueError, RecursionError) as e:
        raise ScenarioSyntaxError(f"scenario: not valid JSON: {e}") from e

    root = _require_mapping(root, "scenario")
    _check_keys(
        root,
        "scenario",
        {"name", "energy_unit", "horizon", "storage", "steps"},
        optional={"description"},
    )
    name = _text(root, "scenario", "name")
    unit = _text(root, "scenario", "energy_unit")
    if unit not in ENERGY_UNITS:
        raise ScenarioSchemaError(
            f"scenario.energy_unit: expected one of {list(ENERGY_UNITS)}, got {unit!r}"
        )
    horizon = root["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ScenarioSchemaError(
            f"scenario.horizon: expected an integer, got {type(horizon).__name__}"
        )
    if horizon < 1:
        raise ScenarioInvariantError(f"scenario.horizon: must be >= 1, got {horizon}")

    storage_node = _require_mapping(root["storage"], "scenario.storage")
    _check_keys(storage_node, "scenario.storage", {"s_min", "s_max", "s_init"})
    try:
        storage = StorageSpec(
            s_min=_number(storage_node, "scenario.storage", "s_min"),
            s_max=_number(storage_node, "scenario.storage", "s_max"),
            s_init=_number(storage_node, "scenario.storage", "s_init"),
        )
    except ValueError as e:
        raise ScenarioInvariantError(f"scenario.storage: {e}") from e

    steps_node = root["steps"]
    if not isinstance(steps_node, list):
        raise ScenarioSchemaError(
            f"scenario.steps: expected an array, got {type(steps_node).__name__}"
        )
    if len(steps_node) != horizon:
        raise ScenarioInvariantError(
            f"scenario.steps: length {len(steps_node)} must equal horizon {horizon}"
        )
    steps = []
    for t, entry in enumerate(steps_node):
        path = f"scenario.steps[{t}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, path, {"generation", "demand"})
        steps.append(
            StepSpec(
                generation=_parse_distribution(entry["generation"], f"{path}.generation"),
                demand=_parse_distribution(entry["demand"], f"{path}.demand"),
            )
        )

    description = _text(root, "scenario", "description") if "description" in root else ""
    return Scenario(
        name=name,
        energy_unit=unit,
        storage=storage,
        steps=tuple(steps),
        description=description,
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = fh.read()
        except UnicodeDecodeError as e:
            raise ScenarioSyntaxError(f"scenario: not UTF-8 text: {e}") from e
    return parse_scenario(document)


def _distribution_to_node(dist: Distribution) -> dict:
    if isinstance(dist, Deterministic):
        return {"kind": "deterministic", "value": dist.value}
    if isinstance(dist, Weibull):
        return {"kind": "weibull", "scale": dist.scale, "shape": dist.shape}
    if isinstance(dist, LogNormal):
        return {"kind": "lognormal", "mu": dist.mu, "sigma": dist.sigma}
    if isinstance(dist, Empirical):
        return {"kind": "empirical", "samples": list(dist.samples)}
    raise TypeError(f"cannot serialize distribution type {type(dist).__name__}")


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its document form (parse round-trips)."""
    tree = {
        "name": scenario.name,
        "energy_unit": scenario.energy_unit,
        "horizon": scenario.horizon,
        "storage": {
            "s_min": scenario.storage.s_min,
            "s_max": scenario.storage.s_max,
            "s_init": scenario.storage.s_init,
        },
        "steps": [
            {
                "generation": _distribution_to_node(s.generation),
                "demand": _distribution_to_node(s.demand),
            }
            for s in scenario.steps
        ],
    }
    if scenario.description:
        tree["description"] = scenario.description
    return json.dumps(tree, indent=2) + "\n"


# --- result tables ---------------------------------------------------------

_REQUIRED_METADATA = ("scenario", "seed", "n", "version")


@dataclass(frozen=True)
class ResultTable:
    """A rectangular, serialization-ready table plus run metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        if not columns or len(set(columns)) != len(columns):
            raise ValueError("columns must be nonempty and unique")
        rows = tuple(tuple(r) for r in self.rows)
        for i, row in enumerate(rows):
            if len(row) != len(columns):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(columns)}"
                )
            for name, v in zip(columns, row):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"row {i}, column {name!r}: non-finite value {v!r}")
        missing = [k for k in _REQUIRED_METADATA if k not in self.metadata]
        if missing:
            raise ValueError(f"metadata missing required field(s) {missing}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "metadata", dict(self.metadata))


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".9g")
    return str(v)


def _row_format(kinds: tuple[type, ...]) -> str | None:
    """A %-format equal to ``_csv_cell`` on a row of numbers, else None.

    ``str`` cells may need csv quoting and ``bool`` cells print as words, so
    rows holding anything but numbers go through ``csv.writer``.
    """
    if not all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds):
        return None
    return ",".join("%.9g" if issubclass(k, float) else "%s" for k in kinds) + "\n"


def write_results(table: ResultTable, format: str) -> bytes:
    """Serialize a result table to bytes; deterministic for equal inputs.

    CSV: header plus one line per row, ``\\n`` endings, "." decimal
    separator, floats at 9 significant digits.  JSON: columns as named
    arrays plus the metadata object, values at full precision.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        formats: dict[tuple[type, ...], str | None] = {}
        for row in table.rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:
                formats[kinds] = _row_format(kinds)
            fmt = formats[kinds]
            if fmt is None:
                writer.writerow([_csv_cell(v) for v in row])
            else:
                buf.write(fmt % row)
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "columns": {
                name: [row[i] for row in table.rows]
                for i, name in enumerate(table.columns)
            },
            "metadata": table.metadata,
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unsupported output format {format!r} (expected csv or json)")
