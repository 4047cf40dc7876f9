"""In-memory span recorder for the traced benchmark pass.

The recorder wraps the public names that the calling modules resolve at
call time (``stochstore.cli.difference_density``, ``stochstore.montecarlo.
evolve``, the distribution classes' ``sample``/``sample_n``/``cdf``, ...),
so a span opens and closes around every call that crosses a layer
boundary.  Each span records its boundary group, start, end, parent span
and an optional count, in compact typed arrays so that a pass with ~10^6
calls stays at a few tens of megabytes.  Nothing is written out while a
pass runs; :func:`reduce_spans` turns one pass's spans into per-group totals
afterwards.

All calls are synchronous on one thread, so the children of one span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Groups whose calls draw Monte Carlo samples on behalf of a probability
# estimate (as opposed to whole trajectories).
ESTIMATE_ROUTE = ("montecarlo.estimate", "montecarlo.sweep")


class SpanRecorder:
    """Columnar span store plus a stack of the spans currently open."""

    def __init__(self) -> None:
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.attrs: dict[int, dict] = {}
        self.failed_counters: set[str] = set()
        self._open = [-1]

    def group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        return self._group_ids[group]

    def add(self, group: str, parent: int, start: float, end: float, count: float = 0.0) -> int:
        """Append a finished span directly (used by tests)."""
        idx = len(self.group)
        self.group.append(self.group_id(group))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.count.append(count)
        return idx

    def wrap(self, fn, group: str, counter=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``counter(args, kwargs, result)`` may return a number (stored as
        the span's count) or a dict of named values (kept in ``attrs``;
        its ``"count"`` entry, if any, becomes the span's count).
        """
        gid = self.group_id(group)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.group)
            rec.group.append(gid)
            rec.parent.append(rec._open[-1])
            rec.end.append(0.0)
            rec.count.append(0.0)
            rec._open.append(idx)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._open.pop()
            if counter is not None:
                try:
                    value = counter(args, kwargs, result)
                except Exception:  # the counted API changed: report absent
                    rec.failed_counters.add(group)
                else:
                    if isinstance(value, dict):
                        rec.attrs[idx] = value
                        value = value.get("count", 0.0)
                    rec.count[idx] = value
            return result

        return traced


@dataclass
class GroupStats:
    calls: int = 0            # spans not nested directly in a span of the same group
    self_s: float = 0.0       # span time not covered by child spans
    count: float = 0.0        # summed counts of those outermost spans
    route_count: float = 0.0  # the part of ``count`` made under an ESTIMATE_ROUTE span
    attrs: list = field(default_factory=list)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


def _has_ancestor_in(parent: np.ndarray, group: np.ndarray, targets: list[int]) -> np.ndarray:
    found = np.zeros(parent.size, dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while np.any(live):
        found[live] |= np.isin(group[cur[live]], targets)
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return found


def reduce_spans(rec: SpanRecorder) -> dict[str, GroupStats]:
    """Per-group call counts, self times, counts and attributes of one pass."""
    group = np.frombuffer(rec.group, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int32).astype(np.int64)
    start = np.frombuffer(rec.start, dtype=np.float64)
    end = np.frombuffer(rec.end, dtype=np.float64)
    count = np.frombuffer(rec.count, dtype=np.float64)
    own = self_times(parent, start, end)
    outer = np.where(parent >= 0, group[np.maximum(parent, 0)], -1) != group
    route = [rec._group_ids[g] for g in ESTIMATE_ROUTE if g in rec._group_ids]
    on_route = _has_ancestor_in(parent, group, route)

    stats = {}
    for gid, name in enumerate(rec.groups):
        mask = group == gid
        top = mask & outer
        stats[name] = GroupStats(
            calls=int(np.count_nonzero(top)),
            self_s=float(own[mask].sum()),
            count=float(count[top].sum()),
            route_count=float(count[top & on_route].sum()),
            attrs=[rec.attrs[i] for i in np.flatnonzero(mask).tolist() if i in rec.attrs],
        )
    return stats


# --- the boundaries the traced pass wraps ---------------------------------------


def _n_cells_after_resample(grid, h: float) -> int:
    if grid.is_atom or grid.step == h:
        return grid.n_cells
    return max(2, int(math.ceil(grid.n_cells * grid.step / h - 1e-12)))


def _convolve_counter(fn):
    def counter(args, kwargs, result):
        gen, dem = args[0], args[1]
        h = min(gen.step, dem.step)
        return {
            "products": _n_cells_after_resample(gen, h) * _n_cells_after_resample(dem, h),
            "out_cells": result.n_cells,
        }

    return counter


def _size_counter(fn):
    return lambda args, kwargs, result: np.size(result)


def _evolve_counter(fn):
    return lambda args, kwargs, result: np.size(args[1] if len(args) > 1 else kwargs["balances"])


def _bytes_counter(fn):
    return lambda args, kwargs, result: len(result)


def _draw_set_counter(fn):
    """Key each estimate by its (generation, demand, seed, n) draw set."""
    signature = inspect.signature(fn)
    deterministic = importlib.import_module("stochstore.distributions").Deterministic

    def counter(args, kwargs, result):
        a = signature.bind(*args, **kwargs).arguments
        gen = a["gen"] if "gen" in a else deterministic(a["gen_value"])
        n = int(a["n"])
        return {"key": (repr(gen), repr(a["dem"]), int(a["seed"]), n), "draws": 2 * n}

    return counter


# (group, module, attribute names, counter factory).  Each attribute is
# wrapped where it is looked up, so a call from cli and one from montecarlo
# into the same function both pass a boundary.
FUNCTION_BOUNDARIES = (
    ("cli.run", "stochstore.cli", ("run_command",), None),
    ("scenario.parse", "stochstore.cli", ("parse_scenario", "load_scenario"), None),
    ("scenario.write", "stochstore.cli", ("write_results",), _bytes_counter),
    ("balance.discretize", "stochstore.cli", ("discretize",), None),
    ("balance.convolve", "stochstore.cli", ("difference_density",), _convolve_counter),
    ("balance.query", "stochstore.cli", ("self_sufficiency",), None),
    ("balance.closed_form", "stochstore.cli", ("weibull_closed_form",), None),
    ("balance.closed_form", "stochstore.montecarlo", ("weibull_closed_form",), None),
    ("montecarlo.trajectory", "stochstore.cli", ("simulate_trajectory",), None),
    ("montecarlo.trajectory", "stochstore.montecarlo", ("simulate_trajectory",), None),
    ("montecarlo.aggregate", "stochstore.cli", ("simulate_ensemble",), None),
    ("montecarlo.estimate", "stochstore.cli", ("estimate_self_sufficiency",), _draw_set_counter),
    ("montecarlo.estimate", "stochstore.montecarlo", ("estimate_self_sufficiency",), _draw_set_counter),
    ("montecarlo.sweep", "stochstore.cli", ("sweep_battery_levels",), _draw_set_counter),
    ("storage.evolve", "stochstore.montecarlo", ("evolve",), _evolve_counter),
)

# (group, module, method names, counter factory): wrapped on every class
# defined in the module that defines the method itself.
METHOD_BOUNDARIES = (
    ("distributions.sample", "stochstore.distributions", ("sample", "sample_n"), _size_counter),
    ("distributions.cdf", "stochstore.distributions", ("cdf",), None),
)


class Instrumentation:
    """Installs the span wrappers on the program's modules and removes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.present: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, owner, name: str, fn, group: str, factory) -> None:
        counter = factory(fn) if factory is not None else None
        self._originals.append((owner, name, fn))
        setattr(owner, name, self.recorder.wrap(fn, group, counter))
        self.present.add(group)

    def install(self) -> None:
        for group, module_name, names, factory in FUNCTION_BOUNDARIES:
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._wrap(module, name, fn, group, factory)
        for group, module_name, names, factory in METHOD_BOUNDARIES:
            module = importlib.import_module(module_name)
            for cls in list(vars(module).values()):
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    for name in names:
                        fn = cls.__dict__.get(name)
                        if inspect.isfunction(fn):
                            self._wrap(cls, name, fn, group, factory)

    def remove(self) -> None:
        while self._originals:
            owner, name, fn = self._originals.pop()
            setattr(owner, name, fn)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def _attr_sum(key):
    return lambda g: float(sum(a[key] for a in g.attrs))


# (metric, group, what to read from the group's stats).
LAYER_METRICS = (
    ("scenario.parse_s", "scenario.parse", "self_s"),
    ("scenario.write_s", "scenario.write", "self_s"),
    ("scenario.bytes_written", "scenario.write", "count"),
    ("distributions.sample_calls", "distributions.sample", "calls"),
    ("distributions.samples", "distributions.sample", "count"),
    ("distributions.sample_s", "distributions.sample", "self_s"),
    ("distributions.cdf_calls", "distributions.cdf", "calls"),
    ("distributions.cdf_s", "distributions.cdf", "self_s"),
    ("balance.discretize_calls", "balance.discretize", "calls"),
    ("balance.discretize_s", "balance.discretize", "self_s"),
    ("balance.convolve_calls", "balance.convolve", "calls"),
    ("balance.convolve_s", "balance.convolve", "self_s"),
    ("balance.convolve_products", "balance.convolve", _attr_sum("products")),
    ("balance.convolve_out_cells", "balance.convolve", _attr_sum("out_cells")),
    ("balance.query_calls", "balance.query", "calls"),
    ("balance.query_s", "balance.query", "self_s"),
    ("balance.closed_form_calls", "balance.closed_form", "calls"),
    ("balance.closed_form_s", "balance.closed_form", "self_s"),
    ("storage.evolve_calls", "storage.evolve", "calls"),
    ("storage.steps", "storage.evolve", "count"),
    ("storage.evolve_s", "storage.evolve", "self_s"),
    ("montecarlo.trajectories", "montecarlo.trajectory", "calls"),
    ("montecarlo.trajectory_s", "montecarlo.trajectory", "self_s"),
    ("montecarlo.aggregate_s", "montecarlo.aggregate", "self_s"),
    ("montecarlo.estimate_calls", "montecarlo.estimate", "calls"),
    ("montecarlo.estimate_s", "montecarlo.estimate", "self_s"),
    ("montecarlo.sweep_s", "montecarlo.sweep", "self_s"),
    ("cli.commands", "cli.run", "calls"),
    ("cli.self_s", "cli.run", "self_s"),
)


def layer_metrics(stats: dict[str, GroupStats], present: set[str], failed: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A metric whose boundary no longer exists in the program, or a count
    whose counter no longer fits the API, is left out rather than guessed.
    """
    usable = present - failed
    out: dict[str, float] = {}
    for metric, group, read in LAYER_METRICS:
        if group in (present if read in ("calls", "self_s") else usable):
            g = stats.get(group, GroupStats())
            out[metric] = float(read(g) if callable(read) else getattr(g, read))

    # Sampled values on the estimate route per value the distinct draw sets need.
    if usable.issuperset(ESTIMATE_ROUTE + ("distributions.sample",)):
        draws = {}
        for group in ESTIMATE_ROUTE:
            for a in stats.get(group, GroupStats()).attrs:
                draws[a["key"]] = a["draws"]
        produced = stats.get("distributions.sample", GroupStats()).route_count
        needed = sum(draws.values())
        out["montecarlo.redraw_factor"] = produced / needed if needed else 0.0
    return out
