"""The exit-code contract as a property: every command, on any scenario
document a generator can write, exits through the taxonomy.

Scenario documents are drawn with parameters from subnormal to 1e300,
storage windows from 1e-12 to 1e300 wide and Empirical samples with huge
spreads; ``--n`` and ``--grid-cells`` range up to and just past their
budgets.  Each run goes through ``cli.main`` in this process, and no
exception may escape it: it exits 0, 2 (configuration) or 3 (scenario).
``validate`` may also exit 1 (a failed gate), and the two commands that
query a grid, ``analyze`` and ``validate``, may exit 4 if a balance of two
input grids, each within the mass budget, loses more than it in all.  A
continuous distribution narrower than float resolution near its quantiles
(a Weibull of shape 4e16, whose cells hold 63% of its mass) is refused when
it is gridded against another, with exit 2; a pinned example expects that
code.  About a
quarter of the runs are ``validate`` on moderate documents instead, with
parameters that parse and grid within the budgets, so that they reach the
sampler: they must exit 0 or 1.

The sample and balance-grid budgets are scaled down for the test so that
a draw at the budget holds a few hundred kilobytes, not gigabytes; the
checks that refuse past them are the same.  Each run's ``tracemalloc``
peak must stay under what those budgets let a command hold (see
``PEAK_BYTES``); pinned examples run at each budget.
"""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochstore.balance as balance
import stochstore.cli as cli

# Values a run may hold in one sample array, and cells in one balance grid.
SAMPLE_VALUES = 2**15
BALANCE_CELLS = 2**18

# The most a run may hold at once (tracemalloc peak), from the budgets: 8
# sample-sized arrays (simulate's states and one-step balances, or
# validate's whole generation and an empirical draw's indices, plus
# temporaries; 6.4 measured), 2.5 balance-sized ones (a refined input's
# cumulative masses and the masses its query reads, their differences; 1.9
# measured) and 16 arrays of the largest --grid-cells for gridding an input
# (a log-normal's cdf temporaries; 8.4 measured).
PEAK_BYTES = 8 * (8 * SAMPLE_VALUES + 2.5 * BALANCE_CELLS + 16 * cli.MAX_GRID_CELLS)

EXITS = {"simulate": {0, 2, 3}, "analyze": {0, 2, 3, 4}, "sweep": {0, 2, 3}, "validate": {0, 1, 2, 3, 4}}

positive = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1.7e-161, 1.5e-154, 1e-12, 1.0, 2.0, 1e12, 1e154, 1e300]),
    st.floats(min_value=5e-324, max_value=1e300),
)
nonnegative = st.just(0.0) | positive
unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

deterministic = st.builds(lambda v: {"kind": "deterministic", "value": v}, nonnegative)
weibull = st.builds(lambda s, k: {"kind": "weibull", "scale": s, "shape": k}, positive, positive)
distributions = st.one_of(
    deterministic,
    weibull,
    st.builds(
        lambda m, s: {"kind": "lognormal", "mu": m, "sigma": s},
        st.floats(-700.0, 700.0),
        positive,
    ),
    st.builds(lambda m, v: {"kind": "lognormal", "mean": m, "variance": v}, positive, positive),
    st.builds(
        lambda xs: {"kind": "empirical", "samples": xs},
        st.lists(nonnegative, min_size=1, max_size=6),
    ),
)


@st.composite
def scenarios(draw):
    s_min = draw(st.sampled_from([0.0, 1.0]) | positive)
    width = draw(st.sampled_from([1e-12, 1.0, 1e300]) | st.floats(1e-12, 1e300))
    s_max = s_min + width
    horizon = draw(st.integers(1, 3))
    steps = [{"generation": draw(distributions), "demand": draw(distributions)} for _ in range(horizon)]
    if draw(st.booleans()):  # the closed-form pairing, which sweep requires
        steps[0] = {"generation": draw(deterministic), "demand": draw(weibull)}
    storage = {"s_min": s_min, "s_max": s_max, "s_init": s_min + draw(unit) * width}
    document = {"name": "drawn", "energy_unit": "kWh", "horizon": horizon, "storage": storage, "steps": steps}
    return document, [s_min + u * width for u in draw(st.lists(unit, min_size=1, max_size=3))]


# Parameters that every family parses and grids well within the budgets,
# so that a validate run on them reaches the sampler.
moderate_deterministic = st.builds(lambda v: {"kind": "deterministic", "value": v}, st.floats(0.0, 10.0))
moderate_weibull = st.builds(
    lambda s, k: {"kind": "weibull", "scale": s, "shape": k}, st.floats(0.5, 5.0), st.floats(1.0, 5.0)
)
moderate = st.one_of(
    moderate_deterministic,
    moderate_weibull,
    st.builds(
        lambda m, v: {"kind": "lognormal", "mean": m, "variance": v},
        st.floats(0.5, 5.0),
        st.floats(0.05, 2.0),
    ),
    st.builds(
        lambda xs: {"kind": "empirical", "samples": xs},
        st.lists(st.integers(0, 20).map(lambda k: k / 2), min_size=1, max_size=6),
    ),
)


@st.composite
def moderate_validate_runs(draw):
    """A validate run on a moderate document: it samples, and exits 0 or 1."""
    s_max = draw(st.floats(1.0, 10.0))
    horizon = draw(st.integers(1, 3))
    steps = [{"generation": draw(moderate), "demand": draw(moderate)} for _ in range(horizon)]
    if draw(st.booleans()):  # the closed-form pairing, which adds the sweep's checks
        steps[0] = {"generation": draw(moderate_deterministic), "demand": draw(moderate_weibull)}
    storage = {"s_min": 0.0, "s_max": s_max, "s_init": draw(unit) * s_max}
    document = {"name": "moderate", "energy_unit": "kWh", "horizon": horizon, "storage": storage, "steps": steps}
    argv = ["validate", "--format", draw(st.sampled_from(["csv", "json"]))]
    argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    argv += ["--n", str(draw(st.integers(1, SAMPLE_VALUES)))]
    argv += ["--grid-cells", str(draw(st.integers(2, 1024)))]
    if draw(st.booleans()):
        argv += ["--levels", ",".join(repr(u * s_max) for u in draw(st.lists(unit, min_size=1, max_size=3)))]
    return document, argv


@st.composite
def runs(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(moderate_validate_runs())
    document, levels = draw(scenarios())
    command = draw(st.sampled_from(sorted(EXITS)))
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    if command != "analyze":
        n = draw(st.integers(1, 64) | st.sampled_from([SAMPLE_VALUES, SAMPLE_VALUES + 1]))
        argv += ["--n", str(n)]
    if command in ("analyze", "validate"):
        cells = draw(st.integers(2, 512) | st.sampled_from([cli.MAX_GRID_CELLS, cli.MAX_GRID_CELLS + 1]))
        argv += ["--grid-cells", str(cells)]
    if command == "analyze":
        argv += ["--s-prev", repr(levels[0]), "--step", str(draw(st.integers(1, 4)))]
    if command in ("sweep", "validate") and draw(st.booleans()):
        argv += ["--levels", ",".join(map(repr, levels))]
    return document, argv


def _run(storage, generation, demand, argv, horizon=1):
    document = {"name": "pinned", "energy_unit": "kWh", "horizon": horizon, "storage": storage,
                "steps": [{"generation": generation, "demand": demand}] * horizon}
    return document, argv


FIG2_STORAGE = {"s_min": 0.0, "s_max": 5.0, "s_init": 0.0}
MID_STORAGE = {"s_min": 0.0, "s_max": 5.0, "s_init": 2.0}
HUGE_POWER = ({"kind": "deterministic", "value": 1e300}, {"kind": "weibull", "scale": 2.0, "shape": 5.0})
EMPIRICAL = {"kind": "empirical", "samples": [1.0, 2.0, 3.0]}
LOGNORMAL = {"kind": "lognormal", "mean": 1.0, "variance": 0.5}


# (x / scale) ** shape overflowed a Python float in the closed form
# (OverflowError out of main); it now reads as inf.
@example(run=_run(FIG2_STORAGE, *HUGE_POWER, ["sweep", "--n", "8", "--levels", "0"]), expected=0)
@example(run=_run(FIG2_STORAGE, *HUGE_POWER, ["validate", "--n", "8"]), expected=0)
# A Weibull of shape 3.6e16 whose cells hold 63% of its mass: refused when
# it is gridded against a continuous demand (exit 2).
@example(
    run=_run(
        FIG2_STORAGE,
        {"kind": "weibull", "scale": 1e12, "shape": 3.5945323362896544e16},
        LOGNORMAL,
        ["analyze", "--grid-cells", "2", "--s-prev", "0"],
    ),
    expected=2,
)
# At each budget: a whole empirical generation draw, an ensemble matrix of
# 16 steps (few trajectories, which are slow under tracemalloc), a balance
# refined to 2.3e5 cells, and two log-normals at the largest --grid-cells.
@example(run=_run(MID_STORAGE, EMPIRICAL, LOGNORMAL, ["validate", "--n", str(SAMPLE_VALUES)]), expected=0)
@example(
    run=_run(MID_STORAGE, LOGNORMAL, LOGNORMAL, ["simulate", "--n", str(SAMPLE_VALUES // 16)], 16),
    expected=0,
)
@example(
    run=_run(
        MID_STORAGE,
        {"kind": "weibull", "scale": 2.0, "shape": 5.0},
        {"kind": "lognormal", "mean": 1.0, "variance": 3e-5},
        ["analyze", "--grid-cells", "4096", "--s-prev", "2"],
    ),
    expected=0,
)
@example(
    run=_run(
        MID_STORAGE,
        LOGNORMAL,
        {"kind": "lognormal", "mean": 1.0, "variance": 0.6},
        ["analyze", "--grid-cells", str(cli.MAX_GRID_CELLS), "--s-prev", "2"],
    ),
    expected=0,
)
@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
)
@given(run=runs(), expected=st.none())
def test_every_command_exits_through_the_taxonomy(run, expected):
    document, argv = run
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "MAX_SAMPLE_BYTES", 8 * SAMPLE_VALUES))
        stack.enter_context(mock.patch.object(balance, "MAX_BALANCE_CELLS", BALANCE_CELLS))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        argv = [*argv, "--scenario", str(scenario), "--out", str(Path(tmp) / "out")]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code in EXITS[argv[0]], argv
    assert document["name"] != "moderate" or code in (0, 1), argv
    assert expected is None or code == expected, argv
    assert peak < PEAK_BYTES, argv
