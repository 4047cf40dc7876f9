"""Stochastic generation/demand/storage modeling.

A discrete-time system couples an energy generator, a consumer, and a
clamped store.  This package computes per-step deficit / overflow /
self-sufficiency probabilities three independent ways — numerical density
convolution, a Weibull closed form, and seeded Monte Carlo — and ships a
CLI that keeps the routes honest against each other.
"""

from .balance import (
    DEFAULT_CELLS,
    DEFAULT_COVERAGE,
    MASS_TRUNCATION_BUDGET,
    MAX_BALANCE_CELLS,
    CellBudgetError,
    DensityGrid,
    ProbabilityTriple,
    TruncationBudgetError,
    difference_density,
    discretize,
    self_sufficiency,
    weibull_closed_form,
)
from .distributions import (
    Deterministic,
    Distribution,
    Empirical,
    LogNormal,
    Weibull,
    lognormal_from_moments,
)
from .montecarlo import (
    EnsembleStats,
    SelfSufficiencyEstimate,
    estimate_self_sufficiency,
    estimate_steps,
    simulate_ensemble,
    simulate_trajectory,
    sweep_battery_levels,
)
from .scenario import (
    ResultTable,
    Scenario,
    ScenarioError,
    ScenarioInvariantError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    StepSpec,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_results,
)
from .storage import StorageSpec, Trajectory, evolve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Distribution",
    "Deterministic",
    "Weibull",
    "LogNormal",
    "Empirical",
    "lognormal_from_moments",
    # storage
    "StorageSpec",
    "Trajectory",
    "evolve",
    # balance
    "DEFAULT_CELLS",
    "DEFAULT_COVERAGE",
    "MASS_TRUNCATION_BUDGET",
    "MAX_BALANCE_CELLS",
    "DensityGrid",
    "ProbabilityTriple",
    "TruncationBudgetError",
    "CellBudgetError",
    "discretize",
    "difference_density",
    "self_sufficiency",
    "weibull_closed_form",
    # monte carlo
    "SelfSufficiencyEstimate",
    "EnsembleStats",
    "simulate_trajectory",
    "simulate_ensemble",
    "estimate_self_sufficiency",
    "estimate_steps",
    "sweep_battery_levels",
    # scenarios and results
    "Scenario",
    "StepSpec",
    "ScenarioError",
    "ScenarioSyntaxError",
    "ScenarioSchemaError",
    "ScenarioInvariantError",
    "ResultTable",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "write_results",
]
