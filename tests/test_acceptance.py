"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints ``[ACCEPTANCE] criterion N: PASS/FAIL — <what it checked>``
before asserting, so a plain ``pytest -rA`` run yields a per-criterion
scoreboard.  Tolerances and runtime bounds are part of the guarantee and are
asserted, not just documented.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from stochstore import (
    Deterministic,
    LogNormal,
    StorageSpec,
    Weibull,
    difference_density,
    discretize,
    estimate_self_sufficiency,
    lognormal_from_moments,
    point_mass_balance,
    self_sufficiency,
    simulate_trajectory,
    sweep_battery_levels,
    weibull_closed_form,
)
from stochstore.cli import main

from conftest import evolve_one_step

README = Path(__file__).resolve().parents[1] / "README.md"

SPEC_0_5 = StorageSpec(s_min=0.0, s_max=5.0, s_init=0.0)
FIG2_GEN = 2.0
FIG2_DEM = Weibull(scale=2.0, shape=5.0)
E_MINUS_1 = 0.36787944117144233


def _report(number: int, ok: bool, description: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number}: {verdict} — {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_closed_form_checkpoint():
    t0 = time.perf_counter()
    triple = weibull_closed_form(FIG2_GEN, 0.0, SPEC_0_5, FIG2_DEM)
    analytic_ok = abs(triple.p_deficit - E_MINUS_1) <= 1e-6

    est = estimate_self_sufficiency(
        gen=Deterministic(FIG2_GEN),
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        s_prev=0.0,
        n=1_000_000,
        seed=0,
    )
    bound = 3.0 * math.sqrt(E_MINUS_1 * (1.0 - E_MINUS_1) / 1_000_000)
    mc_ok = abs(est.p_deficit - E_MINUS_1) <= bound
    elapsed = time.perf_counter() - t0
    ok = analytic_ok and mc_ok and elapsed < 5.0
    _report(
        1,
        ok,
        f"deficit probability at an empty 5-unit battery: analytic "
        f"{triple.p_deficit:.9f} vs exp(-1) (tol 1e-6), MC n=1e6 seed 0 "
        f"p_hat={est.p_deficit:.6f} within {bound:.5f}; {elapsed:.2f}s < 5s",
    )


def test_criterion_2_grid_matches_closed_form():
    t0 = time.perf_counter()
    # The grid route reads the deterministic generation exactly.
    b = point_mass_balance(Deterministic(FIG2_GEN), FIG2_DEM)
    worst = 0.0
    for s_prev in np.arange(0.0, 5.01, 0.5):
        grid_t = self_sufficiency(b, float(s_prev), SPEC_0_5)
        closed_t = weibull_closed_form(FIG2_GEN, float(s_prev), SPEC_0_5, FIG2_DEM)
        worst = max(
            worst,
            abs(grid_t.p_deficit - closed_t.p_deficit),
            abs(grid_t.p_overflow - closed_t.p_overflow),
            abs(grid_t.p_self - closed_t.p_self),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 5.0
    _report(
        2,
        ok,
        f"grid route (deterministic generation read exactly) vs closed form over 11 levels: "
        f"max component error {worst:.3e} < 1e-3; {elapsed:.2f}s < 5s",
    )


def test_criterion_3_step_invariant_suite():
    rng = np.random.default_rng(2024)
    n = 100_000
    s_prevs = rng.uniform(SPEC_0_5.s_min, SPEC_0_5.s_max, n)
    balances = rng.normal(0.0, 2.0, n)
    big = rng.random(n) < 0.02
    balances[big] *= 5e4  # exercise hard clamps far outside the window

    # One step of evolve from every level at once.
    r = evolve_one_step(s_prevs, balances, SPEC_0_5)
    eps = np.finfo(float).eps
    scale = np.maximum(np.maximum(np.abs(s_prevs), np.abs(balances)), max(1.0, SPEC_0_5.s_max))
    ledger_gap = np.abs((r.s_next - s_prevs) - (balances - r.spill + r.deficit))
    ok = bool(
        np.all(
            (SPEC_0_5.s_min <= r.s_next)
            & (r.s_next <= SPEC_0_5.s_max)
            & (r.spill >= 0.0)
            & (r.deficit >= 0.0)
            & ((r.spill == 0.0) | (r.deficit == 0.0))
            & (ledger_gap <= 8.0 * eps * scale)
        )
    )

    # Monotonicity in both arguments on 10000 ordered pairs.
    s1, s2 = np.sort(rng.uniform(0.0, 5.0, (2, 10_000)), axis=0)
    b1, b2 = np.sort(rng.normal(0.0, 3.0, (2, 10_000)), axis=0)
    pair_levels, pair_balances = np.concatenate([s1, s2, s1]), np.concatenate([b1, b1, b2])
    s_next = evolve_one_step(pair_levels, pair_balances, SPEC_0_5).s_next
    base, higher_level, higher_balance = np.split(s_next, 3)
    mono_ok = bool(np.all(base <= higher_level + 1e-12) and np.all(base <= higher_balance + 1e-12))

    _report(
        3,
        ok and mono_ok,
        "100000 random steps: clamp bounds, spill/deficit ledger identity "
        "(exact up to float rounding), mutual exclusivity, and monotonicity "
        "in level and balance",
    )


def test_criterion_4_iid_symmetry():
    dist = LogNormal(mu=0.0, sigma=1.0)
    b = difference_density(discretize(dist, 4096), discretize(dist, 4096))
    grid_p = b.cdf(0.0)
    grid_ok = abs(grid_p - 0.5) <= 1e-3

    # Monte Carlo route: with s_prev = s_min the deficit event is exactly B <= 0.
    est = estimate_self_sufficiency(
        gen=dist,
        dem=dist,
        storage=SPEC_0_5,
        s_prev=0.0,
        n=1_000_000,
        seed=0,
    )
    mc_ok = abs(est.p_deficit - 0.5) <= est.halfwidth(est.p_deficit)
    _report(
        4,
        grid_ok and mc_ok,
        f"iid generation and demand: grid Pr[B<=0]={grid_p:.6f} within 1e-3 of "
        f"0.5, MC p_hat={est.p_deficit:.6f} within its interval "
        f"(±{est.halfwidth(est.p_deficit):.5f})",
    )


def test_criterion_5_moment_fidelity():
    n = 1_000_000
    ln = lognormal_from_moments(1.25, 1.0)
    samples = ln.sample_n(np.random.default_rng(0), n)
    mean_ok = abs(samples.mean() - 1.25) <= 0.0125
    var_ok = abs(samples.var(ddof=1) - 1.0) <= 0.01

    wb = Weibull(scale=2.0, shape=5.0)
    wb_mean = wb.sample_n(np.random.default_rng(0), n).mean()
    target = 2.0 * math.gamma(1.2)  # 1.8363374847995209
    wb_ok = abs(wb_mean - target) <= 0.01 * target

    readme = README.read_text(encoding="utf-8")
    documented = "1.8363" in readme and "2.1" in readme

    _report(
        5,
        mean_ok and var_ok and wb_ok and documented,
        f"moment matching: 1e6-sample mean {samples.mean():.4f} / variance "
        f"{samples.var(ddof=1):.4f} within 1% of (1.25, 1); Weibull(2,5) mean "
        f"{wb_mean:.4f} within 1% of {target:.4f} (the oft-quoted rough value "
        f"2.1 is NOT what scale*gamma(1+1/shape) yields; see README)",
    )


def test_criterion_6_sweep_shape_and_validation_gate(tmp_path):
    t0 = time.perf_counter()
    levels = [float(v) for v in np.linspace(0.0, 5.0, 51)]
    estimates = sweep_battery_levels(
        gen_value=FIG2_GEN,
        dem=FIG2_DEM,
        storage=SPEC_0_5,
        levels=levels,
        n=1_000,
        seed=0,
    )
    closed = [weibull_closed_form(FIG2_GEN, level, SPEC_0_5, FIG2_DEM) for level in levels]
    p_a = [t.p_deficit for t in closed]
    p_b = [t.p_overflow for t in closed]
    # Deficit decreases strictly everywhere (its threshold is active at every
    # level); overflow is flat at zero until g + s clears the cap, then rises
    # strictly.
    a_ok = all(x > y for x, y in zip(p_a, p_a[1:]))
    b_flat_then_strict = all(
        (x <= y) and (x < y or FIG2_GEN + lv <= SPEC_0_5.s_max)
        for (x, y, lv) in zip(p_b, p_b[1:], levels)
    )

    gate_code = main(
        ["validate", "--scenario", "fig2_battery", "--n", "1000000", "--seed", "0",
         "--out", str(tmp_path / "report.csv")]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(estimates) == len(levels)
        and a_ok
        and b_flat_then_strict
        and gate_code == 0
        and elapsed < 30.0
    )
    _report(
        6,
        ok,
        f"51-level sweep: p_A strictly decreasing, p_B flat-then-strictly-"
        f"increasing; validation gate exit code {gate_code} at n=1e6 seed 0; "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_7_day_scenario_reproduction(tmp_path, day24_scenario):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main(
            ["simulate", "--scenario", "day24_lognormal", "--n", "10000", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
    identical = (
        out_a.read_bytes() == out_b.read_bytes()
        and out_a.with_name("a_ensemble.csv").read_bytes()
        == out_b.with_name("b_ensemble.csv").read_bytes()
    )

    spec = day24_scenario.storage
    bounds_ok = True
    for index in range(32):
        traj = simulate_trajectory(day24_scenario, seed=0, index=index)
        if not (np.all(traj.storage >= spec.s_min) and np.all(traj.storage <= spec.s_max)):
            bounds_ok = False
            break

    _report(
        7,
        identical and bounds_ok,
        "24-step day scenario runs end-to-end; trajectory and ensemble files "
        "byte-identical across repeated seeded runs; 32 sampled trajectories "
        "stay inside the storage window",
    )


def test_criterion_8_threshold_convention_arbitration():
    # The two tail formulas exist in the wild with a different sign/threshold
    # convention.  Evaluate both conventions against the Monte Carlo oracle
    # and require that only the shipped one survives.
    lam, k = 2.0, 5.0

    def alt_p_deficit(g, s):
        return 1.0 - math.exp(-(((g - s - SPEC_0_5.s_min) / lam) ** k))

    def alt_p_overflow(g, s):
        return math.exp(-(((g + s - SPEC_0_5.s_max) / lam) ** k))

    shipped_ok = True
    alternative_rejected = True
    details = []
    for level in (0.0, 4.0, 5.0):
        est = estimate_self_sufficiency(
            gen=Deterministic(FIG2_GEN),
            dem=FIG2_DEM,
            storage=SPEC_0_5,
            s_prev=level,
            n=1_000_000,
            seed=0,
        )
        shipped = weibull_closed_form(FIG2_GEN, level, SPEC_0_5, FIG2_DEM)
        floor = 3.0 / est.n
        for value, p_hat in (
            (shipped.p_deficit, est.p_deficit),
            (shipped.p_overflow, est.p_overflow),
        ):
            if abs(value - p_hat) > max(est.halfwidth(p_hat), floor):
                shipped_ok = False

        for alt_value, p_hat in (
            (alt_p_deficit(FIG2_GEN, level), est.p_deficit),
            (alt_p_overflow(FIG2_GEN, level), est.p_overflow),
        ):
            invalid = not (0.0 <= alt_value <= 1.0) or not math.isfinite(alt_value)
            off = abs(alt_value - p_hat) > max(est.halfwidth(p_hat), floor)
            if not (invalid or off):
                alternative_rejected = False
            details.append(f"s={level:g}: alt={alt_value:.4g}")

    # Normalize hard wraps so the phrase check is layout-independent.
    readme = " ".join(README.read_text(encoding="utf-8").split())
    documented = "alternative threshold convention" in readme

    _report(
        8,
        shipped_ok and alternative_rejected and documented,
        "threshold arbitration at levels {0, 4, 5}, n=1e6 seed 0: shipped tail "
        "formulas inside the MC intervals, the alternative convention produces "
        f"out-of-range or off-interval values ({'; '.join(details[:3])}...); "
        "discrepancy documented in the README",
    )
