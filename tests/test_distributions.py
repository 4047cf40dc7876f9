"""Distribution models against independent scipy oracles and known moments."""

import math
from statistics import NormalDist

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochstore.distributions as distributions
from stochstore import (
    Deterministic,
    Empirical,
    LogNormal,
    Weibull,
    discretize,
    lognormal_from_moments,
)

from conftest import normal_cdf_reference

# Frozen oracle values (computed independently via math.gamma / scipy).
WEIBULL_2_5_MEAN = 1.8363374847995209  # 2 * gamma(1 + 1/5)
WEIBULL_2_5_VAR = 0.17691991193247159
LOGNORMAL_0_1_MEAN = 1.6487212707001282  # exp(1/2)
MOMENTS_1_25_1_MU = -0.02420456960384379
MOMENTS_1_25_1_SIGMA = 0.7033464593186682


def _moments_by_quadrature(dist):
    """Mean and variance implied by ``dist.cdf``: integrals of its survival function."""

    def survival(x):
        return 1.0 - dist.cdf(x)

    mean = scipy.integrate.quad(survival, 0.0, math.inf, epsrel=1e-11, limit=200)[0]
    second = scipy.integrate.quad(
        lambda x: 2.0 * x * survival(x), 0.0, math.inf, epsrel=1e-11, limit=200
    )[0]
    return mean, second - mean**2


def test_weibull_moments_match_scipy():
    ref = scipy.stats.weibull_min(c=5.0, scale=2.0)
    assert ref.mean() == pytest.approx(WEIBULL_2_5_MEAN, abs=1e-12)
    assert ref.var() == pytest.approx(WEIBULL_2_5_VAR, abs=1e-12)
    mean, variance = _moments_by_quadrature(Weibull(scale=2.0, shape=5.0))
    assert mean == pytest.approx(ref.mean(), rel=1e-9)
    assert variance == pytest.approx(ref.var(), rel=1e-9)


def test_lognormal_moments_match_scipy():
    ref = scipy.stats.lognorm(s=1.0, scale=1.0)
    assert ref.mean() == pytest.approx(LOGNORMAL_0_1_MEAN, abs=1e-12)
    assert ref.var() == pytest.approx(math.expm1(1.0) * math.e, rel=1e-12)  # (e^1 - 1) e^1
    mean, variance = _moments_by_quadrature(LogNormal(mu=0.0, sigma=1.0))
    assert mean == pytest.approx(ref.mean(), rel=1e-9)
    assert variance == pytest.approx(ref.var(), rel=1e-9)


def _cdf_slope(dist, x, h=1e-6):
    """Central difference of the cdf: the density implied by ``cdf``."""
    return (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.8363, 2.0, 3.5, 6.0])
def test_weibull_cdf_pdf_quantile_match_scipy(x):
    dist = Weibull(scale=2.0, shape=5.0)
    ref = scipy.stats.weibull_min(c=5.0, scale=2.0)
    assert dist.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-13)
    assert _cdf_slope(dist, x) == pytest.approx(ref.pdf(x), abs=1e-8)
    p = dist.cdf(x)
    if 0.0 < p < 1.0:
        assert dist.quantile(p) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 1.6487, 4.0, 20.0])
def test_lognormal_cdf_pdf_quantile_match_scipy(x):
    dist = LogNormal(mu=0.25, sigma=0.8)
    ref = scipy.stats.lognorm(s=0.8, scale=math.exp(0.25))
    assert dist.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)
    assert _cdf_slope(dist, x) == pytest.approx(ref.pdf(x), abs=1e-8)
    assert dist.quantile(ref.cdf(x)) == pytest.approx(x, rel=1e-9)


def _weibull_cdf_reference(dist, x):
    return 0.0 if x <= 0.0 else -math.expm1(-((x / dist.scale) ** dist.shape))


def _lognormal_cdf_reference(dist, x):
    return 0.0 if x <= 0.0 else NormalDist().cdf((math.log(x) - dist.mu) / dist.sigma)


@pytest.mark.parametrize(
    "dist, reference",
    [
        (Weibull(scale=2.0, shape=5.0), _weibull_cdf_reference),
        (Weibull(scale=0.7, shape=0.6), _weibull_cdf_reference),
        (LogNormal(mu=0.25, sigma=0.8), _lognormal_cdf_reference),
        (LogNormal(mu=-1.3, sigma=0.15), _lognormal_cdf_reference),
    ],
    ids=["weibull-2-5", "weibull-0.7-0.6", "lognormal-0.25-0.8", "lognormal--1.3-0.15"],
)
def test_array_cdf_matches_the_scalar_formula(dist, reference):
    interior = np.linspace(dist.quantile(1e-9), dist.quantile(1.0 - 1e-9), 4097)
    x = np.concatenate(([-2.0, -0.0, 0.0, math.inf], interior))
    values = dist.cdf(x)
    assert isinstance(values, np.ndarray) and values.shape == x.shape
    assert values[:3].tolist() == [0.0, 0.0, 0.0] and values[3] == 1.0
    # One ulp at 1.0 (2.2e-16): numpy's log and power may round the last
    # bit differently from math's.
    expected = np.array([reference(dist, float(v)) for v in x])
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=2.3e-16)
    # A float in gives a float out, the same value as the array element.
    assert type(dist.cdf(1.5)) is float
    assert dist.cdf(1.5) == dist.cdf(np.array([1.5]))[0]
    # Far past the float range of the scalar formula's power.
    assert dist.cdf(1e300) == 1.0


def test_lognormal_cdf_edge_values():
    dist = LogNormal(0.0, 1.0)
    values = dist.cdf(np.array([math.nan, -1.0, -0.0, 0.0, math.inf]))
    np.testing.assert_array_equal(values, [math.nan, 0.0, 0.0, 0.0, 1.0])
    assert math.isnan(dist.cdf(math.nan))
    assert type(dist.cdf(0.5)) is float


def test_normal_cdf_kernel_matches_erfc():
    # A fine grid over |z| <= 40, plus each |z| / sqrt 2 where the kernel
    # switches approximation (0.46875, 4; erfc is 0 from 26.543 on) and the
    # neighbouring floats.
    edges = [s * t * math.sqrt(2.0) for t in (0.46875, 4.0, 26.543) for s in (1.0, -1.0)]
    around = [[np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf)] for e in edges]
    z = np.concatenate([np.linspace(-40.0, 40.0, 1_000_001), *around, [0.0, -0.0]])
    values = distributions._normal_cdf(z)
    reference = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    # One ulp at 1.0 (2.2e-16), as for the scalar formula.
    np.testing.assert_allclose(values, reference, rtol=0.0, atol=2.3e-16)
    # The lower tail is computed from erfc directly, so it keeps its relative
    # accuracy down to the underflow (about 1e-15 measured).
    lower = (z <= 0.0) & (reference > 1e-300)
    np.testing.assert_allclose(values[lower], reference[lower], rtol=1e-14, atol=0.0)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_normal_cdf_kernel_is_bit_identical_to_the_gather_kernel(day24_scenario, monkeypatch):
    # The kernel runs Cody's (0.46875, 4] erfc over the whole array and
    # overwrites the other elements; the reference gathers each branch's
    # elements first.  Every bit must agree: the grids' cdf values and the
    # fixture bytes rest on them.
    edges = [s * t * math.sqrt(2.0) for t in (0.46875, 4.0, 26.543) for s in (1.0, -1.0)]
    around = [[np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf)] for e in edges]
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
    z = np.concatenate(
        [special, *around, np.random.default_rng(3).standard_normal(300_000) * 8.0]
    )
    np.testing.assert_array_equal(_bits(distributions._normal_cdf(z)), _bits(normal_cdf_reference(z)))
    for v in special:
        value = distributions._normal_cdf(v)
        assert value.shape == () and _bits(value) == _bits(normal_cdf_reference(v))
    assert distributions._normal_cdf(np.empty(0)).shape == (0,)
    assert distributions._normal_cdf(np.zeros((2, 3))).shape == (2, 3)

    # The arguments discretize passes for each day24 log-normal grid.
    inputs = []
    kernel = distributions._normal_cdf

    def spy(values):
        inputs.append(np.array(values))
        return kernel(values)

    lognormals = {
        q for spec in day24_scenario.steps for q in (spec.generation, spec.demand)
        if isinstance(q, LogNormal)
    }
    monkeypatch.setattr(distributions, "_normal_cdf", spy)
    for cells in (4096, 16384, 65536):
        for q in lognormals:
            discretize(q, cells)
    assert len(inputs) == 3 * len(lognormals) == 3 * 25
    for values in inputs:
        np.testing.assert_array_equal(_bits(kernel(values)), _bits(normal_cdf_reference(values)))


@pytest.mark.parametrize("dist", [Weibull(2.0, 5.0), Weibull(1.5, 0.5), LogNormal(-0.3, 1.2)])
def test_transform_into_another_array_leaves_the_draws(dist):
    draws = getattr(np.random.default_rng(5), dist.primitive)(1000)
    kept = draws.copy()
    out = np.empty_like(draws)
    assert dist.transform(draws, out) is out
    np.testing.assert_array_equal(draws, kept)
    in_place = kept.copy()
    assert dist.transform(in_place, in_place) is in_place
    np.testing.assert_array_equal(_bits(out), _bits(in_place))
    np.testing.assert_array_equal(in_place, dist.sample_n(np.random.default_rng(5), 1000))


def test_negative_arguments_have_zero_mass():
    for dist in (Weibull(2.0, 5.0), LogNormal(0.0, 1.0)):
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(0.0) == 0.0


def test_seeded_samples_pass_kolmogorov_smirnov():
    rng = np.random.default_rng(1234)
    w = Weibull(scale=2.0, shape=5.0).sample_n(rng, 20_000)
    ln = LogNormal(mu=0.0, sigma=1.0).sample_n(rng, 20_000)
    assert scipy.stats.kstest(w, scipy.stats.weibull_min(c=5.0, scale=2.0).cdf).pvalue > 1e-4
    assert scipy.stats.kstest(ln, scipy.stats.lognorm(s=1.0, scale=1.0).cdf).pvalue > 1e-4


@pytest.mark.parametrize(
    "dist",
    [
        Deterministic(1.5),
        Weibull(scale=2.0, shape=5.0),
        LogNormal(mu=0.0, sigma=1.0),
        Empirical((0.5, 1.0, 2.5, 4.0, 7.0)),
    ],
    ids=["deterministic", "weibull", "lognormal", "empirical"],
)
def test_sampling_is_reproducible_and_scalar_matches_batch(dist):
    batch_rng = np.random.default_rng(7)
    a = dist.sample_n(batch_rng, 10)
    b = dist.sample_n(np.random.default_rng(7), 10)
    np.testing.assert_array_equal(a, b)
    # k single draws equal one batch of k and leave the generator in the
    # same state: the prefix property batched trajectory sampling relies on.
    rng = np.random.default_rng(7)
    singles = np.concatenate([dist.sample_n(rng, 1) for _ in range(10)])
    np.testing.assert_array_equal(singles, a)
    assert rng.bit_generator.state == batch_rng.bit_generator.state


@given(
    scale=st.floats(0.1, 50.0),
    shape=st.floats(0.3, 12.0),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
def test_weibull_quantile_inverts_cdf(scale, shape, p):
    dist = Weibull(scale=scale, shape=shape)
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-9)


@given(
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(0.05, 2.5),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
def test_lognormal_quantile_inverts_cdf(mu, sigma, p):
    dist = LogNormal(mu=mu, sigma=sigma)
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-9)


def test_quantile_edge_levels():
    w = Weibull(2.0, 5.0)
    assert w.quantile(0.0) == 0.0
    assert w.quantile(1.0) == math.inf
    ln = LogNormal(0.0, 1.0)
    assert ln.quantile(0.0) == 0.0
    assert ln.quantile(1.0) == math.inf
    with pytest.raises(ValueError):
        w.quantile(1.5)
    with pytest.raises(ValueError):
        ln.quantile(-0.1)


def test_deterministic_is_a_point_mass():
    d = Deterministic(2.0)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(d.sample_n(rng, 5), np.full(5, 2.0))
    assert d.cdf(1.999) == 0.0
    assert d.cdf(2.0) == 1.0
    assert d.quantile(0.3) == 2.0


def test_empirical_step_function_and_order_statistics():
    e = Empirical(samples=(3.0, 1.0, 2.0, 2.0))
    assert e.cdf(0.5) == 0.0
    assert e.cdf(1.0) == 0.25
    assert e.cdf(2.0) == 0.75
    assert e.cdf(10.0) == 1.0
    assert e.quantile(0.0) == 1.0
    assert e.quantile(0.25) == 1.0
    assert e.quantile(0.26) == 2.0
    assert e.quantile(1.0) == 3.0
    draws = e.sample_n(np.random.default_rng(3), 100)
    assert set(draws) <= {1.0, 2.0, 3.0}


def test_empirical_order_statistics_are_read_only():
    # A parsed scenario is shared between callers; nothing may change it in place.
    e = Empirical(samples=(3.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        e._sorted[0] = 99.0
    assert (e.quantile(0.0), e.cdf(2.0), e.quantile(1.0)) == (1.0, 2.0 / 3.0, 3.0)


@given(
    mean=st.floats(0.05, 50.0),
    variance=st.floats(0.01, 40.0),
)
# mean**2 just above the smallest normal float: still parsed, to full precision.
@example(mean=1.5e-154, variance=1e-300)
def test_lognormal_from_moments_round_trips(mean, variance):
    dist = lognormal_from_moments(mean, variance)
    # The log-normal's moments in closed form.
    s2 = dist.sigma**2
    assert math.exp(dist.mu + 0.5 * s2) == pytest.approx(mean, rel=1e-9)
    assert math.expm1(s2) * math.exp(2.0 * dist.mu + s2) == pytest.approx(variance, rel=1e-9)


def test_lognormal_from_moments_frozen_values():
    dist = lognormal_from_moments(1.25, 1.0)
    assert dist.mu == pytest.approx(MOMENTS_1_25_1_MU, abs=1e-15)
    assert dist.sigma == pytest.approx(MOMENTS_1_25_1_SIGMA, abs=1e-15)
    # Coarser published approximation of the same log-space location.
    assert dist.mu == pytest.approx(-0.0242, abs=1e-4)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Weibull(scale=0.0, shape=5.0),
        lambda: Weibull(scale=2.0, shape=0.0),
        lambda: Weibull(scale=-2.0, shape=5.0),
        lambda: Weibull(scale=2.0, shape=-5.0),
        lambda: Weibull(scale=math.nan, shape=5.0),
        lambda: LogNormal(mu=0.0, sigma=0.0),
        lambda: LogNormal(mu=0.0, sigma=-1.0),
        lambda: LogNormal(mu=math.inf, sigma=1.0),
        lambda: Deterministic(-0.5),
        lambda: Deterministic(math.inf),
        lambda: Empirical(samples=()),
        lambda: Empirical(samples=(1.0, -2.0)),
        lambda: Empirical(samples=(1.0, math.nan)),
        lambda: lognormal_from_moments(0.0, 1.0),
        lambda: lognormal_from_moments(1.0, 0.0),
        lambda: lognormal_from_moments(-1.0, 1.0),
        lambda: lognormal_from_moments(1e-300, 1e-300),  # mean**2 underflows to 0
        lambda: lognormal_from_moments(1.7e-161, 1e-300),  # mean**2 is subnormal
    ],
)
def test_invalid_parameters_are_rejected(factory):
    with pytest.raises(ValueError):
        factory()


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        Weibull(2.0, 5.0).sample_n(np.random.default_rng(0), 0)


@settings(max_examples=25)
@given(st.floats(0.2, 5.0), st.floats(0.5, 8.0))
def test_weibull_sample_mean_tracks_formula(scale, shape):
    dist = Weibull(scale=scale, shape=shape)
    draws = dist.sample_n(np.random.default_rng(99), 40_000)
    # The Weibull's moments in closed form.
    g1, g2 = math.gamma(1.0 + 1.0 / shape), math.gamma(1.0 + 2.0 / shape)
    se = math.sqrt(scale**2 * (g2 - g1**2) / draws.size)
    assert abs(float(draws.mean()) - scale * g1) < 6.0 * se
