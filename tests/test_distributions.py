"""Distribution models against independent scipy oracles and known moments."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stochstore import (
    Deterministic,
    Empirical,
    LogNormal,
    UnsupportedOperationError,
    Weibull,
    lognormal_from_moments,
)

# Frozen oracle values (computed independently via math.gamma / scipy).
WEIBULL_2_5_MEAN = 1.8363374847995209  # 2 * gamma(1 + 1/5)
WEIBULL_2_5_VAR = 0.17691991193247159
LOGNORMAL_0_1_MEAN = 1.6487212707001282  # exp(1/2)
MOMENTS_1_25_1_MU = -0.02420456960384379
MOMENTS_1_25_1_SIGMA = 0.7033464593186682


def test_weibull_moments_match_scipy():
    dist = Weibull(scale=2.0, shape=5.0)
    ref = scipy.stats.weibull_min(c=5.0, scale=2.0)
    assert dist.mean() == pytest.approx(WEIBULL_2_5_MEAN, abs=1e-12)
    assert dist.mean() == pytest.approx(ref.mean(), abs=1e-12)
    assert dist.variance() == pytest.approx(WEIBULL_2_5_VAR, abs=1e-12)
    assert dist.variance() == pytest.approx(ref.var(), abs=1e-12)


def test_lognormal_moments_match_scipy():
    dist = LogNormal(mu=0.0, sigma=1.0)
    ref = scipy.stats.lognorm(s=1.0, scale=1.0)
    assert dist.mean() == pytest.approx(LOGNORMAL_0_1_MEAN, abs=1e-12)
    assert dist.mean() == pytest.approx(ref.mean(), abs=1e-12)
    assert dist.variance() == pytest.approx(ref.var(), rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.8363, 2.0, 3.5, 6.0])
def test_weibull_cdf_pdf_quantile_match_scipy(x):
    dist = Weibull(scale=2.0, shape=5.0)
    ref = scipy.stats.weibull_min(c=5.0, scale=2.0)
    assert dist.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-13)
    assert dist.pdf(x) == pytest.approx(ref.pdf(x), abs=1e-13)
    p = dist.cdf(x)
    if 0.0 < p < 1.0:
        assert dist.quantile(p) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 1.6487, 4.0, 20.0])
def test_lognormal_cdf_pdf_quantile_match_scipy(x):
    dist = LogNormal(mu=0.25, sigma=0.8)
    ref = scipy.stats.lognorm(s=0.8, scale=math.exp(0.25))
    assert dist.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)
    assert dist.pdf(x) == pytest.approx(ref.pdf(x), abs=1e-12)
    assert dist.quantile(ref.cdf(x)) == pytest.approx(x, rel=1e-9)


def test_negative_arguments_have_zero_mass():
    for dist in (Weibull(2.0, 5.0), LogNormal(0.0, 1.0)):
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(0.0) == 0.0
        assert dist.pdf(-0.5) == 0.0


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
    assert d.mean() == 2.0
    assert d.variance() == 0.0
    assert d.quantile(0.3) == 2.0
    with pytest.raises(UnsupportedOperationError):
        d.pdf(2.0)


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
    assert e.mean() == pytest.approx(2.0)
    assert e.variance() == pytest.approx(0.5)
    draws = e.sample_n(np.random.default_rng(3), 100)
    assert set(draws) <= {1.0, 2.0, 3.0}


@given(
    mean=st.floats(0.05, 50.0),
    variance=st.floats(0.01, 40.0),
)
def test_lognormal_from_moments_round_trips(mean, variance):
    dist = lognormal_from_moments(mean, variance)
    assert dist.mean() == pytest.approx(mean, rel=1e-9)
    assert dist.variance() == pytest.approx(variance, rel=1e-9)


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
    se = math.sqrt(dist.variance() / draws.size)
    assert abs(float(draws.mean()) - dist.mean()) < 6.0 * se
