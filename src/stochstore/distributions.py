"""Random-variable models for per-step energy quantities.

Every model describes a nonnegative scalar quantity (an energy amount for
one time step) and exposes the same small interface: seeded sampling,
cumulative probability, quantiles, and the first two moments.  Sampling goes through ``numpy.random.Generator`` so that
callers control reproducibility explicitly.

The continuous families sample in two parts: ``primitive`` names the
``Generator`` method they draw from and ``transform`` maps those draws to
values elementwise, in place.  One call for ``k`` draws yields the same
stream as ``k`` calls for one draw each, so a caller may take the draws of
several consecutive quantities that share a primitive in a single call and
apply each quantity's ``transform`` afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Weibull",
    "LogNormal",
    "Empirical",
    "lognormal_from_moments",
]

_STD_NORMAL = NormalDist()


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ValueError(f"probability level must lie in [0, 1], got {p!r}")
    return p


class Distribution:
    """Common interface for the supported per-step quantities."""

    #: ``numpy.random.Generator`` method whose draws ``transform`` maps to
    #: values; ``None`` for a family that overrides ``sample_n`` instead.
    primitive: str | None = None

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` independent values as a float array of shape ``(n,)``."""
        return self.transform(getattr(rng, self.primitive)(self._check_n(n)))

    def transform(self, draws: np.ndarray) -> np.ndarray:
        """Map draws of ``primitive`` to values of this quantity, elementwise.

        Works in place: ``draws`` is overwritten with the values and returned.
        """
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        """Probability that the quantity is <= ``x``."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Smallest ``x`` with ``cdf(x) >= p``."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    @staticmethod
    def _check_n(n: int) -> int:
        n = int(n)
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        return n


@dataclass(frozen=True)
class Deterministic(Distribution):
    """A known constant, modeled as a point mass at ``value`` (>= 0)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"deterministic value must be finite and >= 0, got {self.value!r}")
        object.__setattr__(self, "value", v)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(self._check_n(n), self.value, dtype=float)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def quantile(self, p: float) -> float:
        _check_probability(p)
        return self.value

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull quantity with scale ``scale`` > 0 and shape ``shape`` > 0.

    CDF: ``F(x) = 1 - exp(-(x / scale) ** shape)`` for x >= 0, else 0.
    """

    scale: float
    shape: float

    def __post_init__(self) -> None:
        scale, shape = float(self.scale), float(self.shape)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"weibull scale must be finite and > 0, got {self.scale!r}")
        if not (math.isfinite(shape) and shape > 0.0):
            raise ValueError(f"weibull shape must be finite and > 0, got {self.shape!r}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "shape", shape)

    primitive = "random"

    def transform(self, draws: np.ndarray) -> np.ndarray:
        # Inverse-transform: x = scale * (-log(1 - U))**(1/shape).
        np.negative(draws, out=draws)
        np.log1p(draws, out=draws)
        np.negative(draws, out=draws)
        np.power(draws, 1.0 / self.shape, out=draws)
        draws *= self.scale
        return draws

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-((x / self.scale) ** self.shape))

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 1.0:
            return math.inf
        return self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal quantity: ``exp(N(mu, sigma**2))`` with ``sigma`` > 0."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        mu, sigma = float(self.mu), float(self.sigma)
        if not math.isfinite(mu):
            raise ValueError(f"lognormal mu must be finite, got {self.mu!r}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"lognormal sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    primitive = "standard_normal"

    def transform(self, draws: np.ndarray) -> np.ndarray:
        draws *= self.sigma
        draws += self.mu
        return np.exp(draws, out=draws)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _STD_NORMAL.cdf((math.log(x) - self.mu) / self.sigma)

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return math.inf
        return math.exp(self.mu + self.sigma * _STD_NORMAL.inv_cdf(p))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self) -> float:
        s2 = self.sigma**2
        return math.expm1(s2) * math.exp(2.0 * self.mu + s2)


@dataclass(frozen=True)
class Empirical(Distribution):
    """Resampling distribution over an observed nonnegative sample set.

    ``cdf`` is the empirical step function; ``quantile`` inverts it
    (order statistics), and sampling draws uniformly with replacement.
    """

    samples: tuple[float, ...]
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(tuple(self.samples), dtype=float)
        if values.size == 0:
            raise ValueError("empirical distribution requires at least one sample")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("empirical samples must all be finite and >= 0")
        object.__setattr__(self, "samples", tuple(float(v) for v in values))
        object.__setattr__(self, "_sorted", np.sort(values))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self._sorted, size=self._check_n(n), replace=True)

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self._sorted, x, side="right")) / self._sorted.size

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 0.0:
            return float(self._sorted[0])
        k = math.ceil(p * self._sorted.size)
        return float(self._sorted[k - 1])

    def mean(self) -> float:
        return float(np.mean(self._sorted))

    def variance(self) -> float:
        return float(np.var(self._sorted))


def lognormal_from_moments(mean: float, variance: float) -> LogNormal:
    """Build the log-normal whose mean and variance match the arguments.

    Inverts the moment identities ``mean = exp(mu + sigma**2 / 2)`` and
    ``variance = (exp(sigma**2) - 1) * mean**2``:

    ``sigma**2 = log(1 + variance / mean**2)``,
    ``mu = log(mean) - sigma**2 / 2``.
    """
    mean, variance = float(mean), float(variance)
    if not (math.isfinite(mean) and mean > 0.0):
        raise ValueError(f"target mean must be finite and > 0, got {mean!r}")
    if not (math.isfinite(variance) and variance > 0.0):
        raise ValueError(f"target variance must be finite and > 0, got {variance!r}")
    sigma_sq = math.log1p(variance / mean**2)
    mu = math.log(mean) - 0.5 * sigma_sq
    return LogNormal(mu=mu, sigma=math.sqrt(sigma_sq))
