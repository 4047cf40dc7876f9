"""Random-variable models for per-step energy quantities.

Every model describes a nonnegative scalar quantity (an energy amount for
one time step) and exposes the same small interface: seeded sampling,
cumulative probability and quantiles.  Sampling goes through
``numpy.random.Generator`` so that callers control reproducibility
explicitly.  Every family's ``cdf`` is elementwise: a float in gives a
float out, an array in gives an array out, so a whole grid of cell edges or
a set of shifted points is evaluated in one call.

Every family but ``Deterministic``, which draws nothing, samples in two
parts: ``primitive`` names the ``Generator`` method it draws from and
``transform(draws, out)`` maps those draws to values elementwise, into
``out``: the draws themselves for an in-place map, or another array, which
leaves the draws as they are.  Weibull and Empirical invert their cdf at
uniform draws, and LogNormal maps standard normals.  One call for ``k``
draws yields the same stream as ``k`` calls for one draw each, so a caller
may take the draws of several consecutive quantities that share a primitive
in a single call and apply each quantity's ``transform`` afterwards.
``raw_floor(v)`` is each family's closed-form inverse of ``transform`` at
``v``, less a margin: a raw draw below it surely gives a value below ``v``;
``raw_ceil(v)`` is the inverse plus a margin, at or above which a raw draw
surely gives a value above ``v``.  Both are elementwise, like ``cdf``.
"""

from __future__ import annotations

import math
import sys
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
_SQRT2 = math.sqrt(2.0)
_LEAST_POSITIVE = math.ulp(0.0)

# A raw bound's relative margin: far above the few ulps by which a transform
# rounds, so that a draw just past the bound cannot round onto ``v``.
RAW_MARGIN = 1e-9

# Rational Chebyshev approximations to erf and erfc from W. J. Cody, Math.
# Comp. 23 (1969) 631-637, with the coefficients of his CALERF routine:
# erf on |x| <= 0.46875, erfc on (0.46875, 4] and on (4, inf).  numpy has
# no erf and scipy is not a runtime dependency.
_ERF_SMALL = 0.46875
_ERFC_MID = 4.0
_ERFC_ZERO = 26.543  # erfc underflows to 0 from here on
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _rational(num: tuple, den: tuple, t: np.ndarray) -> np.ndarray:
    """Cody's nested ratio: ``num[-1]`` leads, ``num[-2]`` and ``den[-1]`` close.

    The denominator's leading coefficient is 1, so ``t + den[0]`` seeds it.
    The result is a new array, summed in place; ``t`` is left as it is.
    """
    xnum, xden = num[-1] * t, t + den[0]
    for a, b in zip(num[:-2], den[1:]):
        xnum += a
        xnum *= t
        xden *= t
        xden += b
    xnum += num[-2]
    xnum /= xden
    return xnum


def _erfc(y: np.ndarray) -> np.ndarray:
    """``erfc(y)`` where ``y > 0.46875`` or NaN (NaN gives NaN), as a new array.

    ``y`` is this call's own: it is clamped in place and then overwritten,
    so the caller must not read it afterwards.  The result is the (0.46875, 4]
    rational's numerator array, which runs over the whole of ``y``; the
    tail's formula then overwrites the elements past 4, and an element at or
    below 0.46875 gets a finite value that the caller overwrites.  ``y.max()``,
    read once, skips the clamp and the underflow mask when no element
    reaches 26.543, and the tail mask when none passes 4; an empty ``y``
    skips them all.  A NaN max says nothing of the other elements, so it
    takes every branch.
    """
    top = y.max(initial=-np.inf)
    clamp = not top < _ERFC_ZERO
    if clamp:
        np.minimum(y, _ERFC_ZERO, out=y)  # keeps inf (inf - inf) out of the split below
        zero = y == _ERFC_ZERO
    out = _rational(_ERFC_C, _ERFC_D, y)
    if not top <= _ERFC_MID:
        tail = y > _ERFC_MID
        y_tail = y[tail]
        inv_sq = 1.0 / (y_tail * y_tail)
        r = _rational(_ERFC_P, _ERFC_Q, inv_sq)
        r *= inv_sq
        np.subtract(_INV_SQRT_PI, r, out=r)
        r /= y_tail
        out[tail] = r
    # exp(-y*y) in two factors: y cut to a multiple of 1/16 squares exactly.
    y16 = np.multiply(y, 16.0)
    np.trunc(y16, out=y16)
    y16 /= 16.0
    factor = np.subtract(y16, y)  # -(y - y16), exactly
    y += y16
    factor *= y
    np.exp(factor, out=factor)  # exp(-(y - y16) * (y + y16))
    np.multiply(y16, y16, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)  # exp(-y16 * y16)
    y *= factor
    out *= y
    if clamp:
        out[zero] = 0.0
    return out


def _normal_cdf(z) -> np.ndarray:
    """Standard normal cdf elementwise; NaN gives NaN, ``±inf`` gives 1 or 0.

    ``0.5 * (1 + erf(z / sqrt 2))`` near 0; elsewhere ``0.5 * erfc(|z| / sqrt 2)``
    for ``z < 0`` and one minus that for ``z > 0``, so the lower tail keeps its
    relative accuracy down to the underflow.  The one scaled copy
    ``x = z / sqrt 2`` keeps its sign as a bool mask, becomes ``|x|`` in
    place and is handed to ``_erfc``, which owns and overwrites it.  The erfc
    form is evaluated over the whole array, and the few elements near 0, if
    any, are then overwritten; their ``x`` is the same division of ``z``,
    taken again.  The result is a new array; ``z`` is left as it is.
    """
    z = np.asarray(z, dtype=float)
    z_flat = z.reshape(-1)  # a 0-d z as one element, so the masks index it
    y = z_flat / _SQRT2
    upper = ~(y < 0.0)
    np.abs(y, out=y)
    small = y <= _ERF_SMALL
    out = _erfc(y)
    out *= 0.5
    np.subtract(1.0, out, out=out, where=upper)
    if small.any():
        x_small = z_flat[small] / _SQRT2
        r = _rational(_ERF_A, _ERF_B, x_small * x_small)
        r *= x_small
        r += 1.0
        r *= 0.5
        out[small] = r
    return out.reshape(z.shape)


def _elementwise(values: np.ndarray):
    """A 0-d result as a float, any other as the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ValueError(f"probability level must lie in [0, 1], got {p!r}")
    return p


class Distribution:
    """Common interface for the supported per-step quantities."""

    #: ``numpy.random.Generator`` method whose draws ``transform`` maps to
    #: values; ``None`` for ``Deterministic``, which draws nothing.
    primitive: str | None = None

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` independent values as a float array of shape ``(n,)``."""
        draws = getattr(rng, self.primitive)(self._check_n(n))
        return self.transform(draws, draws)

    def transform(self, draws: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Map draws of ``primitive`` to values of this quantity, elementwise.

        The values are written into ``out`` and returned; ``out`` may be
        ``draws`` itself, and any other array leaves ``draws`` unchanged.
        """
        raise NotImplementedError

    def raw_floor(self, v):
        """A raw draw below which ``transform`` gives a value ``< v``, for ``v > 0``.

        Every draw of ``primitive`` below the floor transforms to a value
        below ``v``, with a relative margin for the transform's rounding;
        ``-inf`` where no draw is known to (a family without a floor, or a
        ``v`` every draw may reach).  It is each family's own closed-form
        inverse of ``transform``, not read from ``cdf``; elementwise over a
        float or an array.
        """
        return _elementwise(np.full(np.shape(v), -np.inf))

    def raw_ceil(self, v):
        """A raw draw at or above which ``transform`` gives a value ``> v``, for ``v >= 0``.

        The mirror of ``raw_floor``: ``inf`` where no draw is known to give
        a value above ``v``.
        """
        return _elementwise(np.full(np.shape(v), np.inf))

    def cdf(self, x):
        """Probability that the quantity is <= ``x``, elementwise over a float or an array."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Smallest ``x`` with ``cdf(x) >= p``."""
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

    def cdf(self, x):
        return _elementwise(np.greater_equal(x, self.value).astype(float))

    def quantile(self, p: float) -> float:
        _check_probability(p)
        return self.value


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

    def transform(self, draws: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Inverse-transform: x = scale * (-log(1 - U))**(1/shape).
        np.negative(draws, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        np.power(out, 1.0 / self.shape, out=out)
        out *= self.scale
        return out

    def raw_floor(self, v):
        # U < 1 - exp(-(v / scale)**shape) gives a value below v.  The margin
        # comes off the power, on which the transform's rounding of its log
        # weighs 1 + shape times.  An inf power puts every uniform below the
        # floor; a shape past 1e9 takes the whole power, and leaves no floor.
        floor = self._uniform_at(v, 1.0 - RAW_MARGIN * (1.0 + self.shape))
        return _elementwise(np.where(floor > 0.0, floor, -np.inf))

    def raw_ceil(self, v):
        # U >= 1 - exp(-(v / scale)**shape) gives a value above v, with the
        # margin added to the power.  As for the log-normal, a v below the
        # least positive float is read as that float, and one ulp up takes a
        # power that rounds to 0 past it.  A ceiling at 1 is above every
        # uniform: inf.
        factor = 1.0 + RAW_MARGIN * (1.0 + self.shape)
        ceil = np.nextafter(self._uniform_at(np.maximum(v, _LEAST_POSITIVE), factor), 1.0)
        return _elementwise(np.where(ceil < 1.0, ceil, np.inf))

    def _uniform_at(self, v, factor: float) -> np.ndarray:
        """``1 - exp(-(v / scale)**shape * factor)``; a power past the float range is inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            return -np.expm1(-np.power(np.divide(v, self.scale), self.shape) * factor)

    def cdf(self, x):
        """``F(x)`` elementwise over a float or an array; 0 for ``x <= 0``."""
        # An array is worked in one new array, a 0-d x in numpy scalars:
        # numpy's scalar power rounds differently from its array loop.
        out = None if np.ndim(x) == 0 else np.empty(np.shape(x))
        f = np.maximum(x, 0.0, out=out)
        with np.errstate(over="ignore"):  # a power past the float range is inf: cdf 1
            f = np.divide(f, self.scale, out=out)
            f **= self.shape
        f = np.negative(f, out=out)
        f = np.expm1(f, out=out)
        return _elementwise(np.negative(f, out=out))

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 1.0:
            return math.inf
        return self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)


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

    def transform(self, draws: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(draws, self.sigma, out=out)
        out += self.mu
        return np.exp(out, out=out)

    def raw_floor(self, v):
        # z < (log v - mu) / sigma gives a value below v.  The margin comes off
        # the exponent, scaled by the terms it is rounded from; a quotient past
        # the float range is inf, which every draw is below.
        return self._z(np.log(v), -1.0)

    def raw_ceil(self, v):
        # z >= (log v - mu) / sigma, plus the margin, gives a value above v.  A
        # v below the least positive float is read as that float, whose log
        # exp does not round to 0.
        return self._z(np.log(np.maximum(v, _LEAST_POSITIVE)), 1.0)

    def _z(self, log_v, sign: float):
        margin = RAW_MARGIN * (1.0 + np.abs(log_v) + abs(self.mu))
        with np.errstate(over="ignore"):
            return _elementwise((log_v - self.mu + sign * margin) / self.sigma)

    def cdf(self, x):
        """Normal cdf of ``(log(x) - mu) / sigma`` elementwise; 0 for ``x <= 0``."""
        # The log is taken in place in the clipped copy, never in the caller's x.
        z = np.maximum(x, 0.0, out=np.empty(np.shape(x)))
        with np.errstate(divide="ignore", over="ignore"):  # log(0) or an infinite z: cdf 0 or 1
            np.log(z, out=z)
            z -= self.mu
            z /= self.sigma
        return _elementwise(_normal_cdf(z))

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return math.inf
        return math.exp(self.mu + self.sigma * _STD_NORMAL.inv_cdf(p))


@dataclass(frozen=True)
class Empirical(Distribution):
    """Resampling distribution over an observed nonnegative sample set.

    ``cdf`` is the empirical step function; ``quantile`` inverts it
    (order statistics), and sampling draws uniformly with replacement by
    inverting it at uniform draws.
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
        # + 0.0 turns a -0.0 sample into 0.0, so that equal Empiricals (== reads
        # -0.0 as 0.0) transform a draw to the same value.
        ordered = np.sort(values) + 0.0
        ordered.setflags(write=False)  # parsed scenarios are shared between callers
        object.__setattr__(self, "_sorted", ordered)

    primitive = "random"

    def transform(self, draws: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Inverse-transform: U in [k / size, (k + 1) / size) gives _sorted[k].
        # The index is formed in out, and "clip" (which a U < 1 never needs)
        # takes into out without buffering it.
        np.multiply(draws, self._sorted.size, out=out)
        return np.take(self._sorted, out.astype(np.intp), out=out, mode="clip")

    def raw_floor(self, v):
        # U < k / size takes an index below k, the first sample >= v (a sample
        # equal to v is not below it).  The margin keeps U * size from
        # rounding up onto k.
        k = np.searchsorted(self._sorted, v, "left")
        return _elementwise(np.where(k > 0, k / self._sorted.size * (1.0 - RAW_MARGIN), -np.inf))

    def raw_ceil(self, v):
        # U >= j / size takes an index at or above j, the first sample > v.
        # The margin keeps U * size from rounding down below j; with no
        # sample above v, no draw is.
        j = np.searchsorted(self._sorted, v, "right")
        size = self._sorted.size
        return _elementwise(np.where(j < size, j / size * (1.0 + RAW_MARGIN), np.inf))

    def cdf(self, x):
        return _elementwise(np.searchsorted(self._sorted, x, side="right") / self._sorted.size)

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        if p == 0.0:
            return float(self._sorted[0])
        k = math.ceil(p * self._sorted.size)
        return float(self._sorted[k - 1])


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
    if mean**2 < sys.float_info.min:
        raise ValueError(f"target mean {mean!r} is too small: its square underflows")
    sigma_sq = math.log1p(variance / mean**2)
    mu = math.log(mean) - 0.5 * sigma_sq
    return LogNormal(mu=mu, sigma=math.sqrt(sigma_sq))
