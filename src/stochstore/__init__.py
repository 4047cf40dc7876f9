"""Stochastic generation/demand/storage modeling.

A discrete-time system couples an energy generator, a consumer, and a
clamped store.  This package computes per-step deficit / overflow /
self-sufficiency probabilities three independent ways — numerical density
convolution, a Weibull closed form, and seeded Monte Carlo — and ships a
CLI that keeps the routes honest against each other.

Each public name is declared once, in its library module's ``__all__``;
the package re-exports those lists whole.
"""

from . import balance, distributions, montecarlo, scenario, storage
from .balance import *
from .distributions import *
from .montecarlo import *
from .scenario import *
from .storage import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *distributions.__all__,
    *storage.__all__,
    *balance.__all__,
    *montecarlo.__all__,
    *scenario.__all__,
]
