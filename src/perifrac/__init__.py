"""Periodic fractional two-solution solver.

Spectral discretization of [(-Lap + m^2)^s - gamma] u = lambda f(x, u) on a
torus, with certified constants (kappa, embedding sigmas, admissible-lambda
tables), an extension-problem cross-check battery, and a constrained-descent /
mountain-pass pipeline that returns two distinct solutions when the
certificate admits them.
"""

from . import config, constants, extension, solvers, spectral, variational
from .config import *
from .constants import *
from .extension import *
from .solvers import *
from .spectral import *
from .variational import *

__version__ = "0.1.0"

# each public name is declared once, by its own module's __all__
__all__ = ["__version__"]
for _module in (config, constants, extension, solvers, spectral, variational):
    __all__ += _module.__all__
del _module
