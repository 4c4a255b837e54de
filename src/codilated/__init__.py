"""Semi-iterative accelerated Landweber methods built from co-dilated
orthogonal polynomials: polynomial machinery, test operators, solvers,
and reproducible experiments."""

from . import operators, orthopoly, solvers, zeros
from .operators import *  # noqa: F403
from .orthopoly import *  # noqa: F403
from .solvers import *  # noqa: F403
from .zeros import *  # noqa: F403

__all__ = operators.__all__ + orthopoly.__all__ + solvers.__all__ + zeros.__all__
__version__ = "0.1.0"
