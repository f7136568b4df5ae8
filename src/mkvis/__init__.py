"""Mutual k-visibility in graphs.

Two vertices are mutually k-visible with respect to a set X when some
shortest path between them passes through at most k members of X other than
the endpoints themselves. This package provides the membership kernel, exact
solvers for the visibility number and its total/outer/dual variants, the
general position number, visibility polynomials, a block-graph structure
theory, and visibility covers, plus a CLI (``mkvis``).
"""

from .blocks import *
from .covering import *
from .errors import *
from .graphs import *
from .kernel import *
from .solvers import *

__version__ = "0.1.0"

# each module's __all__ declares what the package exports; a star import binds the module's name too
__all__ = ["__version__", *blocks.__all__, *covering.__all__, *errors.__all__,
           *graphs.__all__, *kernel.__all__, *solvers.__all__]
