"""Adaptive beamforming for uniform linear arrays.

Implements and compares five narrowband beamformers: classical MVDR,
sparse-constraint and weighted-sparse-constraint variants that penalize
response over a grid of candidate interference directions, a robust
ellipsoid-constrained design, and the combination of the robust
constraint with the weighted sparse penalty.

The public API is the union of the library modules' ``__all__`` lists
plus ``__version__``; each module's list is the only place its public
names are written down.
"""

from . import analysis, arrays, covariance, errors, experiment, solvers, weighting
from .analysis import *
from .arrays import *
from .covariance import *
from .errors import *
from .experiment import *
from .solvers import *
from .weighting import *

__version__ = "1.0.0"

__all__ = ["__version__"] + [
    name
    for module in (analysis, arrays, covariance, errors, experiment, solvers, weighting)
    for name in module.__all__
]
