"""Alignment of posterior factor-loading samples.

Bayesian factor models leave the loadings matrix identified only up to
right-multiplication by a semi-orthogonal matrix, so raw MCMC output mixes
rotations, column labels, and column signs.  This package removes that
ambiguity in three steps: varimax-rotate every sample, pick a pivot sample by
the median conditioning statistic, and greedily match each sample's columns
to the pivot's with signs.  Exact matchers, a conjugate Gibbs sampler, data
generators, and alignment diagnostics round out the toolkit.

The package republishes the ``__all__`` of each of its submodules ``align``,
``chainio``, ``core``, ``diagnostics``, ``factor_model``, ``pivot`` and
``varimax``; other names stay importable from their module.
"""

from . import align, chainio, core, diagnostics, factor_model, pivot, varimax
from .align import *
from .chainio import *
from .core import *
from .diagnostics import *
from .factor_model import *
from .pivot import *
from .varimax import *

__version__ = "0.1.0"

__all__ = []
__all__ += align.__all__
__all__ += chainio.__all__
__all__ += core.__all__
__all__ += diagnostics.__all__
__all__ += factor_model.__all__
__all__ += pivot.__all__
__all__ += varimax.__all__
