"""Blending operators between endpoint interpolation and sampling,
their eigenstructure, summed operator series, the limit inverse, and
quantitative convergence bounds on the pinned space.

The public names are those of each library module's ``__all__``."""

from . import bounds, corpus, eigen, operators, polyfun, series, voronovskaya
from .polyfun import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .eigen import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .voronovskaya import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (polyfun, operators, eigen, series,
                               voronovskaya, bounds, corpus)
           for name in module.__all__] + ["__version__"]
