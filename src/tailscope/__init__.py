"""tailscope: mean excess plot diagnostics for heavy-tailed data.

A library and command line tool for reading extreme-value shape off mean
excess plots, with normalized plot constructions whose set-valued limits
distinguish finite-mean heavy tails, infinite-mean tails, bounded tails
and thin tails; tail index estimators; seeded set-convergence
experiments; and a daily time-series pipeline (seasonal scale profile,
autoregression, residual diagnostics).
"""

__version__ = "0.1.0"

from .dist import *  # noqa: E402,F401,F403
from .empirics import *  # noqa: E402,F401,F403
from .errors import *  # noqa: E402,F401,F403
from .estimators import *  # noqa: E402,F401,F403
from .pipeline import *  # noqa: E402,F401,F403
from .randset import *  # noqa: E402,F401,F403
