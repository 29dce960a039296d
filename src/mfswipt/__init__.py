"""Mixed near-/far-field SWIPT: joint beam scheduling and power allocation.

An XL-array base station serves near-field energy harvesters and far-field
information decoders at once.  This package models the geometry and beam
couplings, evaluates rates and harvested power for any allocation, and
solves the weighted harvested-power maximization under a sum-rate floor
through one entry point, `sca_solve`: a convexification loop that solves
the harvester-only and single-decoder cases exactly as linear programs.  A
brute-force schedule oracle checks it.

Each module's `__all__` is the only list of its public names; the package
re-exports them all.
"""

__version__ = "0.1.0"

from .geometry import *
from .scenario import *
from .correlation import *
from .metrics import *
from .solvers import *
from .benchmarks import *

__all__ = [
    "__version__",
    *geometry.__all__,
    *scenario.__all__,
    *correlation.__all__,
    *metrics.__all__,
    *solvers.__all__,
    *benchmarks.__all__,
]
