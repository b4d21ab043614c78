"""sexakit: exact base-60 arithmetic and Susa tablet excavation replays.

The package computes only exactly: every number is an arbitrary-precision
rational, every comparison is equality, nothing is ever rounded.  On top
of the number core sit Babylonian units, the scribal solution procedures
(completing the square, sum-difference, division by recognition), canal
geometry, and a corpus of tablet problems that replay and verify every
intermediate "you see N" value of SMT No. 24 and No. 25.
"""

# Each module's __all__ is the one list of its public names.  corpus imports
# the rest; compiled before sexa's digit tables exist, the import peaks lower.
from . import errors
from .corpus import *
from .geometry import *
from .procedures import *
from .units import *
from .sexa import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    *sexa.__all__,
    *units.__all__,
    *procedures.__all__,
    *geometry.__all__,
    *corpus.__all__,
]
