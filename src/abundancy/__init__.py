"""Exact and certified arithmetic around the abundancy index sigma(n)/n,
with the constraint machinery for odd-perfect-number candidates.

Integers are exact and unbounded, index values are exact rationals, and every
irrational quantity (logarithms, real powers, square roots) is a rigorous
enclosure produced with directed rounding, so each strict inequality reported
by this package is certified rather than floated.
"""

from .arith import *
from .index import *
from .interval import *
from .mersenne import *
from .opn import *
from .report import *

__version__ = "0.1.0"
