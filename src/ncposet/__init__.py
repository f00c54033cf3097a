"""Posets classifying term orders on free-monoid words.

The base order is the intersection of every multiplicative total order on
words with 1 minimal and x1 < x2 < ...; companion families cover the
sorted and degree-compatible restrictions of that menu, and the
commutative quotient is Young's lattice of integer partitions.  On top of
the comparisons sit cover enumeration, Hasse graphs with JSON/DOT export,
rank generating functions, term-order validators, and strongly stable
ideal closures.
"""

from . import commutative, errors, ideals, ncorder, posets, series, termorders, variants, words
from .commutative import *
from .errors import *
from .ideals import *
from .ncorder import *
from .posets import *
from .series import *
from .termorders import *
from .variants import *
from .words import *

__version__ = "0.1.0"

__all__ = [
    name
    for m in (commutative, errors, ideals, ncorder, posets, series, termorders, variants, words)
    for name in m.__all__
]
