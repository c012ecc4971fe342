"""hadrow: single Hadamard matrix rows on demand.

Generate any row of an order-2^n Sylvester Hadamard matrix in O(2^n)
time and memory, reorder indices (natural, sequency, dyadic), transform
with the fast Walsh-Hadamard butterfly, simulate single-pixel imaging,
and serialize patterns bit-exactly.

Each public name is declared once, in the `__all__` of the module that
defines it; this package re-exports those five lists as its own.
"""

from . import core, formats, ordering, spi, transform
from .core import *
from .formats import *
from .ordering import *
from .spi import *
from .transform import *

__version__ = "0.1.0"

__all__ = sorted({*core.__all__, *formats.__all__, *ordering.__all__, *spi.__all__, *transform.__all__})
