"""hadrow: single Hadamard matrix rows on demand.

Generate any row of an order-2^n Sylvester Hadamard matrix in O(2^n)
time and memory, reorder indices (natural, sequency, dyadic), transform
with the fast Walsh-Hadamard butterfly, simulate single-pixel imaging,
and serialize patterns bit-exactly.
"""

from .core import (
    BASE_MATRIX,
    FULL_MATRIX_CAP,
    INDEX_BITS_CAP,
    ORDER_CAP,
    BaseMatrix,
    BitString,
    IndexRangeError,
    OpCounter,
    OrderError,
    SignVector,
    dec2bin,
    direct_row,
    full_matrix,
    generate_row,
    generate_rows,
    kron,
    predicted_cost,
)
from .formats import (
    BadMagicError,
    PatternFileHeader,
    PatternFormatError,
    PatternWriter,
    TruncatedStreamError,
    UnsupportedVersionError,
    export_row_text,
    read_patterns,
    write_patterns,
)
from .ordering import (
    OrderingScheme,
    bit_reverse,
    generate_ordered_row,
    gray_code,
    sign_changes,
    to_natural,
    to_natural_array,
)
from .spi import (
    MAX_PIXEL,
    DuplicateIndexError,
    MeasurementSet,
    PgmError,
    Scene,
    read_pgm,
    reconstruct,
    simulate,
    write_pgm,
)
from .transform import Spectrum, fwht, ifwht

__version__ = "0.1.0"

__all__ = [
    "BASE_MATRIX",
    "FULL_MATRIX_CAP",
    "INDEX_BITS_CAP",
    "MAX_PIXEL",
    "ORDER_CAP",
    "BadMagicError",
    "BaseMatrix",
    "BitString",
    "DuplicateIndexError",
    "IndexRangeError",
    "MeasurementSet",
    "OpCounter",
    "OrderError",
    "OrderingScheme",
    "PatternFileHeader",
    "PatternFormatError",
    "PatternWriter",
    "PgmError",
    "Scene",
    "SignVector",
    "Spectrum",
    "TruncatedStreamError",
    "UnsupportedVersionError",
    "bit_reverse",
    "dec2bin",
    "direct_row",
    "export_row_text",
    "full_matrix",
    "fwht",
    "generate_ordered_row",
    "generate_row",
    "generate_rows",
    "gray_code",
    "ifwht",
    "kron",
    "predicted_cost",
    "read_patterns",
    "read_pgm",
    "reconstruct",
    "sign_changes",
    "simulate",
    "to_natural",
    "to_natural_array",
    "write_patterns",
    "write_pgm",
]
