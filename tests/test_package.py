"""The public `hadrow` names stay fixed, each one the object its module declares."""

import hadrow
from hadrow import core, formats, ordering, spi, transform

# The package surface, fixed by the ROADMAP: dropping, adding or renaming a
# name fails here.
PUBLIC_NAMES = [
    "BASE_MATRIX",
    "BadMagicError",
    "BaseMatrix",
    "BitString",
    "DuplicateIndexError",
    "FULL_MATRIX_CAP",
    "INDEX_BITS_CAP",
    "IndexRangeError",
    "MAX_PIXEL",
    "MeasurementSet",
    "ORDER_CAP",
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

MODULES = (core, formats, ordering, spi, transform)


def test_all_lists_exactly_the_fixed_names():
    assert sorted(hadrow.__all__) == PUBLIC_NAMES


def test_star_import_binds_exactly_the_fixed_names():
    namespace = {}
    exec("from hadrow import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC_NAMES


def test_each_name_is_the_object_of_the_one_module_declaring_it():
    owners = {name: [m for m in MODULES if name in m.__all__] for name in PUBLIC_NAMES}
    assert {name: len(found) for name, found in owners.items() if len(found) != 1} == {}
    shadowed = [name for name, (module,) in owners.items() if getattr(hadrow, name) is not getattr(module, name)]
    assert shadowed == []


def test_hadp_layout_constants_stay_in_formats():
    from hadrow.formats import HEADER_SIZE, MAGIC, VERSION

    assert (MAGIC, VERSION, HEADER_SIZE) == (b"HADP", 1, 16)
    assert [name for name in ("MAGIC", "VERSION", "HEADER_SIZE") if hasattr(hadrow, name)] == []
