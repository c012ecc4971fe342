"""Tests for the single-pixel-imaging simulation and graymap handling."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadrow import (
    INDEX_BITS_CAP,
    DuplicateIndexError,
    IndexRangeError,
    MeasurementSet,
    OrderError,
    OrderingScheme,
    PgmError,
    Scene,
    direct_row,
    ifwht,
    read_pgm,
    reconstruct,
    simulate,
    to_natural,
    to_natural_array,
    write_pgm,
)
from hadrow.spi import _PGM_BLOCK_BYTES, _pgm_pieces

ALL_SCHEMES = list(OrderingScheme)


def _oracle_value(scene, k, scheme):
    """Inner product of the scene with ordered row k, built by the direct oracle."""
    row = direct_row(to_natural(k, scene.n, scheme), scene.n)
    return int(row.to_numpy().astype(np.int64) @ scene.pixels)


def _simulate_peak(scene, indices, scheme="sequency"):
    """tracemalloc peak of one simulate call, above what was live before it."""
    simulate(scene, [0, 1], scheme)  # warm caches before measuring
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    simulate(scene, indices, scheme)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - base


class TestScene:
    def test_accepts_flat_and_2d_pixels(self):
        flat = Scene(np.arange(16), 4, 4)
        square = Scene(np.arange(16).reshape(4, 4), 4, 4)
        assert np.array_equal(flat.pixels, square.pixels)
        assert flat.n == 4

    def test_rectangular_scene(self):
        scene = Scene(np.zeros(32, dtype=np.int64), 8, 4)
        assert scene.n == 5
        assert scene.reshaped().shape == (4, 8)

    def test_rejects_non_power_of_two_sides(self):
        with pytest.raises(ValueError):
            Scene(np.zeros(12), 3, 4)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            Scene(np.zeros(8), 4, 4)

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            Scene(np.array([-1, 0, 0, 0]), 2, 2)
        with pytest.raises(ValueError):
            Scene(np.array([70000, 0, 0, 0]), 2, 2)

    @pytest.mark.parametrize(
        "pixels",
        [np.array([1.9, 2.5, 3, 4]), ["1", "2", "3", "4"], [1, 2, 3, 4.0], [1, True, 3, 4]],
        ids=["floats", "strings", "one-float", "one-bool"],
    )
    def test_rejects_non_integer_pixels(self, pixels):
        with pytest.raises(TypeError):
            Scene(pixels, 2, 2)

    @pytest.mark.parametrize("big", [2**70, -(2**70), 2**64 - 1])
    def test_rejects_out_of_range_pixels_of_any_size(self, big):
        with pytest.raises(ValueError, match=r"\[0, 65535\]"):
            Scene([big, 0, 0, 0], 2, 2)

    @pytest.mark.parametrize(
        "size,width,height",
        [(1, True, True), (4, 2.0, 2), (4, 2, 2.0), (4, np.float64(2), 2), (2, 2, np.True_)],
    )
    def test_rejects_bool_and_float_sides(self, size, width, height):
        # Two bool sides once passed as 1 x 1, giving an n = 0 scene.
        with pytest.raises(TypeError):
            Scene(np.zeros(size, dtype=np.int64), width, height)

    def test_numpy_integer_sides_are_stored_as_python_ints(self):
        scene = Scene(np.zeros(8, dtype=np.int64), np.int64(4), np.uint8(2))
        assert (scene.width, scene.height, scene.n) == (4, 2, 3)
        assert type(scene.width) is int and type(scene.height) is int

    def test_shape_errors_come_before_pixel_type_errors(self):
        with pytest.raises(ValueError, match="powers of two"):
            Scene(np.zeros(12), 3, 4)
        with pytest.raises(ValueError, match="expected 16 pixels"):
            Scene(np.zeros(8), 4, 4)


class TestSimulate:
    def test_flat_row_measures_scene_sum(self):
        scene = Scene(np.full(16, 50), 4, 4)
        measured = simulate(scene, [0])
        assert measured.entries == ((0, 800),)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_constant_scene_vanishes_off_the_flat_row(self, scheme):
        scene = Scene(np.full(16, 9), 4, 4)
        measured = simulate(scene, [1, 5, 11], scheme)
        assert [y for _, y in measured.entries] == [0, 0, 0]

    def test_known_two_by_two(self):
        scene = Scene(np.array([1, 2, 3, 4]), 2, 2)
        measured = simulate(scene, range(4), OrderingScheme.NATURAL)
        assert [y for _, y in measured.entries] == [10, -2, -4, 0]

    def test_linearity(self):
        rng = np.random.default_rng(8)
        s1 = rng.integers(0, 100, size=64)
        s2 = rng.integers(0, 100, size=64)
        idx = [0, 3, 17, 40, 63]
        y1 = [y for _, y in simulate(Scene(s1, 8, 8), idx, "dyadic").entries]
        y2 = [y for _, y in simulate(Scene(s2, 8, 8), idx, "dyadic").entries]
        combined = [y for _, y in simulate(Scene(2 * s1 + 3 * s2, 8, 8), idx, "dyadic").entries]
        assert combined == [2 * a + 3 * b for a, b in zip(y1, y2)]

    def test_rejects_out_of_range_index(self):
        scene = Scene(np.zeros(4, dtype=np.int64), 2, 2)
        with pytest.raises(IndexRangeError):
            simulate(scene, [4])

    def test_rejects_duplicate_indices(self):
        scene = Scene(np.zeros(4, dtype=np.int64), 2, 2)
        with pytest.raises(DuplicateIndexError):
            simulate(scene, [1, 1])

    def test_streaming_keeps_memory_flat(self):
        # Peak extra memory must track one row plus bookkeeping, never the
        # number of requested patterns times the row size.
        rng = np.random.default_rng(5)
        scene = Scene(rng.integers(0, 65536, size=128 * 128), 128, 128)  # n = 14
        simulate(scene, [0, 1])  # warm caches before measuring

        def peak_for(count):
            gc.collect()
            tracemalloc.start()
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            simulate(scene, range(count), "sequency")
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak - base

        few, many = peak_for(8), peak_for(512)
        materialized = 512 * (1 << 14)  # all rows held at once, int8
        assert many < materialized // 5
        assert many - few < 600_000  # growth is entry bookkeeping, not rows


class TestSimulatePaths:
    """Fewer than n indices stream one row each; n or more take one transform."""

    # Scene 16x8, so n = 7: counts 6, 7 and 128 cover both paths and full sampling.
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("count", [6, 7, 128])
    def test_matches_direct_row_oracle(self, scheme, count):
        rng = np.random.default_rng(count)
        scene = Scene(rng.integers(0, 65536, size=128), 16, 8)
        ks = rng.permutation(128)[:count].tolist()
        assert ks != sorted(ks)
        measured = simulate(scene, ks, scheme)
        assert measured.entries == tuple((k, _oracle_value(scene, k, scheme)) for k in ks)

    # n = 4: three indices stream, four take the transform.  The bad index
    # comes first, so truncating 1.9 would not collide with a later one.
    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize(
        "bad,error",
        [(1.9, TypeError), (True, TypeError), (np.True_, TypeError), (16, IndexRangeError),
         (-1, IndexRangeError), (2, DuplicateIndexError)],
    )
    def test_bad_index_fails_alike_on_both_paths(self, count, bad, error):
        scene = Scene(np.arange(16), 4, 4)
        with pytest.raises(error):
            simulate(scene, [bad] + list(range(2, count + 1)))

    @pytest.mark.parametrize("count", [3, 4, 16])
    def test_accepts_any_integer_iterable(self, count):
        scene = Scene(np.arange(16) * 7, 4, 4)
        expected = simulate(scene, list(range(count)), "dyadic").entries
        for indices in (
            range(count),
            tuple(range(count)),
            np.arange(count),
            np.arange(count, dtype=np.uint8),
            (k for k in range(count)),
        ):
            assert simulate(scene, indices, "dyadic").entries == expected

    def test_empty_index_set(self):
        assert simulate(Scene(np.arange(16), 4, 4), []).entries == ()

    def test_transform_workspace_is_two_scene_copies(self):
        # The transformed copy of the scene and the transform's own buffer,
        # 8 bytes per pixel each, plus numpy's ufunc buffers: at most three
        # 8192-entry int64 blocks, 192 KiB, whatever n is.
        rng = np.random.default_rng(6)
        n = 16
        scene = Scene(rng.integers(0, 65536, size=1 << n), 256, 256)
        workspace = 2 * 8 * (1 << n) + 3 * 8192 * 8
        # 64 KiB covers the n entries; a third scene copy would be 512 KiB.
        assert _simulate_peak(scene, range(n)) < workspace + 65_536
        # Full sampling adds entry bookkeeping, under 240 bytes per entry:
        # two 2-tuples (the caller's and the set's own, alive together while
        # the set normalises them), the two ints they share, and the index
        # lists and int64 arrays that check them.
        assert _simulate_peak(scene, range(1 << n)) < workspace + 240 * (1 << n)

    def test_sparse_set_keeps_one_row_of_memory(self):
        # n - 1 indices at n = 20 still stream: one row's int8 signs and
        # int64 copy (9 bytes per pixel) plus its packed bytes, well under
        # the transform's 16 bytes per pixel.
        rng = np.random.default_rng(7)
        n = 20
        scene = Scene(rng.integers(0, 65536, size=1 << n), 1024, 1024)
        ks = rng.choice(1 << n, size=n - 1, replace=False)
        assert _simulate_peak(scene, ks) < 10 * (1 << n)


class TestReconstruct:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_full_round_trip_is_exact(self, scheme):
        rng = np.random.default_rng(hash(scheme.value) % 1000)
        scene = Scene(rng.integers(0, 65536, size=64), 8, 8)
        measured = simulate(scene, range(64), scheme)
        estimate = reconstruct(measured)
        assert estimate.dtype == np.int64
        assert np.array_equal(estimate, scene.reshaped())

    def test_rectangular_round_trip(self):
        rng = np.random.default_rng(12)
        scene = Scene(rng.integers(0, 256, size=32), 8, 4)
        estimate = reconstruct(simulate(scene, range(32), "dyadic"))
        assert estimate.shape == (4, 8)
        assert np.array_equal(estimate, scene.reshaped())

    def test_large_round_trip(self):
        rng = np.random.default_rng(14)
        scene = Scene(rng.integers(0, 65536, size=4096), 64, 64)  # n = 12
        estimate = reconstruct(simulate(scene, range(4096), "natural"))
        assert np.array_equal(estimate, scene.reshaped())

    def test_flat_scene_needs_only_the_first_coefficient(self):
        scene = Scene(np.full(16, 123), 4, 4)
        estimate = reconstruct(simulate(scene, [0], "sequency"))
        assert np.array_equal(estimate, scene.reshaped())

    def test_known_vector(self):
        measured = MeasurementSet(
            ((0, 10), (1, -2), (2, -4), (3, 0)), OrderingScheme.NATURAL, 2, 2, 2
        )
        assert reconstruct(measured).reshape(-1).tolist() == [1, 2, 3, 4]

    def test_partial_sampling_zero_fills(self):
        scene = Scene(np.array([1, 2, 3, 4]), 2, 2)
        measured = simulate(scene, [0], OrderingScheme.NATURAL)
        estimate = reconstruct(measured)
        assert estimate.dtype == np.float64
        assert estimate.reshape(-1).tolist() == [2.5, 2.5, 2.5, 2.5]

    @pytest.mark.parametrize("values", [[2**62] * 4, [2**64]])
    def test_values_that_would_overflow_the_transform(self, values):
        # Four 2^62 values would wrap the int64 transform to an all-zero
        # image, and 2^64 does not fit its int64 fill.
        measured = MeasurementSet(tuple(enumerate(values)), OrderingScheme.NATURAL, 2, 2, 2)
        with pytest.raises(ValueError, match=r"2\^63 - 1"):
            reconstruct(measured)

    @pytest.mark.parametrize(
        "values,fits",
        [
            ([-(2**63)], False),  # |INT64_MIN| = 2^63 wraps to INT64_MIN in int64
            ([-(2**63) + 1], True),  # exactly 2^63 - 1
            ([-(2**62), -(2**62)], False),
            ([-(2**62), -(2**62) + 1], True),
            ([-(2**63), 2**63 - 1, 0, 0], False),
            ([-(2**61)] * 3 + [0], True),  # count * max|y| reaches 2^63, the sum does not
        ],
    )
    def test_magnitude_bound_is_exact_at_int64_min(self, values, fits):
        measured = MeasurementSet(tuple(enumerate(values)), OrderingScheme.NATURAL, 2, 2, 2)
        if fits:
            assert reconstruct(measured).shape == (2, 2)
        else:
            with pytest.raises(ValueError, match=r"2\^63 - 1"):
                reconstruct(measured)

    def test_duplicate_index_rejected(self):
        with pytest.raises(DuplicateIndexError):
            MeasurementSet(((0, 5), (0, 6)), OrderingScheme.NATURAL, 2, 2, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet(((0, 5),), OrderingScheme.NATURAL, 2, 4, 2)

    @pytest.mark.parametrize("width,height", [(-2, -2), (-1, -4)])
    def test_side_below_one_rejected(self, width, height):
        # The product still equals 2^2, so only the side check catches these.
        with pytest.raises(ValueError, match="sides must be >= 1"):
            MeasurementSet(((0, 5),), OrderingScheme.NATURAL, 2, width, height)

    @pytest.mark.parametrize("entry", [(1.9, 3), (1, 2.7), (np.float64(1.0), 3), ("1", 3)])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(TypeError):
            MeasurementSet((entry,), OrderingScheme.NATURAL, 2, 2, 2)

    @pytest.mark.parametrize(
        "entries",
        [((True, 3),), ((1, False),), ((0, 5), (True, 6)), ((0, 5), (1, True)), ((0, np.True_),)],
    )
    def test_bool_entry_rejected(self, entries):
        # A bool next to ints would pass as an int in a NumPy array.
        with pytest.raises(TypeError):
            MeasurementSet(entries, OrderingScheme.NATURAL, 2, 2, 2)

    @pytest.mark.parametrize("entries", [((0, 5), (1, 6), (2, 7, 99)), ((0, 5), (1,)), ((0, 5), ())])
    def test_entry_not_a_pair_rejected(self, entries):
        with pytest.raises(ValueError):
            MeasurementSet(entries, OrderingScheme.NATURAL, 2, 2, 2)

    @pytest.mark.parametrize(
        "entries",
        [(([0, 1], 5),), ((0, [5, 6]),), (([0, 1], [5, 6]),), ((0, 5), (np.array([1, 2]), 6))],
    )
    def test_sequence_in_place_of_an_integer_rejected(self, entries):
        # NumPy would flatten the sequence into the column beside the others.
        with pytest.raises(TypeError):
            MeasurementSet(entries, OrderingScheme.NATURAL, 2, 2, 2)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet._from_arrays([0, 1], np.array([5]), "natural", 2, 2, 2)

    def test_equality_and_hash_follow_the_entries(self):
        scene = Scene(np.arange(16), 4, 4)
        measured = simulate(scene, [3, 0, 9], "dyadic")
        twin = MeasurementSet(measured.entries, "dyadic", 4, 4, 4)
        assert measured == twin
        assert hash(measured) == hash(twin)
        assert hash(measured) == hash((measured.entries, OrderingScheme.DYADIC, 4, 4, 4))
        (k, y), *rest = measured.entries
        assert measured != MeasurementSet(((k, y + 1), *rest), "dyadic", 4, 4, 4)
        assert measured != MeasurementSet(measured.entries, "natural", 4, 4, 4)
        assert measured != MeasurementSet(measured.entries[::-1], "dyadic", 4, 4, 4)
        assert measured.indices() == [3, 0, 9]

    @pytest.mark.parametrize(
        "width,height", [(2.0, 2), (2, 2.0), (True, 4), (4, np.True_), (np.float64(2), 2)]
    )
    def test_bool_and_float_sides_rejected(self, width, height):
        # A float side was once accepted, and reconstruct then failed in reshape.
        with pytest.raises(TypeError):
            MeasurementSet([(0, 4)], "natural", 2, width, height)

    def test_numpy_integer_sides_become_python_ints(self):
        measured = MeasurementSet([(0, 4)], "natural", 2, np.int32(2), np.uint64(2))
        assert (measured.width, measured.height) == (2, 2)
        assert type(measured.width) is int and type(measured.height) is int
        assert reconstruct(measured).shape == (2, 2)

    def test_repr_names_the_entries_and_context(self):
        measured = MeasurementSet([(1, -2), (0, 10)], "sequency", 2, 4, 1)
        assert repr(measured) == (
            "MeasurementSet(entries=((1, -2), (0, 10)), scheme=<OrderingScheme.SEQUENCY: "
            "'sequency'>, n=2, width=4, height=1)"
        )

    def test_equality_against_another_type_is_not_implemented(self):
        measured = MeasurementSet([(0, 4)], "natural", 2, 2, 2)
        assert measured.__eq__(((0, 4),)) is NotImplemented
        assert measured != ((0, 4),)
        assert measured != object()

    def test_numpy_integer_entries_become_python_ints(self):
        measured = MeasurementSet(((np.int64(3), np.uint16(7)),), "natural", 2, 2, 2)
        assert measured.entries == ((3, 7),)
        assert all(type(v) is int for v in measured.entries[0])

    @pytest.mark.parametrize(
        "n,width,height",
        [(0, 1, 1), (-1, 1, 1), (INDEX_BITS_CAP + 1, 1 << 32, 1 << 31)],
    )
    def test_order_outside_range_rejected(self, n, width, height):
        with pytest.raises(OrderError):
            MeasurementSet(((0, 5),), OrderingScheme.NATURAL, n, width, height)


def _dense_reconstruct(measurements):
    """Reference estimate: every natural slot of a 2^n buffer, then the public ifwht."""
    n, scheme = measurements.n, measurements.scheme
    coeffs = np.zeros(1 << n, dtype=np.int64)
    for k, y in measurements.entries:
        coeffs[to_natural(k, n, scheme)] = y
    return ifwht(coeffs).reshape(measurements.height, measurements.width)


@st.composite
def windowed_measurements(draw):
    """Measurement sets whose natural slots use exactly bits low..high-1.

    The window sits at the low bits, at the high bits, over every bit, or
    is the lone index 0.  Values either keep every entry divisible by 2^n
    (integer result) or are plain integers (mostly the float fallback).
    """
    n = draw(st.integers(1, 12))
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    width_bits = draw(st.integers(0, n))
    window = draw(st.sampled_from(["low", "high", "every", "zero"]))
    if window == "zero":
        low = high = 0
    elif window == "low":
        low, high = 0, draw(st.integers(1, n - 1)) if n > 1 else 0
    elif window == "high":
        low, high = draw(st.integers(1, n)), n
    else:
        low, high = 0, n
    w = high - low
    # The all-ones slot sets bits low..high-1, so the window spans them exactly.
    slots = {(1 << w) - 1} | set(draw(st.lists(st.integers(0, (1 << w) - 1), max_size=16)))
    naturals = np.array(sorted(slots), dtype=np.int64) << low
    ordered = np.argsort(to_natural_array(np.arange(1 << n), n, scheme))
    scale = draw(st.sampled_from([1, 3, 1 << n, 1 << 40]))
    values = draw(
        st.lists(st.integers(-(1 << 16), 1 << 16), min_size=len(slots), max_size=len(slots))
    )
    entries = tuple(zip(ordered[naturals].tolist(), (v * scale for v in values)))
    return MeasurementSet(entries, scheme, n, 1 << width_bits, 1 << (n - width_bits))


class TestReconstructWindow:
    """reconstruct transforms only the natural index bits it was given."""

    @settings(max_examples=300, deadline=None)
    @given(windowed_measurements())
    def test_matches_dense_reference(self, measurements):
        expected = _dense_reconstruct(measurements)
        estimate = reconstruct(measurements)
        assert estimate.dtype == expected.dtype
        assert estimate.shape == expected.shape == (measurements.height, measurements.width)
        assert estimate.tobytes() == expected.tobytes()


class TestPgm:
    def test_text_graymap_with_comments(self):
        text = b"P2\n# test image\n4 2\n# another comment\n255\n0 1 2 3\n4 5 6 7\n"
        scene = read_pgm(text)
        assert scene.width == 4 and scene.height == 2
        assert scene.pixels.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        # CRLF, tab, vertical tab and form feed separate header tokens, and a
        # comment may follow any of them.
        odd = b"P2\r\n# test image\r\n4\t# after a tab\n2\x0b255\x0c0 1 2 3\r\n4 5 6 7\r\n"
        assert read_pgm(odd).pixels.tolist() == list(range(8))
        # A '#' inside a token does not open a comment.
        with pytest.raises(PgmError, match="non-numeric graymap header"):
            read_pgm(b"P2\n4 2#3\n255\n0 1 2 3 4 5 6 7\n")

    def test_binary_round_trip_8bit(self):
        rng = np.random.default_rng(2)
        scene = Scene(rng.integers(0, 256, size=64), 8, 8)
        again = read_pgm(write_pgm(scene))
        assert np.array_equal(again.pixels, scene.pixels)

    def test_binary_round_trip_16bit(self):
        rng = np.random.default_rng(4)
        scene = Scene(rng.integers(0, 65536, size=64), 8, 8)
        data = write_pgm(scene)
        assert data.startswith(b"P5\n8 8\n65535\n")
        assert write_pgm(scene.reshaped()) == data
        again = read_pgm(data)
        assert np.array_equal(again.pixels, scene.pixels)

    @pytest.mark.parametrize(
        "image",
        [np.array([[1.7, 2.9]]), np.array([[True, False]]), [[1, True]]],
        ids=["floats", "bools", "one-bool"],
    )
    def test_write_rejects_non_integer_pixels(self, image):
        with pytest.raises(TypeError):
            write_pgm(image)

    @pytest.mark.parametrize("maxval", [True, np.True_, 1.5, 2.0, np.float64(255)])
    def test_write_rejects_bool_and_float_maxval(self, maxval):
        # Each once wrote a header ("True", "1.5", "2.0") that read_pgm refuses.
        with pytest.raises(TypeError):
            write_pgm(np.zeros((2, 2), dtype=np.int64), maxval=maxval)

    def test_write_takes_a_numpy_integer_maxval(self):
        data = write_pgm(np.ones((2, 2), dtype=np.int64), maxval=np.int64(7))
        assert data == write_pgm(np.ones((2, 2), dtype=np.int64), maxval=7)
        assert data.startswith(b"P5\n2 2\n7\n")
        assert read_pgm(data).pixels.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        "image,maxval,message",
        [
            ([[0, -1]], None, "^pixels must be nonnegative$"),
            ([[0, 1]], 0, r"^maxval must be in \[1, 65535\], got 0$"),
            ([[0, 1]], 65536, r"^maxval must be in \[1, 65535\], got 65536$"),
            ([[0, 11]], 10, "^pixel exceeds maxval$"),
            ([[0, 70000]], None, "^pixel exceeds maxval$"),
        ],
    )
    def test_write_rejects_pixels_and_maxvals_out_of_range(self, image, maxval, message):
        with pytest.raises(ValueError, match=message):
            write_pgm(np.array(image), maxval=maxval)

    def test_text_round_trip(self):
        scene = Scene(np.arange(16), 4, 4)
        data = write_pgm(scene, binary=False)
        assert write_pgm(scene.reshaped(), binary=False) == data
        again = read_pgm(data)
        assert np.array_equal(again.pixels, scene.pixels)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_write_rejects_an_empty_image(self, shape):
        # Its header would declare a zero side, which read_pgm refuses.
        with pytest.raises(ValueError, match="nonempty"):
            write_pgm(np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize(
        "image,maxval,error,message",
        [
            (np.zeros((0, 4), dtype=np.int64), None, ValueError,
             "image must be a Scene or a nonempty 2-d array, got shape (0, 4)"),
            (np.zeros(4, dtype=np.int64), None, ValueError,
             "image must be a Scene or a nonempty 2-d array, got shape (4,)"),
            (np.array([[1.7, 2.9]]), None, TypeError, "'float' object cannot be interpreted as an integer"),
            ([[1, True]], None, TypeError, "pixels must be integers, got True"),
            (np.array([[True, False]]), None, TypeError, "pixels must be integers, got dtype bool"),
            (np.array([[0, -1]]), None, ValueError, "pixels must be nonnegative"),
            (np.zeros((2, 2), dtype=np.int64), 1.5, TypeError,
             "'float' object cannot be interpreted as an integer"),
            (np.zeros((2, 2), dtype=np.int64), True, TypeError, "maxvals must be integers, got True"),
            (np.array([[0, 1]]), 0, ValueError, "maxval must be in [1, 65535], got 0"),
            (np.array([[0, 11]]), 10, ValueError, "pixel exceeds maxval"),
            (np.array([[0, 70000]]), None, ValueError, "pixel exceeds maxval"),
        ],
    )
    @pytest.mark.parametrize("binary", [True, False])
    def test_errors_are_raised_by_the_call(self, image, maxval, error, message, binary):
        # The encoder's checks run when it is called, before any piece is
        # taken, and write_pgm raises what it always raised.
        for encode in (_pgm_pieces, write_pgm):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                encode(image, maxval, binary)

    def test_bad_magic(self):
        with pytest.raises(PgmError):
            read_pgm(b"P6\n2 2\n255\n\x00\x00\x00\x00")

    def test_truncated_raster(self):
        with pytest.raises(PgmError):
            read_pgm(b"P5\n2 2\n255\n\x00\x00")

    def test_truncated_header(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2\n4 4\n")

    @pytest.mark.parametrize("body", [b"", b"0 1 2", b"0 1 # 2 3", b"0 1 2 3\n# 4"])
    def test_short_text_raster_is_a_truncated_raster(self, body):
        # As in P5: the header is whole, the raster is not.
        with pytest.raises(PgmError, match="^truncated graymap raster$"):
            read_pgm(b"P2\n4 2\n255\n" + body)

    def test_maxval_too_large(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2\n2 2\n70000\n0 0 0 0\n")

    def test_sample_above_maxval(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2\n2 2\n10\n0 0 0 11\n")

    def test_negative_text_sample(self):
        with pytest.raises(PgmError):
            read_pgm(b"P2\n2 2\n255\n0 -1 0 0\n")

    @pytest.mark.parametrize("sample", [b"99999999999999999999", b"-99999999999999999999"])
    def test_text_sample_beyond_int64(self, sample):
        with pytest.raises(PgmError):
            read_pgm(b"P2\n2 2\n255\n0 " + sample + b" 0 0\n")

    @pytest.mark.parametrize(
        "raster",
        [
            b"0 1 2",  # truncated
            b"0 x 2 3",  # non-numeric
            b"0 -1 2 3",  # negative
            b"0 1 2 256",  # over maxval
            b"0 99999999999999999999 2 3",  # beyond int64
        ],
    )
    def test_bad_raster_fails_alike_with_and_without_comments(self, raster):
        # Stripping the comments leaves the same samples, and the same error.
        errors = []
        for body in (raster, b"# note\n" + raster, raster.replace(b" ", b"\n# c\n", 1)):
            with pytest.raises(PgmError) as err:
                read_pgm(b"P2\n2 2\n255\n" + body + b"\n")
            errors.append(str(err.value))
        assert errors[0] == errors[1] == errors[2]

    def test_commented_raster_reads_like_the_plain_one(self):
        plain = b"P2\n4 2\n255\n0 1 2 3\n4 5 6 7\n"
        commented = b"P2\n4 2\n255\n# first\n0 1 2 3 # row end\n4 5\t6\r\n7\n# trailing\n"
        assert read_pgm(plain).pixels.tolist() == read_pgm(commented).pixels.tolist()
        assert read_pgm(plain).pixels.tolist() == list(range(8))
        odd = b"P2\r\n4 2\r\n255\r\n0\t# tab\r\n1\x0b2\x0c3 # c\r\n4 5 6 7\r\n"
        assert read_pgm(odd).pixels.tolist() == list(range(8))
        with pytest.raises(PgmError, match="non-numeric sample"):
            read_pgm(b"P2\n4 2\n255\n0 1 2 3#4\n4 5 6 7\n")

    def test_samples_past_the_raster_are_ignored(self):
        scene = read_pgm(b"P2\n2 1\n255\n4 5 junk 7\n")
        assert scene.pixels.tolist() == [4, 5]

    def test_non_power_of_two_dims_raise_scene_error(self):
        data = b"P2\n3 2\n255\n0 0 0 0 0 0\n"
        with pytest.raises(ValueError) as err:
            read_pgm(data)
        assert not isinstance(err.value, PgmError)


def _whole_pgm(arr, binary):
    """The graymap encoded in one piece: the reference the blocked encoder must match."""
    height, width = arr.shape
    maxval = 255 if int(arr.max()) <= 255 else 65535
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    if binary:
        return header + arr.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    body = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
    return header + body.encode("ascii") + b"\n"


class TestPgmBlocks:
    """The raster is encoded in blocks of whole rows, about _PGM_BLOCK_BYTES each."""

    # (P5 bytes per sample, image shape): exactly one block, one row more than
    # a block, and rows each wider than a block.
    @pytest.mark.parametrize(
        "sample_bytes,shape",
        [
            (sample, shape)
            for sample in (1, 2)
            for shape in (
                (_PGM_BLOCK_BYTES // (1024 * sample), 1024),
                (_PGM_BLOCK_BYTES // (1024 * sample) + 1, 1024),
                (3, _PGM_BLOCK_BYTES // sample + 5),
            )
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"{8 * v}bit",
    )
    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    def test_blocks_join_to_the_whole_encoding(self, sample_bytes, shape, binary):
        arr = np.random.default_rng(sum(shape)).integers(0, 256 ** sample_bytes, size=shape)
        arr[0, 0] = 256 ** sample_bytes - 1  # fixes the maxval: 255 or 65535
        pieces = list(_pgm_pieces(arr, binary=binary))
        assert b"".join(pieces) == write_pgm(arr, binary=binary) == _whole_pgm(arr, binary)
        rows = max(1, _PGM_BLOCK_BYTES // (shape[1] * sample_bytes))
        assert len(pieces) == 1 + -(-shape[0] // rows)
        sizes = [memoryview(piece).nbytes for piece in pieces[1:]]
        if binary:
            assert set(sizes[:-1]) <= {rows * shape[1] * sample_bytes}
            assert max(sizes) <= max(_PGM_BLOCK_BYTES, shape[1] * sample_bytes)
        else:  # text blocks end a line
            assert all(piece.endswith(b"\n") for piece in pieces[1:])

    def test_small_image_is_one_block(self):
        arr = np.arange(12).reshape(3, 4)
        pieces = list(_pgm_pieces(arr, maxval=300))
        assert len(pieces) == 2
        assert bytes(pieces[0]) == b"P5\n4 3\n300\n"
        assert bytes(pieces[1]) == arr.astype(">u2").tobytes()
