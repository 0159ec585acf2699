"""Unit tests for the fixed-size record model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import RecordRangeError, RecordSpec


class TestValidation:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            RecordSpec(0)

    def test_size_must_match_dtype(self):
        with pytest.raises(ValueError):
            RecordSpec(10, dtype="float64")  # 10 not multiple of 8

    def test_items_per_record(self):
        assert RecordSpec(32, dtype="float64").items_per_record == 4
        assert RecordSpec(7, dtype="uint8").items_per_record == 7


class TestCodec:
    def test_roundtrip_float64(self):
        spec = RecordSpec(24, dtype="float64")
        values = np.arange(12, dtype=np.float64).reshape(4, 3)
        raw = spec.encode(values)
        assert raw.dtype == np.uint8
        assert raw.size == 4 * 24
        assert np.array_equal(spec.decode(raw), values)

    def test_roundtrip_bytes_input(self):
        spec = RecordSpec(4)
        decoded = spec.decode(b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert decoded.shape == (2, 4)
        assert decoded[1, 0] == 5

    def test_single_record_1d_accepted(self):
        spec = RecordSpec(16, dtype="int32")
        raw = spec.encode(np.array([1, 2, 3, 4], dtype=np.int32))
        assert raw.size == 16

    def test_wrong_width_rejected(self):
        spec = RecordSpec(16, dtype="int32")
        with pytest.raises(ValueError):
            spec.encode(np.zeros((2, 5), dtype=np.int32))

    def test_wrong_width_list_input_names_its_shape(self):
        # regression: a list input raised AttributeError ('list' has no .shape)
        with pytest.raises(ValueError, match=r"got \(1, 3\)"):
            RecordSpec(8).encode([[1, 2, 3]])

    def test_derived_fields_stay_out_of_equality_and_repr(self):
        assert RecordSpec(16, "int32") == RecordSpec(16, "int32")
        assert hash(RecordSpec(16, "int32")) == hash(RecordSpec(16, "int32"))
        assert repr(RecordSpec(16, "int32")) == "RecordSpec(record_size=16, dtype='int32')"

    def test_partial_record_rejected_on_decode(self):
        spec = RecordSpec(4)
        with pytest.raises(ValueError):
            spec.decode(b"\x00" * 6)

    def test_bytes_encode_as_whole_records(self):
        spec = RecordSpec(4, dtype="int32")
        raw = spec.encode(b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert raw.dtype == np.uint8
        assert raw.tobytes() == b"\x01\x02\x03\x04\x05\x06\x07\x08"
        assert spec.decode(raw).shape == (2, 1)
        assert spec.encode(bytearray(b"\x00" * 4)).size == 4

    def test_partial_record_rejected_on_encode(self):
        spec = RecordSpec(4)
        with pytest.raises(ValueError, match="whole number"):
            spec.encode(b"\x00" * 6)

    @given(
        st.integers(1, 16),
        st.integers(0, 50),
    )
    def test_roundtrip_property(self, items, n):
        spec = RecordSpec(items * 8, dtype="float64")
        rng = np.random.default_rng(0)
        values = rng.random((n, items))
        assert np.array_equal(spec.decode(spec.encode(values)), values)


class TestGeometry:
    def test_byte_range(self):
        spec = RecordSpec(100)
        assert spec.byte_range(0) == (0, 100)
        assert spec.byte_range(7) == (700, 100)

    def test_byte_range_bounds_checked(self):
        spec = RecordSpec(8)
        with pytest.raises(RecordRangeError):
            spec.byte_range(5, n_records=5)
        with pytest.raises(RecordRangeError):
            spec.byte_range(-1)

    def test_span(self):
        spec = RecordSpec(10)
        assert spec.span(3, 4) == (30, 40)
        assert spec.span(0, 0) == (0, 0)
        with pytest.raises(RecordRangeError):
            spec.span(-1, 2)
