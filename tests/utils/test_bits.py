"""Unit and property tests for repro.utils.bits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    align_down,
    align_up,
    bit,
    bits,
    is_aligned,
    mask,
    sext,
    to_unsigned,
    zext,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 0b1
        assert mask(3) == 0b111
        assert mask(8) == 0xFF

    def test_wide(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitSlicing:
    def test_single_bit(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0
        assert bit(0b1010, 3) == 1

    def test_slice_matches_spec_convention(self):
        word = 0xDEADBEEF
        assert bits(word, 31, 28) == 0xD
        assert bits(word, 7, 0) == 0xEF
        assert bits(word, 31, 0) == word

    def test_invalid_slice_raises(self):
        with pytest.raises(ValueError):
            bits(0, 0, 1)


class TestSignExtension:
    def test_positive_unchanged(self):
        assert sext(0x7F, 8) == 127

    def test_negative(self):
        assert sext(0xFF, 8) == -1
        assert sext(0x80, 8) == -128

    def test_roundtrip_with_to_unsigned(self):
        assert to_unsigned(sext(0xFFF, 12), 12) == 0xFFF

    def test_zext_truncates(self):
        assert zext(0x1FF, 8) == 0xFF

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_sext_identity_on_width(self, value):
        assert to_unsigned(sext(value, 16), 16) == value

    @given(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
    def test_roundtrip_signed(self, value):
        assert sext(to_unsigned(value, 16), 16) == value


class TestAlignment:
    def test_align_down(self):
        assert align_down(0x1003, 4) == 0x1000
        assert align_down(0x1000, 4) == 0x1000

    def test_align_up(self):
        assert align_up(0x1001, 8) == 0x1008
        assert align_up(0x1000, 8) == 0x1000

    def test_is_aligned(self):
        assert is_aligned(0x1000, 16)
        assert not is_aligned(0x1001, 2)
