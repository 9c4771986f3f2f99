"""Decoder robustness: exhaustive compressed sweep + random 32-bit fuzz.

The firmware parses attacker-influenced encodings (a commit log's
instruction field after memory corruption could be anything), so the
decode path must never crash — it either returns a consistent
Instruction or raises DecodeError.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.isa.cflow import classify_word
from repro.isa.decode import decode
from repro.isa import opcodes as op


class TestExhaustiveCompressedSweep:
    """All 3 × 2^14 halfwords of the compressed quadrants, both XLENs."""

    @pytest.mark.parametrize("xlen", [32, 64])
    def test_every_halfword_raises(self, xlen):
        rejected = 0
        for hword in range(0x10000):
            if hword & 0b11 == 0b11:
                continue
            try:
                decode(hword, xlen=xlen)
            except DecodeError as exc:
                assert exc.word == hword
                rejected += 1
        assert rejected == 3 * 2**14

    def test_rv64_accepts_more_loads_than_rv32(self):
        """ld and lwu exist only on RV64: one LOAD word per funct3."""
        def accepted(xlen):
            funct3s = set()
            for funct3 in range(8):
                try:
                    decode(op.OP_LOAD | funct3 << 12, xlen=xlen)
                except DecodeError:
                    continue
                funct3s.add(funct3)
            return funct3s

        assert accepted(32) == {0, 1, 2, 4, 5}
        assert accepted(64) == accepted(32) | {3, 6}


class TestRandomWordFuzz:
    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=500)
    def test_decode_never_crashes(self, word):
        for xlen in (32, 64):
            try:
                insn = decode(word, xlen=xlen)
            except DecodeError:
                continue
            assert insn.mnemonic
            # Every legal encoding is a 32-bit word: low bits 0b11.
            assert word & 0b11 == 0b11

    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=500)
    def test_classify_word_total(self, word):
        """classify_word is total — the firmware-side guarantee."""
        kind = classify_word(word)
        assert kind is not None
