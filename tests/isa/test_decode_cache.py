"""The module-level decode cache: hits, normalisation, error handling."""

import importlib

import pytest

from repro.errors import DecodeError
from repro.isa.asm import assemble

decode_mod = importlib.import_module("repro.isa.decode")
from repro.isa.decode import (
    clear_decode_cache,
    decode,
    decode_cache_size,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_decode_cache()
    yield
    clear_decode_cache()


class TestDecodeCache:
    def test_hit_returns_same_instance(self):
        word = 0x00A50513  # addi a0, a0, 10
        first = decode(word, xlen=32)
        second = decode(word, xlen=32)
        assert first is second

    def test_xlen_keys_are_distinct(self):
        word = 0x00A50513
        assert decode(word, xlen=32) is not decode(word, xlen=64)

    def test_high_bits_normalised(self):
        # Only the low 32 bits are an encoding; higher bits share its entry.
        word = 0x00A50513
        assert decode(word, xlen=32) is decode((0xFFFF << 32) | word, xlen=32)
        assert decode(word, xlen=32).raw == word

    def test_errors_not_cached(self):
        with pytest.raises(DecodeError):
            decode(0x0000, xlen=32)
        assert decode_cache_size() == 0
        with pytest.raises(DecodeError):
            decode(0x0000, xlen=32)

    def test_limit_clears_instead_of_growing(self):
        decode(0x00A50513, xlen=32)
        old_limit = decode_mod.DECODE_CACHE_LIMIT
        decode_mod.DECODE_CACHE_LIMIT = decode_cache_size()
        try:
            decode(0x00B50513, xlen=32)  # trips the limit -> clear + insert
            assert decode_cache_size() == 1
        finally:
            decode_mod.DECODE_CACHE_LIMIT = old_limit

    def test_cached_decode_equals_fresh_decode(self):
        program = assemble(
            """
            main:
                addi a0, zero, 3
                slli a1, a0, 2
                beq  a0, a1, main
                jal  ra, main
            """,
            xlen=32,
        )
        words = [
            int.from_bytes(program.data[i : i + 4], "little")
            for i in range(0, len(program.data), 4)
        ]
        first = [decode(w, xlen=32) for w in words]
        second = [decode(w, xlen=32) for w in words]
        assert first == second
        assert all(a is b for a, b in zip(first, second))
