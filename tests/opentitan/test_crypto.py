"""Crypto tests: the HMAC/SHA-256 accelerator against independent vectors."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opentitan.crypto.accel import (
    CMD_HMAC,
    CMD_OFFSET,
    CMD_SHA256,
    DIGEST_OFFSET,
    KEY_OFFSET,
    MSG_LEN_OFFSET,
    MSG_OFFSET,
    STATUS_OFFSET,
    HmacAccelerator,
)


def _stream(accel, message):
    accel.write(MSG_LEN_OFFSET, 4, len(message))
    padded = message + bytes(-len(message) % 4)
    for i in range(0, len(padded), 4):
        accel.write(MSG_OFFSET, 4, int.from_bytes(padded[i:i + 4], "little"))


def _write_key(accel, key):
    padded = key.ljust(32, b"\x00")
    for i in range(0, 32, 4):
        accel.write(KEY_OFFSET + i, 4, int.from_bytes(padded[i:i + 4], "little"))


def _digest(accel):
    return b"".join(
        accel.read(DIGEST_OFFSET + i, 4).to_bytes(4, "little") for i in range(0, 32, 4)
    )


def _sha256(message):
    """SHA-256 through the register path: stream, start, read back."""
    accel = HmacAccelerator()
    _stream(accel, message)
    accel.write(CMD_OFFSET, 4, CMD_SHA256)
    return _digest(accel)


class TestSha256Vectors:
    """FIPS 180-4 test vectors, through the device registers."""

    def test_empty(self):
        assert _sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert _sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert _sha256(message).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_exactly_one_block(self):
        message = b"a" * 64
        assert _sha256(message) == hashlib.sha256(message).digest()

    @given(st.binary(max_size=300))
    @settings(max_examples=50)
    def test_streaming_matches_hashlib(self, message):
        """Word streaming plus ``MSG_LEN`` truncation of the padding."""
        assert _sha256(message) == hashlib.sha256(message).digest()


class TestHmacVectors:
    """RFC 4231 vectors, through the host-level API."""

    def test_rfc4231_case1(self):
        tag = HmacAccelerator().compute_hmac(b"\x0b" * 20, b"Hi There")
        assert tag.hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2(self):
        tag = HmacAccelerator().compute_hmac(
            b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_long_key_hashed(self):
        key = b"k" * 100  # > block size
        message = b"data"
        assert HmacAccelerator().compute_hmac(key, message) == stdlib_hmac.new(
            key, message, hashlib.sha256
        ).digest()

    @given(st.binary(min_size=1, max_size=32), st.binary(max_size=200))
    @settings(max_examples=50)
    def test_key_register_matches_stdlib(self, key, message):
        """A short key zero-padded into the 32-byte key register tags
        exactly as the key itself does."""
        accel = HmacAccelerator()
        _write_key(accel, key)
        _stream(accel, message)
        accel.write(CMD_OFFSET, 4, CMD_HMAC)
        assert _digest(accel) == stdlib_hmac.new(
            key, message, hashlib.sha256
        ).digest()


class TestAcceleratorDevice:
    def test_sha256_via_registers(self):
        accel = HmacAccelerator()
        _stream(accel, b"abc")
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert accel.read(STATUS_OFFSET, 4) == 1
        assert _digest(accel) == hashlib.sha256(b"abc").digest()

    def test_hmac_via_registers(self):
        accel = HmacAccelerator()
        key = bytes(range(32))
        _write_key(accel, key)
        _stream(accel, b"msg!")
        accel.write(CMD_OFFSET, 4, CMD_HMAC)
        assert _digest(accel) == accel.compute_hmac(key, b"msg!")

    def test_cycle_cost_scales_with_blocks(self):
        accel = HmacAccelerator(cycles_per_block=80)
        _stream(accel, b"x" * 64)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        one_block = accel.busy_cycles
        _stream(accel, b"x" * 640)
        accel.write(CMD_OFFSET, 4, CMD_SHA256)
        assert accel.busy_cycles - one_block > one_block

    def test_operations_counter(self):
        accel = HmacAccelerator()
        accel.compute_hmac(b"key", b"message")
        assert accel.operations == 1
