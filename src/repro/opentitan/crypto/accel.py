"""Memory-mapped HMAC accelerator device (OpenTitan ``hmac`` block).

Register map (byte offsets; all registers 32-bit):

    0x00  CMD      write: 1 = start SHA-256, 2 = start HMAC
    0x04  STATUS   read-only: bit0 = done
    0x08  MSG_LEN  message length in bytes (set before CMD)
    0x20  KEY      8 words (write-only key material)
    0x40  DIGEST   8 words (read-only result)
    0x80  MSG      streaming window (sequential word writes append)

The functional result comes from the standard library's ``hashlib``
and ``hmac``; the cycle cost model (``cycles_per_block`` × SHA-256
blocks processed, charged per operation) is exposed through
:attr:`busy_cycles` for the spill-path analysis — the real block
hashes one 512-bit block in ~80 cycles.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import AccessFault

CMD_OFFSET = 0x00
STATUS_OFFSET = 0x04
MSG_LEN_OFFSET = 0x08
KEY_OFFSET = 0x20
DIGEST_OFFSET = 0x40
MSG_OFFSET = 0x80

CMD_SHA256 = 1
CMD_HMAC = 2


class HmacAccelerator:
    """Device-protocol HMAC/SHA-256 engine."""

    size = 0x100

    def __init__(self, cycles_per_block: int = 80):
        self.cycles_per_block = cycles_per_block
        self.busy_cycles = 0
        self.operations = 0
        self._key = bytearray(32)
        self._digest = bytes(32)
        self._message = bytearray()
        self._msg_len = 0
        self._done = False

    # -- device protocol -----------------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if offset == STATUS_OFFSET:
            return int(self._done)
        if DIGEST_OFFSET <= offset < DIGEST_OFFSET + 32:
            index = offset - DIGEST_OFFSET
            return int.from_bytes(self._digest[index : index + size], "little")
        if offset == MSG_LEN_OFFSET:
            return self._msg_len
        raise AccessFault(offset, "read", f"hmac: no readable register at {offset:#x}")

    def write(self, offset: int, size: int, value: int) -> None:
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        if offset == CMD_OFFSET:
            self._execute(value)
            return
        if offset == MSG_LEN_OFFSET:
            self._msg_len = value
            return
        if KEY_OFFSET <= offset < KEY_OFFSET + 32:
            index = offset - KEY_OFFSET
            self._key[index : index + size] = data
            return
        if MSG_OFFSET <= offset < MSG_OFFSET + 0x80:
            self._message += data
            self._done = False
            return
        raise AccessFault(offset, "write", f"hmac: no writable register at {offset:#x}")

    # -- functional model -------------------------------------------------------

    def _execute(self, command: int) -> None:
        message = bytes(self._message[: self._msg_len or len(self._message)])
        if command == CMD_SHA256:
            self._digest = hashlib.sha256(message).digest()
        elif command == CMD_HMAC:
            self._digest = hmac.digest(bytes(self._key), message, "sha256")
        else:
            raise AccessFault(CMD_OFFSET, "write", f"hmac: unknown command {command}")
        blocks = max(1, (len(message) + 63) // 64)
        extra = 3 if command == CMD_HMAC else 0  # key pads + outer hash
        self.busy_cycles += (blocks + extra) * self.cycles_per_block
        self.operations += 1
        self._message.clear()
        self._done = True

    # -- direct (host-level) API ---------------------------------------------------

    def compute_hmac(self, key: bytes, message: bytes) -> bytes:
        """Python-level HMAC for policy models; charges the same cycles."""
        blocks = max(1, (len(message) + 63) // 64)
        self.busy_cycles += (blocks + 3) * self.cycles_per_block
        self.operations += 1
        return hmac.digest(key, message, "sha256")
