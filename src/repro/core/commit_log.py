"""The 224-bit commit log (paper §IV-B1).

A commit log condenses one CFI-relevant retired instruction into the
four fields the RoT firmware needs:

    (i)   the instruction program counter          — 64 bits
    (ii)  the uncompressed binary encoding          — 32 bits
    (iii) the next address (fall-through, pc+len)   — 64 bits
    (iv)  the target address (actual destination)   — 64 bits
                                                    = 224 bits

The wire layout places each field at a 32-bit-aligned offset so the
RV32 Ibex can fetch exactly the word it needs with one TL-UL read —
this is what keeps the firmware's SoC-access count at the paper's four
accesses per check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa.cflow import CfKind, classify_word
from repro.utils.bits import mask

#: Total packet width (paper: "a 224 bits packet").
COMMIT_LOG_BITS = 224
COMMIT_LOG_BYTES = COMMIT_LOG_BITS // 8  # 28

#: Byte offsets of each field within the packet / CFI mailbox data file.
PC_OFFSET = 0
ENCODING_OFFSET = 8
NEXT_OFFSET = 12
TARGET_OFFSET = 20


@dataclass(frozen=True)
class CommitLog:
    """One CFI-relevant control-flow event.

    Attributes:
        pc: program counter of the retired instruction.
        encoding: its 32-bit encoding.
        next_address: fall-through address (``pc + 4``); for calls
            this is the return address the policy pushes.
        target: address control actually transferred to.
    """

    pc: int
    encoding: int
    next_address: int
    target: int

    def __post_init__(self):
        for field_name, width in (("pc", 64), ("encoding", 32),
                                  ("next_address", 64), ("target", 64)):
            value = getattr(self, field_name)
            if not 0 <= value <= mask(width):
                raise ConfigError(
                    f"commit log field {field_name}={value:#x} exceeds {width} bits"
                )

    @property
    def kind(self) -> CfKind:
        """Control-flow class, re-derived from the encoding (as the
        firmware does — both sides parse the same bits)."""
        return classify_word(self.encoding, xlen=64)

    def pack(self) -> bytes:
        """Serialise to the 28-byte wire format (little-endian fields)."""
        out = bytearray(COMMIT_LOG_BYTES)
        out[PC_OFFSET:PC_OFFSET + 8] = self.pc.to_bytes(8, "little")
        out[ENCODING_OFFSET:ENCODING_OFFSET + 4] = self.encoding.to_bytes(4, "little")
        out[NEXT_OFFSET:NEXT_OFFSET + 8] = self.next_address.to_bytes(8, "little")
        out[TARGET_OFFSET:TARGET_OFFSET + 8] = self.target.to_bytes(8, "little")
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "CommitLog":
        """Deserialise from the wire format (extra trailing bytes ignored)."""
        if len(data) < COMMIT_LOG_BYTES:
            raise ConfigError(
                f"commit log needs {COMMIT_LOG_BYTES} bytes, got {len(data)}"
            )
        return cls(
            pc=int.from_bytes(data[PC_OFFSET:PC_OFFSET + 8], "little"),
            encoding=int.from_bytes(data[ENCODING_OFFSET:ENCODING_OFFSET + 4], "little"),
            next_address=int.from_bytes(data[NEXT_OFFSET:NEXT_OFFSET + 8], "little"),
            target=int.from_bytes(data[TARGET_OFFSET:TARGET_OFFSET + 8], "little"),
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommitLog(pc={self.pc:#x}, enc={self.encoding:#010x}, "
            f"next={self.next_address:#x}, target={self.target:#x}, "
            f"kind={self.kind.value})"
        )
