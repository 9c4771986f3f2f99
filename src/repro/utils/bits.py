"""Bit-manipulation helpers used across the ISA and hardware models.

All helpers operate on plain Python integers interpreted as fixed-width
bit vectors.  Width arguments are in bits; values are always masked to the
requested width so callers never see stray high bits.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return a bitmask of ``width`` ones (``mask(3) == 0b111``)."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(value: int, position: int) -> int:
    """Extract the single bit of ``value`` at ``position`` (0 or 1)."""
    return (value >> position) & 1


def bits(value: int, hi: int, lo: int) -> int:
    """Extract the inclusive bit-slice ``value[hi:lo]``.

    Mirrors the Verilog slice syntax used by the RISC-V spec, e.g.
    ``bits(insn, 31, 25)`` extracts ``insn[31:25]``.
    """
    if hi < lo:
        raise ValueError(f"invalid slice [{hi}:{lo}]")
    return (value >> lo) & mask(hi - lo + 1)


def sext(value: int, width: int) -> int:
    """Sign-extend a ``width``-bit value to a Python int (two's complement)."""
    value &= mask(width)
    sign = 1 << (width - 1)
    return (value ^ sign) - sign


def zext(value: int, width: int) -> int:
    """Zero-extend (i.e. truncate) a value to ``width`` bits."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Alias of :func:`sext` with a name that reads well at call sites."""
    return sext(value, width)


def to_unsigned(value: int, width: int) -> int:
    """Convert a (possibly negative) int to its ``width``-bit encoding."""
    return value & mask(width)


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """True if ``value`` is a multiple of ``alignment`` (a power of two)."""
    return (value & (alignment - 1)) == 0
