"""Shared low-level utilities: bit manipulation and bounded FIFOs."""

from repro.utils.bits import (
    bit,
    bits,
    mask,
    sext,
    zext,
    to_signed,
    to_unsigned,
    align_down,
    align_up,
    is_aligned,
)
from repro.utils.fifo import BoundedFifo

__all__ = [
    "bit",
    "bits",
    "mask",
    "sext",
    "zext",
    "to_signed",
    "to_unsigned",
    "align_down",
    "align_up",
    "is_aligned",
    "BoundedFifo",
]
