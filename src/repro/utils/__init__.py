"""Shared low-level utilities: bit manipulation."""

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
]
