"""Declarative multi-hart topology for the TitanCFI SoC.

TitanCFI centralises CFI enforcement in the root of trust: one Ibex
monitor arbitrates verdicts for *N* protected application harts.  A
:class:`Topology` describes the application side declaratively — how
many CVA6-class harts to instantiate and where each one's private DRAM
segment lives — and the SoC builder (:func:`repro.system.soc.build_soc`)
consumes it to stamp out per-hart commit pipelines, CFI stages and
mailbox doorbell ports.

Placement model
---------------
Each hart owns a disjoint DRAM segment.  By default hart ``h`` gets a
``stride``-sized window at ``dram_base + h * stride`` (16 MiB each,
matching the single-hart map), so victim programs relocate per hart by
rebasing their :class:`~repro.system.addresses.AddressMap`.  Explicit
``bases`` override the stride layout; overlapping or device-colliding
placements are rejected with typed errors — never silently clamped.

The single-hart default (``Topology()``) reproduces today's fixed
two-hart SoC (one CVA6 + the Ibex monitor) byte- and cycle-exactly:
one placement spanning the full legacy DRAM region.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    HartCountError,
    MemoryOverlapError,
    TopologyError,
    UnknownHartError,
)
from repro.system.addresses import AddressMap

#: Largest supported application-hart count (the saturation bench sweeps
#: up to this; the default stride layout fits 8 x 16 MiB segments below
#: the CFI mailbox with room to spare).
MAX_HARTS = 8

#: Default per-hart DRAM segment size — the legacy single-hart DRAM size,
#: so hart 0's default placement is exactly the historic map.
HART_DRAM_STRIDE = 0x0100_0000


@dataclass(frozen=True)
class HartPlacement:
    """One application hart's private DRAM segment."""

    hart_id: int
    dram_base: int
    dram_size: int

    @property
    def dram_end(self) -> int:
        return self.dram_base + self.dram_size


@dataclass(frozen=True)
class Topology:
    """Declarative description of the application side of the SoC.

    Attributes:
        n_harts: number of CVA6-class application harts (1..MAX_HARTS).
        stride: per-hart DRAM segment size for the default layout.
        bases: optional explicit per-hart DRAM bases (absolute host
            addresses, one per hart).  ``None`` selects the stride
            layout.
    """

    n_harts: int = 1
    stride: int = HART_DRAM_STRIDE
    bases: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_harts, int) or isinstance(self.n_harts, bool):
            raise HartCountError(self.n_harts, MAX_HARTS)
        if not 1 <= self.n_harts <= MAX_HARTS:
            raise HartCountError(self.n_harts, MAX_HARTS)
        if not isinstance(self.stride, int) or self.stride <= 0:
            raise TopologyError(f"invalid DRAM stride {self.stride!r}")
        if self.stride % 0x1000:
            raise TopologyError(
                f"DRAM stride {self.stride:#x} is not page-aligned"
            )
        if self.bases is not None:
            try:
                bases = tuple(self.bases)
            except TypeError:
                raise TopologyError(
                    f"DRAM bases must be a sequence, got {self.bases!r}"
                ) from None
            object.__setattr__(self, "bases", bases)
            if len(bases) != self.n_harts:
                raise TopologyError(
                    f"topology has {self.n_harts} harts but {len(bases)} "
                    f"explicit DRAM bases"
                )
            for base in bases:
                if not isinstance(base, int) or isinstance(base, bool) or base < 0:
                    raise TopologyError(f"invalid DRAM base {base!r}")

    # -- placement -----------------------------------------------------------

    def placements(self, addresses: Optional[AddressMap] = None
                   ) -> Tuple[HartPlacement, ...]:
        """Per-hart DRAM segments, validated against ``addresses``.

        Raises :class:`MemoryOverlapError` when two segments intersect
        or a segment escapes the DRAM window into device space.
        """
        amap = addresses if addresses is not None else AddressMap()
        if self.bases is not None:
            bases = self.bases
        else:
            bases = tuple(
                amap.dram_base + hart * self.stride
                for hart in range(self.n_harts)
            )
        if self.n_harts == 1 and self.bases is None:
            # Legacy identity: the sole hart owns the whole DRAM region.
            sizes: Tuple[int, ...] = (amap.dram_size,)
        else:
            sizes = (self.stride,) * self.n_harts
        placed = tuple(
            HartPlacement(hart_id=hart, dram_base=base, dram_size=size)
            for hart, (base, size) in enumerate(zip(bases, sizes))
        )
        self._check_disjoint(placed, amap)
        return placed

    @staticmethod
    def _check_disjoint(placed: Tuple[HartPlacement, ...],
                        amap: AddressMap) -> None:
        lo_bound = amap.dram_base
        hi_bound = amap.cfi_mailbox_base
        for p in placed:
            if p.dram_base < lo_bound or p.dram_end > hi_bound:
                raise MemoryOverlapError(
                    f"hart {p.hart_id} segment "
                    f"[{p.dram_base:#x}, {p.dram_end:#x}) escapes the DRAM "
                    f"window [{lo_bound:#x}, {hi_bound:#x})"
                )
        ordered = sorted(placed, key=lambda p: p.dram_base)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.dram_base < prev.dram_end:
                raise MemoryOverlapError(
                    f"hart {prev.hart_id} segment "
                    f"[{prev.dram_base:#x}, {prev.dram_end:#x}) overlaps "
                    f"hart {cur.hart_id} segment starting {cur.dram_base:#x}"
                )

    def dram_extent(self, addresses: Optional[AddressMap] = None
                    ) -> Tuple[int, int]:
        """``(base, end)`` of the DRAM device covering every placement.

        The device always starts at the map's ``dram_base`` so the
        single-hart fabric layout is unchanged.
        """
        amap = addresses if addresses is not None else AddressMap()
        placed = self.placements(amap)
        return amap.dram_base, max(p.dram_end for p in placed)

    def address_map(self, hart_id: int,
                    addresses: Optional[AddressMap] = None) -> AddressMap:
        """The :class:`AddressMap` as seen by one hart's software: the
        shared map rebased onto that hart's private DRAM segment."""
        amap = addresses if addresses is not None else AddressMap()
        self.validate_hart_id(hart_id)
        placement = self.placements(amap)[hart_id]
        if (placement.dram_base == amap.dram_base
                and placement.dram_size == amap.dram_size):
            return amap
        return dataclasses.replace(
            amap, dram_base=placement.dram_base, dram_size=placement.dram_size
        )

    def validate_hart_id(self, hart_id: int) -> int:
        """Return ``hart_id`` if the topology instantiates it; raise
        :class:`UnknownHartError` otherwise (reject, don't clamp)."""
        if not isinstance(hart_id, int) or isinstance(hart_id, bool):
            raise UnknownHartError(hart_id, self.n_harts)
        if not 0 <= hart_id < self.n_harts:
            raise UnknownHartError(hart_id, self.n_harts)
        return hart_id
