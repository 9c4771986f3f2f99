"""Address map binding devices into a hart's or bus master's view.

Every region carries an access *latency* (cycles per access) and a *tag*.
The latency feeds the instruction-set simulators' timing models; the tag
feeds the Table I classification, which splits firmware memory cycles
into RoT-private versus SoC accesses exactly as the paper does (its
per-step probe asks :meth:`MemoryMap.tag` for each data access).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import AccessFault, ConfigError


class MappedDevice(Protocol):
    """Protocol every bus-attachable device implements."""

    size: int

    def read(self, offset: int, size: int) -> int:
        """Read ``size`` bytes at device-relative ``offset``."""
        ...

    def write(self, offset: int, size: int, value: int) -> None:
        """Write ``size`` bytes at device-relative ``offset``."""
        ...


@dataclass(frozen=True)
class Region:
    """One mapped window.

    Attributes:
        base: first absolute address of the window.
        size: window length in bytes.
        device: target device (offsets are window-relative).
        latency: cycles consumed by one access through this window.
        tag: classification label (e.g. ``"rot-sram"``, ``"soc"``).
        name: diagnostic name.
        end: one past the last mapped address (derived; stored as a
            plain field because the bounds check runs on every single
            bus access and a property call there is measurable).
    """

    base: int
    size: int
    device: MappedDevice
    latency: int = 1
    tag: str = "untagged"
    name: str = "region"
    end: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "end", self.base + self.size)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this window."""
        return self.base <= address < self.end


#: Lightweight write notification ``(address, size)`` — fired on every
#: CPU/bus write and bulk image load that touches a page some subscribed
#: hart holds decoded code from.  Harts use this to invalidate their
#: per-pc decoded-instruction caches when a store lands in a page they
#: have executed from (self-modifying code).
StoreHook = Callable[[int, int], None]

#: log2 of the page size at which code is tracked for store hooks.
PAGE_BITS = 12


class MemoryMap:
    """Routes absolute addresses to mapped devices.

    Args:
        name: diagnostic name (which master's view this is).
    """

    def __init__(self, name: str = "bus"):
        self.name = name
        self._regions: List[Region] = []
        self._store_hooks: List[StoreHook] = []
        # Per page, how many subscribed harts hold decoded code from it.
        # Every hook ignores a store to any other page, so a store calls
        # the hooks only when it touches a counted page.
        self._code_pages: Dict[int, int] = {}
        # Last-hit region memo: bus traffic is strongly clustered (code
        # fetches, then a burst of data accesses), so remembering the
        # previous region short-circuits the linear scan.
        self._hot_region: Optional[Region] = None

    # -- construction -------------------------------------------------------

    def add(
        self,
        base: int,
        device: MappedDevice,
        *,
        size: Optional[int] = None,
        latency: int = 1,
        tag: str = "untagged",
        name: str = "region",
    ) -> Region:
        """Map ``device`` at ``base``; rejects overlapping windows."""
        window = size if size is not None else device.size
        if window <= 0:
            raise ConfigError(f"{name}: region size must be positive")
        region = Region(base, window, device, latency, tag, name)
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ConfigError(
                    f"{self.name}: {name} [{base:#x}, {region.end:#x}) overlaps "
                    f"{existing.name} [{existing.base:#x}, {existing.end:#x})"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._hot_region = None
        return region

    def add_store_hook(self, hook: StoreHook) -> "MemoryMap":
        """Register a write-notification hook ``(address, size)``.

        Hooks see bulk loads too.  A hook fires only for writes
        touching a page its subscriber holds through
        :meth:`hold_code_page`, so the subscriber must declare every
        page it caches code from; returns this map for that purpose.
        """
        self._store_hooks.append(hook)
        return self

    def hold_code_page(self, page: int) -> None:
        """Count one more subscriber holding decoded code from ``page``
        (an address shifted right by :data:`PAGE_BITS`)."""
        pages = self._code_pages
        pages[page] = pages.get(page, 0) + 1

    def drop_code_pages(self, held: Iterable[int]) -> None:
        """Undo :meth:`hold_code_page` for each page in ``held`` (a
        subscriber flushed its decoded code)."""
        pages = self._code_pages
        for page in held:
            count = pages[page] - 1
            if count:
                pages[page] = count
            else:
                del pages[page]

    def note_store(self, address: int, size: int) -> None:
        """Call the store hooks when the ``size`` bytes written at
        ``address`` touch a page some subscriber holds code from (a
        bulk write's interior pages included)."""
        pages = self._code_pages
        if not pages:
            return
        first = address >> PAGE_BITS
        last = (address + size - 1) >> PAGE_BITS
        if first in pages or (
            last != first and any(first < page <= last for page in pages)
        ):
            for hook in self._store_hooks:
                hook(address, size)

    # -- lookup --------------------------------------------------------------

    @property
    def regions(self) -> Tuple[Region, ...]:
        """All mapped regions, sorted by base address."""
        return tuple(self._regions)

    def region_for(self, address: int) -> Region:
        """Region containing ``address``; raises :class:`AccessFault`."""
        hot = self._hot_region
        if hot is not None and hot.base <= address < hot.end:
            return hot
        for region in self._regions:
            if region.contains(address):
                self._hot_region = region
                return region
        raise AccessFault(address, "read", f"{self.name}: unmapped address {address:#x}")

    def latency(self, address: int) -> int:
        """Access latency at ``address`` (cycles)."""
        return self.region_for(address).latency

    def tag(self, address: int) -> str:
        """Classification tag at ``address``."""
        return self.region_for(address).tag

    # -- access --------------------------------------------------------------

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes; returns the little-endian value."""
        region = self._region_checked(address, size, "read")
        return region.device.read(address - region.base, size)

    def read_timed(self, address: int, size: int) -> Tuple[int, int]:
        """:meth:`read` plus the region latency, in one region lookup.

        The hot path for every instruction-set simulator access: the
        separate ``read(...)`` + ``latency(...)`` sequence decodes the
        address twice; this folds the pair.
        """
        region = self._region_checked(address, size, "read")
        return region.device.read(address - region.base, size), region.latency

    def write(self, address: int, size: int, value: int) -> None:
        """Write ``size`` bytes of ``value``."""
        region = self._region_checked(address, size, "write")
        region.device.write(address - region.base, size, value)
        self.note_store(address, size)

    def write_timed(self, address: int, size: int, value: int) -> int:
        """:meth:`write` returning the region latency (one lookup)."""
        region = self._region_checked(address, size, "write")
        region.device.write(address - region.base, size, value)
        self.note_store(address, size)
        return region.latency

    def read_bytes(self, address: int, count: int) -> bytes:
        """Bulk read for program loading and inspection (single region)."""
        region = self._region_checked(address, count, "read")
        offset = address - region.base
        dumper = getattr(region.device, "dump", None)
        if dumper is not None:
            return dumper(offset, count)
        return bytes(
            region.device.read(offset + i, 1) for i in range(count)
        )

    def write_bytes(self, address: int, data: bytes) -> None:
        """Bulk write for program loading (single region)."""
        region = self._region_checked(address, len(data), "write")
        offset = address - region.base
        loader = getattr(region.device, "load", None)
        if loader is not None:
            loader(offset, data)
        else:
            for i, byte in enumerate(data):
                region.device.write(offset + i, 1, byte)
        self.note_store(address, len(data))

    def _region_checked(self, address: int, size: int, kind: str) -> Region:
        try:
            region = self.region_for(address)
        except AccessFault:
            raise AccessFault(address, kind, f"{self.name}: unmapped {kind} at {address:#x}")
        if address + size > region.end:
            raise AccessFault(
                address, kind,
                f"{self.name}: {kind} of {size} bytes at {address:#x} crosses "
                f"region {region.name} boundary",
            )
        return region
