"""Bus ports: how a hart's loads, stores and fetches reach the fabric.

The two cores of the reference SoC sit on different fabrics — CVA6 on
the AXI side (modelled here as direct memory-map access with region
latencies) and Ibex behind OpenTitan's TL-UL crossbar.  A common
:class:`BusPort` protocol hides that from the execution engine; every
access returns the cycles it consumed so the timing model can charge
them.
"""

from __future__ import annotations

from typing import Protocol, Tuple

from repro.mem.map import PAGE_BITS, MemoryMap, StoreHook
from repro.soc.tilelink import TlulXbar


class BusPort(Protocol):
    """Load/store/fetch interface given to a :class:`repro.hart.core.Hart`."""

    def read(self, address: int, size: int) -> Tuple[int, int]:
        """Data read; returns ``(value, cycles)``."""
        ...

    def write(self, address: int, size: int, value: int) -> int:
        """Data write; returns cycles."""
        ...

    def fetch(self, address: int, size: int) -> Tuple[int, int]:
        """Instruction fetch; returns ``(value, cycles)``."""
        ...

    def on_store(self, hook: StoreHook) -> MemoryMap:
        """Subscribe to writes reaching fetchable memory.

        The hook fires for *every* master's writes through the fabric
        (including bulk image loads) that touch a page the subscriber
        declared through the returned map's
        :meth:`~repro.mem.map.MemoryMap.hold_code_page`, which is what
        lets a hart keep a per-pc decoded-instruction cache coherent
        with self-modifying code and with foreign writers.  Every hart
        subscribes at construction.
        """
        ...


def _region_memo(region, attr: str):
    """Build a port memo ``(lo, hi, latency, device_fn)`` for ``region``.

    ``device_fn`` is the device's pre-bounds-checked entry point
    (``fast_read``/``fast_write``) when it offers one — sound only
    because the mapped window never exceeds the device, which is
    exactly what the guard checks — else the protocol method.
    """
    device = region.device
    fn = getattr(device, attr, None)
    if fn is None or region.size > device.size:
        fn = device.read if attr == "fast_read" else device.write
    return (region.base, region.end, region.latency, fn)


class MapPort:
    """Direct memory-map port (CVA6 host-domain view).

    Access cost is the mapped region's latency — the host crossbar's
    contribution is folded into those latencies by the SoC builder.

    The data path is the fused fast path of
    :meth:`repro.mem.map.MemoryMap.read_timed` /
    :meth:`~repro.mem.map.MemoryMap.write_timed`: one hot-region bounds
    check, then the device, falling back to the map's full decode (and
    its fault messages) on a region miss.  One load/store per simulated
    instruction makes every call layer here measurable.
    """

    def __init__(self, memory_map: MemoryMap):
        self.map = memory_map
        # Port-local read/write memos ``(lo, hi, latency, device_fn)``.
        # The map's shared hot-region memo thrashes when other masters
        # (the CFI log writer, the TL2AXI bridge) interleave mailbox
        # traffic with this hart's DRAM stream; the per-port,
        # per-direction memos stay pinned to the hart's own working
        # regions.  Stale entries are harmless: regions are only ever
        # added, never moved.  ``device_fn`` is the device's
        # pre-bounds-checked entry point when it offers one (Ram
        # ``fast_read``/``fast_write``), else its protocol method.
        self._read_memo = None
        self._write_memo = None
        self._fetch_memo = None

    def read(self, address: int, size: int) -> Tuple[int, int]:
        memo = self._read_memo
        if memo is not None:
            lo, hi, latency, fn = memo
            if lo <= address and address + size <= hi:
                return fn(address - lo, size), latency
        return self._read_slow(address, size)

    def _read_slow(self, address: int, size: int) -> Tuple[int, int]:
        region = self.map._region_checked(address, size, "read")
        memo = _region_memo(region, "fast_read")
        self._read_memo = memo
        return memo[3](address - region.base, size), region.latency

    def write(self, address: int, size: int, value: int) -> int:
        m = self.map
        memo = self._write_memo
        if memo is not None:
            lo, hi, latency, fn = memo
            if lo <= address and address + size <= hi:
                fn(address - lo, size, value)
                pages = m._code_pages
                if ((address >> PAGE_BITS) in pages
                        or ((address + size - 1) >> PAGE_BITS) in pages):
                    m.note_store(address, size)
                return latency
        return self._write_slow(address, size, value)

    def _write_slow(self, address: int, size: int, value: int) -> int:
        m = self.map
        region = m._region_checked(address, size, "write")
        memo = _region_memo(region, "fast_write")
        self._write_memo = memo
        memo[3](address - region.base, size, value)
        m.note_store(address, size)
        return region.latency

    def fetch(self, address: int, size: int) -> Tuple[int, int]:
        memo = self._fetch_memo
        if memo is not None:
            lo, hi, latency, fn = memo
            if lo <= address and address + size <= hi:
                return fn(address - lo, size), latency
        region = self.map._region_checked(address, size, "fetch")
        memo = _region_memo(region, "fast_read")
        self._fetch_memo = memo
        return memo[3](address - region.base, size), region.latency

    def on_store(self, hook: StoreHook) -> MemoryMap:
        return self.map.add_store_hook(hook)


class TlulPort:
    """TL-UL crossbar port (Ibex's view inside OpenTitan).

    Fetches bypass the timed data path: Ibex's prefetch buffer hides
    instruction-memory latency for the straight-line firmware we model,
    and the paper's cycle accounting charges fetch stalls to the
    instruction itself (via the timing model), not to the bus.
    """

    def __init__(self, xbar: TlulXbar, master: str = "ibex"):
        self.xbar = xbar
        self.master = master
        # The xbar's per-master accounting object, bound once: the
        # paper's Table I reads these counters, so every access must
        # still be recorded — just without a dict lookup per access
        # (the counter bumps are inlined below for the same reason).
        self._stats = xbar.stats(master)
        # The xbar's (nbytes, latency) → cycles memo, shared so the
        # fast paths below do one inline dict probe per access.
        self._cycles = xbar._cycles_memo
        # Per-direction memos ``(lo, hi, latency, device_fn)`` — see
        # MapPort.  Reads keep *two* slots (most-recent first): the
        # firmware's check loop alternates mailbox reads (bridge) with
        # scratchpad reads (SRAM), which a single slot ping-pongs on.
        self._read_memo = None
        self._read_memo2 = None
        self._write_memo = None
        self._fetch_memo = None

    def read(self, address: int, size: int) -> Tuple[int, int]:
        memo = self._read_memo
        if memo is not None:
            lo, hi, latency, fn = memo
            if not (lo <= address and address + size <= hi):
                memo = self._read_memo2
                if memo is None:
                    return self._read_slow(address, size)
                lo, hi, latency, fn = memo
                if not (lo <= address and address + size <= hi):
                    return self._read_slow(address, size)
                # Promote the hit to the front slot, then fall through
                # to the one shared hit body below.
                self._read_memo2 = self._read_memo
                self._read_memo = memo
            value = fn(address - lo, size)
            cycles = self._cycles.get((size, latency))
            if cycles is None:
                cycles = self.xbar._access_cycles(size, latency)
            stats = self._stats
            stats.reads += 1
            stats.read_bytes += size
            stats.cycles += cycles
            return value, cycles
        return self._read_slow(address, size)

    def _read_slow(self, address: int, size: int) -> Tuple[int, int]:
        xbar = self.xbar
        region = xbar.map._region_checked(address, size, "read")
        memo = _region_memo(region, "fast_read")
        self._read_memo2 = self._read_memo
        self._read_memo = memo
        value = memo[3](address - region.base, size)
        cycles = xbar._access_cycles(size, region.latency)
        self._stats.record("read", size, cycles)
        return value, cycles

    def write(self, address: int, size: int, value: int) -> int:
        memo = self._write_memo
        if memo is not None:
            lo, hi, latency, fn = memo
            if lo <= address and address + size <= hi:
                fn(address - lo, size, value)
                m = self.xbar.map
                pages = m._code_pages
                if ((address >> PAGE_BITS) in pages
                        or ((address + size - 1) >> PAGE_BITS) in pages):
                    m.note_store(address, size)
                cycles = self._cycles.get((size, latency))
                if cycles is None:
                    cycles = self.xbar._access_cycles(size, latency)
                stats = self._stats
                stats.writes += 1
                stats.written_bytes += size
                stats.cycles += cycles
                return cycles
        return self._write_slow(address, size, value)

    def _write_slow(self, address: int, size: int, value: int) -> int:
        xbar = self.xbar
        m = xbar.map
        region = m._region_checked(address, size, "write")
        memo = _region_memo(region, "fast_write")
        self._write_memo = memo
        memo[3](address - region.base, size, value)
        m.note_store(address, size)
        cycles = xbar._access_cycles(size, region.latency)
        self._stats.record("write", size, cycles)
        return cycles

    def fetch(self, address: int, size: int) -> Tuple[int, int]:
        memo = self._fetch_memo
        if memo is not None:
            lo, hi, _latency, fn = memo
            if lo <= address and address + size <= hi:
                return fn(address - lo, size), 0
        region = self.xbar.map._region_checked(address, size, "fetch")
        memo = _region_memo(region, "fast_read")
        self._fetch_memo = memo
        return memo[3](address - region.base, size), 0

    def on_store(self, hook: StoreHook) -> MemoryMap:
        return self.xbar.map.add_store_hook(hook)
