"""Transaction-level AXI4 crossbar model.

The host domain of the reference SoC uses a "high-bandwidth, low-latency
AXI4" crossbar (paper §III-A).  The model is transaction-accurate, not
signal-accurate: each read/write is routed to a mapped device and costs

    ``address_latency + beats * beat_latency``

cycles, where a beat carries ``data_width_bits`` of payload.  That is the
level of fidelity the paper's own trace-driven evaluation uses, and it
is what the CFI log-writer FSM needs: a 224-bit commit log split into
64-bit beats (paper §IV-B3) costs four data beats per mailbox write.

Masters are identified by name so that the :class:`repro.soc.pmp.IoPmp`
guard can police who may reach the CFI mailbox (paper §VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.mem.map import MemoryMap
from repro.soc.pmp import IoPmp


@dataclass(frozen=True)
class AxiTimings:
    """Crossbar timing parameters (cycles).

    Attributes:
        address_latency: arbitration + address-phase cost per transaction.
        beat_latency: cycles per data beat.
        data_width_bits: payload bits carried per beat (the reference SoC
            uses a 64-bit data bus).
    """

    address_latency: int = 2
    beat_latency: int = 1
    data_width_bits: int = 64

    @property
    def bytes_per_beat(self) -> int:
        """Payload bytes per beat."""
        return self.data_width_bits // 8

    def beats_for(self, nbytes: int) -> int:
        """Number of beats needed for ``nbytes`` of payload."""
        per = self.bytes_per_beat
        return max(1, (nbytes + per - 1) // per)

    def transaction_cycles(self, nbytes: int) -> int:
        """Total cycles for one transaction moving ``nbytes``."""
        return self.address_latency + self.beats_for(nbytes) * self.beat_latency


@dataclass
class BusStats:
    """Per-master accounting kept by fabric components."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    cycles: int = 0

    def record(self, kind: str, nbytes: int, cycles: int) -> None:
        """Fold one transaction into the counters."""
        if kind == "read":
            self.reads += 1
            self.read_bytes += nbytes
        else:
            self.writes += 1
            self.written_bytes += nbytes
        self.cycles += cycles


class AxiXbar:
    """AXI4 crossbar routing named masters to a shared memory map.

    Args:
        memory_map: address decode shared by all masters.
        timings: crossbar timing parameters.
        pmp: optional IOPMP guard consulted before every access.
        name: diagnostic name.
    """

    def __init__(
        self,
        memory_map: MemoryMap,
        timings: Optional[AxiTimings] = None,
        pmp: Optional[IoPmp] = None,
        name: str = "axi-xbar",
    ):
        self.map = memory_map
        self.timings = timings or AxiTimings()
        self.pmp = pmp
        self.name = name
        self._stats: Dict[str, BusStats] = {}
        # Hot paths for the single-beat integer accesses the CFI
        # handshake is made of (doorbell/verdict/completion traffic):
        # per-direction region memos plus a payload-size → cycles memo.
        # Stale region memos are harmless (regions are append-only).
        self._read_region = None
        self._write_region = None
        self._txn_memo: Dict[int, int] = {}

    def stats(self, master: str) -> BusStats:
        """Accounting for ``master`` (created on first use)."""
        if master not in self._stats:
            self._stats[master] = BusStats()
        return self._stats[master]

    def _txn_cycles(self, nbytes: int) -> int:
        cycles = self._txn_memo.get(nbytes)
        if cycles is None:
            cycles = self.timings.transaction_cycles(nbytes)
            self._txn_memo[nbytes] = cycles
        return cycles

    def _guard(self, master: str, address: int, nbytes: int, kind: str) -> None:
        if self.pmp is not None:
            self.pmp.check(master, address, nbytes, kind)

    def read(self, master: str, address: int, nbytes: int) -> Tuple[bytes, int]:
        """Read ``nbytes`` for ``master``; returns ``(data, cycles)``."""
        if nbytes <= 0:
            raise ConfigError("read size must be positive")
        self._guard(master, address, nbytes, "read")
        data = bytearray()
        per = self.timings.bytes_per_beat
        offset = 0
        while offset < nbytes:
            chunk = min(per, nbytes - offset)
            value = self.map.read(address + offset, chunk)
            data += value.to_bytes(chunk, "little")
            offset += chunk
        cycles = self.timings.transaction_cycles(nbytes)
        self.stats(master).record("read", nbytes, cycles)
        return bytes(data), cycles

    def read_int(self, master: str, address: int, nbytes: int) -> Tuple[int, int]:
        """Integer-read convenience wrapper (single-beat fast path)."""
        if 0 < nbytes <= self.timings.bytes_per_beat:
            if self.pmp is not None:
                self.pmp.check(master, address, nbytes, "read")
            region = self._read_region
            if (region is None
                    or address < region.base or address + nbytes > region.end):
                region = self.map._region_checked(address, nbytes, "read")
                self._read_region = region
            value = region.device.read(address - region.base, nbytes)
            cycles = self._txn_memo.get(nbytes)
            if cycles is None:
                cycles = self._txn_cycles(nbytes)
            stats = self._stats.get(master)
            if stats is None:
                stats = self.stats(master)
            stats.reads += 1
            stats.read_bytes += nbytes
            stats.cycles += cycles
            return value, cycles
        data, cycles = self.read(master, address, nbytes)
        return int.from_bytes(data, "little"), cycles

    def write(self, master: str, address: int, data: bytes) -> int:
        """Write ``data`` for ``master``; returns cycles consumed."""
        if not data:
            raise ConfigError("write payload must be non-empty")
        self._guard(master, address, len(data), "write")
        per = self.timings.bytes_per_beat
        m = self.map
        offset = 0
        while offset < len(data):
            chunk = data[offset : offset + per]
            beat_address = address + offset
            nbytes = len(chunk)
            value = int.from_bytes(chunk, "little")
            region = self._write_region
            if (region is None or beat_address < region.base
                    or beat_address + nbytes > region.end):
                region = m._region_checked(beat_address, nbytes, "write")
                self._write_region = region
            region.device.write(beat_address - region.base, nbytes, value)
            m.note_store(beat_address, nbytes)
            offset += nbytes
        cycles = self._txn_cycles(len(data))
        self.stats(master).record("write", len(data), cycles)
        return cycles

    def write_int(self, master: str, address: int, nbytes: int, value: int) -> int:
        """Integer-write convenience wrapper (single-beat fast path)."""
        if 0 < nbytes <= self.timings.bytes_per_beat:
            m = self.map
            if self.pmp is not None:
                self.pmp.check(master, address, nbytes, "write")
            region = self._write_region
            if (region is None
                    or address < region.base or address + nbytes > region.end):
                region = m._region_checked(address, nbytes, "write")
                self._write_region = region
            region.device.write(
                address - region.base, nbytes, value & ((1 << (nbytes * 8)) - 1)
            )
            m.note_store(address, nbytes)
            cycles = self._txn_memo.get(nbytes)
            if cycles is None:
                cycles = self._txn_cycles(nbytes)
            stats = self._stats.get(master)
            if stats is None:
                stats = self.stats(master)
            stats.writes += 1
            stats.written_bytes += nbytes
            stats.cycles += cycles
            return cycles
        return self.write(master, address, (value & ((1 << (nbytes * 8)) - 1)).to_bytes(nbytes, "little"))
