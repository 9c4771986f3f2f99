"""Tests for the address map: routing, latency, tags, timed and bulk access."""

import pytest

from repro.errors import AccessFault, ConfigError
from repro.mem.map import PAGE_BITS, MemoryMap
from repro.mem.memory import Ram


def make_map():
    bus = MemoryMap("test-bus")
    bus.add(0x1000, Ram(0x100, "sram"), latency=5, tag="rot-sram", name="sram")
    bus.add(0x8000, Ram(0x100, "ddr"), latency=12, tag="soc", name="ddr")
    return bus


class TestRouting:
    def test_read_write_through_map(self):
        bus = make_map()
        bus.write(0x1010, 4, 0xABCD)
        assert bus.read(0x1010, 4) == 0xABCD

    def test_offsets_are_region_relative(self):
        bus = make_map()
        bus.write(0x1000, 4, 7)
        bus.write(0x8000, 4, 9)
        assert bus.read(0x1000, 4) == 7
        assert bus.read(0x8000, 4) == 9

    def test_unmapped_faults(self):
        with pytest.raises(AccessFault):
            make_map().read(0x4000, 4)

    def test_access_crossing_region_end_faults(self):
        with pytest.raises(AccessFault, match="crosses"):
            make_map().read(0x10FE, 4)

    def test_overlap_rejected(self):
        bus = make_map()
        with pytest.raises(ConfigError, match="overlaps"):
            bus.add(0x10F0, Ram(0x100), name="overlapping")

    def test_regions_sorted(self):
        bus = make_map()
        bases = [r.base for r in bus.regions]
        assert bases == sorted(bases)


class TestLatencyAndTags:
    def test_latency_lookup(self):
        bus = make_map()
        assert bus.latency(0x1000) == 5
        assert bus.latency(0x8000) == 12

    def test_tag_lookup(self):
        bus = make_map()
        assert bus.tag(0x1050) == "rot-sram"
        assert bus.tag(0x8050) == "soc"


class TestTimedAccess:
    """read_timed/write_timed: one region lookup yields the access and
    the region's latency (the crossbars' per-access path)."""

    def test_write_timed_returns_region_latency(self):
        bus = make_map()
        assert bus.write_timed(0x1000, 4, 42) == 5
        assert bus.read(0x1000, 4) == 42

    def test_read_timed_returns_value_and_latency(self):
        bus = make_map()
        bus.write(0x8000, 4, 9)
        assert bus.read_timed(0x8000, 4) == (9, 12)

    def test_timed_accesses_fault_like_untimed(self):
        bus = make_map()
        with pytest.raises(AccessFault) as exc:
            bus.read_timed(0x4000, 4)
        assert (exc.value.address, exc.value.access) == (0x4000, "read")
        with pytest.raises(AccessFault, match="crosses") as exc:
            bus.write_timed(0x10FE, 4, 0)
        assert exc.value.access == "write"

    def test_write_timed_reaches_store_hooks(self):
        """A timed store into a held code page is seen by the hooks,
        exactly as an untimed one is; other pages stay silent."""
        bus = make_map()
        seen = []
        bus.add_store_hook(lambda address, size: seen.append((address, size)))
        bus.write_timed(0x1010, 4, 1)  # no page held yet
        bus.hold_code_page(0x1010 >> PAGE_BITS)
        bus.write_timed(0x1010, 4, 2)
        bus.write_timed(0x8000, 4, 3)
        assert seen == [(0x1010, 4)]


class TestBulkAccess:
    def test_write_bytes_uses_loader(self):
        bus = make_map()
        bus.write_bytes(0x1000, b"\x01\x02\x03\x04")
        assert bus.read(0x1000, 4) == 0x04030201

    def test_read_bytes(self):
        bus = make_map()
        bus.write_bytes(0x1000, b"abcd")
        assert bus.read_bytes(0x1000, 4) == b"abcd"
