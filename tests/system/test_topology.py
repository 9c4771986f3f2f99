"""Declarative multi-hart topology: validation, placement, rebasing.

Bad hart counts, overlapping memory placements and unknown hart ids
must be rejected with *typed* errors (never silently clamped), and the
default single-hart topology must reproduce the historic address map
exactly.
"""

import pytest

from repro.errors import (
    ConfigError,
    HartCountError,
    MemoryOverlapError,
    TopologyError,
    UnknownHartError,
)
from repro.system.addresses import AddressMap
from repro.system.soc import build_soc
from repro.system.topology import HART_DRAM_STRIDE, MAX_HARTS, Topology


class TestHartCountValidation:
    @pytest.mark.parametrize("n", [0, -1, MAX_HARTS + 1, 100])
    def test_out_of_range_counts_rejected(self, n):
        with pytest.raises(HartCountError) as excinfo:
            Topology(n_harts=n)
        assert excinfo.value.n_harts == n
        assert excinfo.value.max_harts == MAX_HARTS

    @pytest.mark.parametrize("n", [True, 2.0, "2", None])
    def test_non_int_counts_rejected(self, n):
        with pytest.raises(HartCountError):
            Topology(n_harts=n)

    def test_typed_errors_are_config_errors(self):
        """The whole topology family funnels into ConfigError."""
        assert issubclass(HartCountError, TopologyError)
        assert issubclass(MemoryOverlapError, TopologyError)
        assert issubclass(UnknownHartError, TopologyError)
        assert issubclass(TopologyError, ConfigError)

    @pytest.mark.parametrize("n", range(1, MAX_HARTS + 1))
    def test_supported_counts_accepted(self, n):
        assert Topology(n_harts=n).n_harts == n


class TestStrideAndBases:
    def test_bad_stride_rejected(self):
        with pytest.raises(TopologyError):
            Topology(n_harts=2, stride=0)
        with pytest.raises(TopologyError):
            Topology(n_harts=2, stride=-4096)

    def test_unaligned_stride_rejected(self):
        with pytest.raises(TopologyError):
            Topology(n_harts=2, stride=0x1234)

    def test_bases_length_must_match_harts(self):
        with pytest.raises(TopologyError):
            Topology(n_harts=2, bases=(0x8000_0000,))

    @pytest.mark.parametrize("n_harts,bases", [
        (1, (-1,)), (2, [0x8000_0000, True]), (1, 5),
    ], ids=["negative", "bool", "not-a-sequence"])
    def test_bad_base_rejected(self, n_harts, bases):
        with pytest.raises(TopologyError):
            Topology(n_harts=n_harts, bases=bases)


class TestPlacements:
    def test_single_hart_default_is_legacy_map(self):
        amap = AddressMap()
        (placement,) = Topology().placements(amap)
        assert placement.hart_id == 0
        assert placement.dram_base == amap.dram_base
        assert placement.dram_size == amap.dram_size

    def test_default_layout_strides_disjoint_segments(self):
        amap = AddressMap()
        placed = Topology(n_harts=4).placements(amap)
        assert [p.hart_id for p in placed] == [0, 1, 2, 3]
        for hart, p in enumerate(placed):
            assert p.dram_base == amap.dram_base + hart * HART_DRAM_STRIDE
            assert p.dram_size == HART_DRAM_STRIDE
        for prev, cur in zip(placed, placed[1:]):
            assert prev.dram_end <= cur.dram_base

    def test_overlapping_explicit_bases_rejected(self):
        amap = AddressMap()
        topo = Topology(
            n_harts=2,
            bases=(amap.dram_base, amap.dram_base + HART_DRAM_STRIDE // 2),
        )
        with pytest.raises(MemoryOverlapError):
            topo.placements(amap)

    def test_segment_escaping_dram_window_rejected(self):
        amap = AddressMap()
        topo = Topology(n_harts=2, bases=(amap.dram_base, amap.cfi_mailbox_base))
        with pytest.raises(MemoryOverlapError):
            topo.placements(amap)

    def test_segment_below_dram_rejected(self):
        amap = AddressMap()
        topo = Topology(n_harts=1, bases=(amap.dram_base - 0x1000,))
        with pytest.raises(MemoryOverlapError):
            topo.placements(amap)

    def test_max_harts_fit_below_mailbox(self):
        amap = AddressMap()
        placed = Topology(n_harts=MAX_HARTS).placements(amap)
        assert max(p.dram_end for p in placed) <= amap.cfi_mailbox_base


class TestAddressMapRebasing:
    def test_hart0_default_map_is_identity(self):
        amap = AddressMap()
        assert Topology(n_harts=4).address_map(0, amap) is amap
        assert Topology().address_map(0, amap) is amap

    def test_peer_hart_map_rebases_dram_only(self):
        amap = AddressMap()
        rebased = Topology(n_harts=4).address_map(2, amap)
        assert rebased.dram_base == amap.dram_base + 2 * HART_DRAM_STRIDE
        assert rebased.dram_size == HART_DRAM_STRIDE
        assert rebased.cfi_mailbox_base == amap.cfi_mailbox_base

    @pytest.mark.parametrize("hart_id", [-1, 4, True, "0"])
    def test_unknown_hart_id_rejected(self, hart_id):
        with pytest.raises(UnknownHartError):
            Topology(n_harts=4).address_map(hart_id)

    def test_unknown_hart_error_carries_context(self):
        with pytest.raises(UnknownHartError) as excinfo:
            Topology(n_harts=2).validate_hart_id(5)
        assert excinfo.value.hart_id == 5
        assert excinfo.value.n_harts == 2

    def test_dram_extent_covers_every_placement(self):
        amap = AddressMap()
        base, end = Topology(n_harts=3).dram_extent(amap)
        assert base == amap.dram_base
        assert end == amap.dram_base + 3 * HART_DRAM_STRIDE


class TestSocIntegration:
    def test_build_soc_instantiates_n_harts(self):
        soc = build_soc(topology=Topology(n_harts=4))
        assert soc.n_harts == 4
        assert len(soc.harts) == 4
        assert len(soc.cfi_stages) == 4
        assert len(soc.commits) == 4
        assert soc.doorbell_arbiter is not None
        assert soc.doorbell_arbiter.n_ports == 4

    def test_single_hart_soc_has_a_one_port_arbiter(self):
        for soc in (build_soc(), build_soc(topology=Topology()),
                    build_soc(with_cfi=False)):
            assert soc.doorbell_arbiter.n_ports == 1

    def test_harts_boot_at_their_segment(self):
        topo = Topology(n_harts=2)
        soc = build_soc(topology=topo)
        placed = topo.placements(soc.addresses)
        for hart, placement in zip(soc.harts, placed):
            assert hart.pc == placement.dram_base

    def test_load_host_program_rejects_unknown_hart(self):
        soc = build_soc(topology=Topology(n_harts=2))
        with pytest.raises(UnknownHartError):
            soc.load_host_program(b"\x13\x00\x00\x00", hart_id=2)
