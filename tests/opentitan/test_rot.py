"""OpenTitan top-level tests: fabric latencies, flash storage, firmware boot, PLIC wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AccessFault, ConfigError
from repro.isa.asm import assemble
from repro.isa.registers import reg_index
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.opentitan.plic_device import CLAIM_OFFSET, ENABLE_OFFSET, PlicDevice
from repro.opentitan.rot import OpenTitan, RotConfig
from repro.soc.axi import AxiXbar
from repro.soc.plic import Plic
from repro.system.addresses import AddressMap
from repro.system.soc import build_soc


def make_rot(fabric="standard"):
    amap = AddressMap()
    host = MemoryMap("host")
    host.add(amap.dram_base, Ram(amap.dram_size), name="dram")
    axi = AxiXbar(host)
    return OpenTitan(axi, addresses=amap, config=RotConfig(fabric=fabric))


class TestFabricLatencies:
    """The §V-B access-cost targets, derived from fabric composition."""

    def test_standard_scratchpad_is_5_cycles(self):
        assert make_rot("standard").scratchpad_access_cycles() == 5

    def test_standard_soc_access_is_12_cycles(self):
        assert make_rot("standard").soc_access_cycles() == 12

    def test_optimized_scratchpad_is_1_cycle(self):
        assert make_rot("optimized").scratchpad_access_cycles() == 1

    def test_optimized_soc_access_is_8_cycles(self):
        assert make_rot("optimized").soc_access_cycles() == 8

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ConfigError):
            RotConfig(fabric="warp").tlul_timings()


class TestConfigValidation:
    """A bad RoT option fails when the config is built, with a typed
    error, before any platform exists."""

    @pytest.mark.parametrize("kwargs", [
        {"fabric": "warp"},
        {"fabric": None},
        {"wake_cycles": -5},
        {"wake_cycles": "45"},
        {"wake_cycles": True},
        {"wake_cycles": 4.5},
    ], ids=repr)
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            RotConfig(**kwargs)

    @pytest.mark.parametrize("wake_cycles", [-1, "45", False])
    def test_build_soc_rejects_bad_wake_cycles(self, wake_cycles):
        with pytest.raises(ConfigError, match="wake_cycles"):
            build_soc(wake_cycles=wake_cycles)

    @pytest.mark.parametrize("wake_cycles", [0, 45, 200])
    def test_valid_wake_cycles_reach_ibex(self, wake_cycles):
        soc = build_soc(wake_cycles=wake_cycles)
        assert soc.rot.ibex.timing.wake_cycles == wake_cycles


class TestBridgeView:
    def test_ibex_reaches_host_dram_through_bridge(self):
        rot = make_rot()
        amap = rot.addresses
        alias = amap.ibex_alias(amap.dram_base + 0x100)
        rot.xbar.write("ibex", alias, 4, 0xBEEF)
        value, cycles = rot.xbar.read("ibex", alias, 4)
        assert value == 0xBEEF
        assert cycles == 12

    def test_bridge_window_tagged_soc(self):
        rot = make_rot()
        assert rot.tl_map.tag(rot.addresses.ot_bridge_base) == "soc"

    def test_private_regions_tagged_rot(self):
        rot = make_rot()
        assert rot.tl_map.tag(rot.addresses.ot_sram_base) == "rot-sram"
        assert rot.tl_map.tag(rot.addresses.ot_plic_base) == "rot-plic"


class TestFlashRegion:
    """The RoT flash: plain storage in the TL-UL map, 3-cycle device
    latency, addressed like any other private region."""

    def test_region_keeps_its_map_entry(self):
        rot = make_rot()
        amap = rot.addresses
        region = rot.tl_map.region_for(amap.ot_flash_base)
        assert (region.base, region.size, region.latency, region.tag, region.name) == (
            amap.ot_flash_base, amap.ot_flash_size, 3, "rot-flash", "ot-flash")

    @pytest.mark.parametrize("fabric, cycles", [("standard", 7), ("optimized", 3)])
    def test_word_roundtrip_through_xbar(self, fabric, cycles):
        """Fabric (2+2 standard, 0+0 optimized) plus the flash's 3."""
        rot = make_rot(fabric)
        base = rot.addresses.ot_flash_base
        assert rot.xbar.write("ibex", base, 4, 0xDEADBEEF) == cycles
        assert rot.xbar.read("ibex", base, 4) == (0xDEADBEEF, cycles)

    def test_byte_roundtrip(self):
        rot = make_rot()
        base = rot.addresses.ot_flash_base
        rot.xbar.write("ibex", base + 5, 1, 0xAB)
        assert rot.xbar.read("ibex", base + 5, 1)[0] == 0xAB
        assert rot.xbar.read("ibex", base + 4, 4)[0] == 0xAB00

    def test_unwritten_reads_zero(self):
        rot = make_rot()
        amap = rot.addresses
        last = amap.ot_flash_base + amap.ot_flash_size - 4
        assert rot.tl_map.read(amap.ot_flash_base + 100, 4) == 0
        assert rot.tl_map.read(last, 4) == 0

    def test_bulk_load_reads_back(self):
        rot = make_rot()
        address = rot.addresses.ot_flash_base + 16
        rot.tl_map.write_bytes(address, b"firmware")
        assert rot.tl_map.read_bytes(address, 8) == b"firmware"
        assert rot.tl_map.read(address, 4) == int.from_bytes(b"firm", "little")

    @given(
        offset=st.integers(min_value=0, max_value=AddressMap().ot_flash_size - 4),
        value=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, offset, value):
        rot = make_rot()
        address = rot.addresses.ot_flash_base + offset
        rot.tl_map.write(address, 4, value)
        assert rot.tl_map.read(address, 4) == value

    def test_access_past_the_end_faults(self):
        rot = make_rot()
        amap = rot.addresses
        with pytest.raises(AccessFault, match="crosses"):
            rot.xbar.read("ibex", amap.ot_flash_base + amap.ot_flash_size - 2, 4)

    def test_ibex_loads_from_flash(self):
        rot = make_rot()
        base = rot.addresses.ot_flash_base
        rot.tl_map.write(base + 8, 4, 0x12345678)
        program = assemble(f"""
            lui t0, {base >> 12:#x}
            lw a0, 8(t0)
            ebreak
        """, base=rot.addresses.ot_rom_base, xlen=32)
        rot.load_firmware(program.data)
        retired = [rot.ibex.step().insn.mnemonic for _ in range(2)]
        assert retired == ["lui", "lw"]
        assert rot.ibex.regs.read(reg_index("a0")) == 0x12345678


class TestFirmwareLoading:
    def test_load_points_ibex_at_rom(self):
        rot = make_rot()
        rot.load_firmware(b"\x13\x00\x00\x00" * 4)  # nops
        assert rot.ibex.pc == rot.addresses.ot_rom_base
        result = rot.ibex.step()
        assert result.insn.mnemonic == "addi"


class TestPlicDevice:
    def test_enable_bitmask(self):
        plic = Plic(4)
        device = PlicDevice(plic)
        device.write(ENABLE_OFFSET, 4, 0b0110)  # sources 1 and 2
        plic.set_level(1, True)
        assert plic.irq_line

    def test_claim_complete_via_registers(self):
        plic = Plic(4)
        device = PlicDevice(plic)
        device.write(ENABLE_OFFSET, 4, 0b0010)
        plic.set_level(1, True)
        claimed = device.read(CLAIM_OFFSET, 4)
        assert claimed == 1
        plic.set_level(1, False)
        device.write(CLAIM_OFFSET, 4, claimed)
        assert not plic.pending(1)

    def test_wake_latency_configured(self):
        rot = make_rot()
        assert rot.ibex.timing.wake_cycles == 45
