"""OpenTitan top-level tests: fabric latencies, firmware boot, PLIC wiring."""

import pytest

from repro.errors import ConfigError
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
