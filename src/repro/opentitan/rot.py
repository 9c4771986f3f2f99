"""The OpenTitan Root-of-Trust top level (paper §III-B).

Assembles the RoT: Ibex on a TL-UL crossbar with its boot ROM, 128 KiB
private SRAM scratchpad, flash storage, HMAC accelerator, PLIC and
the TL2AXI bridge into the host domain.  Two fabric profiles exist:

* ``standard`` — the reference interconnect: ~5-cycle scratchpad
  accesses, ~12-cycle SoC accesses through the bridge;
* ``optimized`` — the paper's §V-B proposal of a low-latency
  interconnect: single-cycle scratchpad, ~8-cycle SoC accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, check_int
from repro.hart.core import Hart
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram, Rom
from repro.opentitan.crypto.accel import HmacAccelerator
from repro.opentitan.ibex import make_ibex
from repro.opentitan.plic_device import PlicDevice
from repro.soc.axi import AxiXbar
from repro.soc.bridge import Tl2AxiBridge
from repro.soc.plic import Plic
from repro.soc.tilelink import TlulTimings, TlulXbar
from repro.system.addresses import AddressMap


@dataclass(frozen=True)
class RotConfig:
    """OpenTitan build options.

    Attributes:
        fabric: ``"standard"`` or ``"optimized"`` (paper §V-B).
        wake_cycles: doorbell-to-wake latency of Ibex, an ``int`` >= 0.
        plic_sources: interrupt source count.

    Raises:
        ConfigError: for an unknown fabric or an invalid wake latency.
    """

    fabric: str = "standard"
    wake_cycles: int = 45
    plic_sources: int = 4

    def __post_init__(self) -> None:
        if self.fabric not in ("standard", "optimized"):
            raise ConfigError(f"unknown fabric profile {self.fabric!r}")
        check_int("wake_cycles", self.wake_cycles, 0)

    def tlul_timings(self) -> TlulTimings:
        """TL-UL timing for the chosen fabric profile."""
        if self.fabric == "standard":
            # 2+2 fabric + 1-cycle SRAM = the paper's ~5-cycle scratchpad.
            return TlulTimings(request_latency=2, response_latency=2)
        # Low-latency interconnect: single-cycle private accesses.
        return TlulTimings(request_latency=0, response_latency=0)

    def bridge_region_latency(self) -> int:
        """Device latency of the bridge window region.

        Composed with the TL-UL fabric this yields the paper's SoC
        access costs: standard 2+2+8 = 12 cycles, optimized 0+0+8 = 8.
        """
        return 8


class OpenTitan:
    """The assembled Root-of-Trust.

    Args:
        axi: host-domain crossbar the bridge forwards into.
        addresses: system address map.
        config: build options.
        external_irq: override for the Ibex IRQ line (defaults to this
            RoT's own PLIC line).
    """

    def __init__(
        self,
        axi: AxiXbar,
        addresses: Optional[AddressMap] = None,
        config: Optional[RotConfig] = None,
    ):
        self.addresses = addresses or AddressMap()
        self.config = config or RotConfig()
        amap = self.addresses

        self.tl_map = MemoryMap("opentitan")
        self.rom = Rom(amap.ot_rom_size, "ot-rom")
        self.sram = Ram(amap.ot_sram_size, "ot-sram")
        self.flash = Ram(amap.ot_flash_size, "ot-flash")
        self.hmac = HmacAccelerator()
        self.plic = Plic(self.config.plic_sources, name="ot-plic")
        self.plic_device = PlicDevice(self.plic)
        self.bridge = Tl2AxiBridge(
            axi,
            window_base=amap.host_window_base,
            window_size=amap.ot_bridge_size,
            master="opentitan",
            conversion_latency=0,
        )

        self.tl_map.add(amap.ot_rom_base, self.rom, latency=1,
                        tag="rot-rom", name="ot-rom")
        self.tl_map.add(amap.ot_sram_base, self.sram, latency=1,
                        tag="rot-sram", name="ot-sram")
        self.tl_map.add(amap.ot_flash_base, self.flash, latency=3,
                        tag="rot-flash", name="ot-flash")
        self.tl_map.add(amap.ot_hmac_base, self.hmac, latency=1,
                        tag="rot-crypto", name="ot-hmac")
        self.tl_map.add(amap.ot_plic_base, self.plic_device, latency=1,
                        tag="rot-plic", name="ot-plic")
        self.tl_map.add(amap.ot_bridge_base, self.bridge,
                        size=amap.ot_bridge_size,
                        latency=self.config.bridge_region_latency(),
                        tag="soc", name="tl2axi-window")

        self.xbar = TlulXbar(self.tl_map, self.config.tlul_timings())
        self.ibex: Hart = make_ibex(
            self.xbar,
            reset_pc=amap.ot_rom_base,
            external_irq=lambda: self.plic.irq_line,
            wake_cycles=self.config.wake_cycles,
        )

    def load_firmware(self, image: bytes, base: Optional[int] = None) -> None:
        """Load a firmware image into the boot ROM and point Ibex at it."""
        target = base if base is not None else self.addresses.ot_rom_base
        self.tl_map.write_bytes(target, image)
        self.ibex.pc = target

    def scratchpad_access_cycles(self) -> int:
        """Measured cost of one SRAM access through the current fabric."""
        return self.xbar.timings.access_cycles(4, 1)

    def soc_access_cycles(self) -> int:
        """Measured cost of one SoC access through the bridge window."""
        return self.xbar.timings.access_cycles(4, self.config.bridge_region_latency())
