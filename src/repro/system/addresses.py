"""The reference SoC's address map (one place, shared by every builder).

Host (AXI) side addresses follow the reference platform's layout; the
OpenTitan-internal map mirrors the real OpenTitan top-earlgrey bases
where practical.  Ibex reaches host-side devices through the TL2AXI
bridge window, so every host address has an Ibex-visible alias at
``OT_BRIDGE_BASE + (addr - HOST_WINDOW_BASE)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressMap:
    """Base addresses and sizes of every region in the system."""

    # ---- host (AXI) domain ----
    dram_base: int = 0x8000_0000
    dram_size: int = 0x0100_0000          # 16 MiB host scratchpad/DRAM
    cfi_mailbox_base: int = 0x9000_0000
    scmi_mailbox_base: int = 0x9001_0000
    host_plic_base: int = 0x9002_0000

    # ---- OpenTitan (TL-UL) domain ----
    ot_rom_base: int = 0x0000_8000
    ot_rom_size: int = 0x8000             # 32 KiB (firmware text)
    ot_sram_base: int = 0x1000_0000
    ot_sram_size: int = 0x2_0000          # 128 KiB private scratchpad (§III-B)
    ot_flash_base: int = 0x2000_0000
    ot_flash_size: int = 0x8_0000         # 512 KiB flash storage
    ot_hmac_base: int = 0x4111_0000
    ot_plic_base: int = 0x4801_0000
    ot_bridge_base: int = 0xC000_0000     # TL window onto the host domain
    ot_bridge_size: int = 0x2200_0000

    #: Window origin on the host side the bridge forwards to.
    host_window_base: int = 0x8000_0000

    def ibex_alias(self, host_address: int) -> int:
        """Ibex-visible alias of a host-domain address (via the bridge)."""
        offset = host_address - self.host_window_base
        if not 0 <= offset < self.ot_bridge_size:
            raise ValueError(
                f"host address {host_address:#x} outside the bridge window"
            )
        return self.ot_bridge_base + offset

    @property
    def cfi_mailbox_ibex(self) -> int:
        """CFI mailbox as seen by Ibex firmware."""
        return self.ibex_alias(self.cfi_mailbox_base)


#: The CFI mailbox interrupt source id on the RoT PLIC.
CFI_IRQ_SOURCE = 1
#: The SCMI mailbox interrupt source id on the RoT PLIC.
SCMI_IRQ_SOURCE = 2
