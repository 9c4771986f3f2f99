"""Shadow-stack CFI firmware generator (paper §IV-C, §V-B).

Generates RV32 assembly implementing the return-address-protection
policy in the RoT:

* parse the commit-log encoding to distinguish calls from returns
  (the same link-register rules as :mod:`repro.isa.cflow`),
* on a call, push the expected return address (the log's *next
  address*) onto a shadow stack in OpenTitan's private scratchpad,
* on a return, pop and compare against the log's *target*; mismatch →
  violation verdict,
* on overflow/underflow, spill/restore half the stack to SoC DRAM,
  authenticated with the HMAC accelerator (§VI, Zipper-stack-inspired).

``.region`` directives tag the image so the Table I harness can split
executed cycles into *IRQ* versus *CFI* work by program counter alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, check_int
from repro.isa.asm import Assembler, Program
from repro.system.addresses import AddressMap

#: PLIC enable bit for the CFI mailbox source (source id 1 → bit 1).
_PLIC_ENABLE_MASK = 0x2


@dataclass(frozen=True)
class FirmwareLayout:
    """Resolved addresses the firmware is generated against.

    Attributes:
        ss_capacity: shadow-stack capacity in entries (words).
        spill_entries: entries moved to DRAM per overflow spill.
        spill_slots: maximum resident spill blocks in DRAM.
    """

    addresses: AddressMap
    ss_capacity: int = 1024
    spill_entries: int = 512
    spill_slots: int = 8

    def __post_init__(self):
        check_int("ss_capacity", self.ss_capacity, 4)
        check_int("spill_entries", self.spill_entries, 1)
        check_int("spill_slots", self.spill_slots, 1)
        if self.spill_entries >= self.ss_capacity:
            raise ConfigError("spill_entries must be in (0, ss_capacity)")

    # ---- scratchpad cells ----
    @property
    def ss_ptr_cell(self) -> int:
        return self.addresses.ot_sram_base + 0x00

    @property
    def ss_count_cell(self) -> int:
        return self.addresses.ot_sram_base + 0x04

    @property
    def spill_count_cell(self) -> int:
        return self.addresses.ot_sram_base + 0x08

    @property
    def ss_base(self) -> int:
        return self.addresses.ot_sram_base + 0x100

    @property
    def ss_end(self) -> int:
        return self.ss_base + 4 * self.ss_capacity

    @property
    def irq_stack_top(self) -> int:
        return self.addresses.ot_sram_base + self.addresses.ot_sram_size - 0x10

    # ---- DRAM spill area (Ibex alias through the bridge) ----
    @property
    def spill_slot_bytes(self) -> int:
        return 4 * self.spill_entries + 32  # data + HMAC tag

    @property
    def spill_base(self) -> int:
        # Top megabyte of host DRAM, as seen through the bridge window.
        host = (self.addresses.dram_base + self.addresses.dram_size
                - self.spill_slots * self.spill_slot_bytes - 0x1000)
        return self.addresses.ibex_alias(host)

    # ---- mailbox registers (Ibex aliases) ----
    @property
    def mailbox(self) -> int:
        return self.addresses.cfi_mailbox_ibex


def shadow_stack_firmware(
    variant: str,
    layout: Optional[FirmwareLayout] = None,
) -> Program:
    """Assemble the shadow-stack firmware.

    Args:
        variant: ``"irq"`` or ``"polling"``.
        layout: address/geometry overrides.

    Returns:
        the assembled :class:`repro.isa.asm.Program` (load at the RoT
        boot ROM base; ``program.regions`` carries the IRQ/CFI tags).
    """
    if variant not in ("irq", "polling"):
        raise ConfigError(f"unknown firmware variant {variant!r}")
    lay = layout or FirmwareLayout(AddressMap())
    source = _generate(variant, lay)
    return Assembler(xlen=32).assemble(source, base=lay.addresses.ot_rom_base)


def _generate(variant: str, lay: FirmwareLayout) -> str:
    mb = lay.mailbox
    hmac = lay.addresses.ot_hmac_base
    plic = lay.addresses.ot_plic_base
    constants = f"""
# ---- generated shadow-stack CFI firmware ({variant} variant) ----
.equ MB_RESULT,    {mb:#x}
.equ MB_INSN,      {mb + 8:#x}
.equ MB_NEXT,      {mb + 12:#x}
.equ MB_TARGET,    {mb + 20:#x}
.equ MB_DOORBELL,  {mb + 32:#x}
.equ MB_COMPL,     {mb + 40:#x}
.equ MB_STATUS,    {mb + 48:#x}
.equ PLIC_CC,      {plic:#x}
.equ PLIC_EN,      {plic + 8:#x}
.equ HMAC_CMD,     {hmac:#x}
.equ HMAC_STATUS,  {hmac + 4:#x}
.equ HMAC_LEN,     {hmac + 8:#x}
.equ HMAC_KEY,     {hmac + 32:#x}
.equ HMAC_DIGEST,  {hmac + 64:#x}
.equ HMAC_MSG,     {hmac + 128:#x}
.equ SS_PTR_CELL,  {lay.ss_ptr_cell:#x}
.equ SS_COUNT,     {lay.ss_count_cell:#x}
.equ SPILL_COUNT,  {lay.spill_count_cell:#x}
.equ SS_BASE,      {lay.ss_base:#x}
.equ SS_END,       {lay.ss_end:#x}
.equ IRQ_SP,       {lay.irq_stack_top:#x}
.equ SPILL_BASE,   {lay.spill_base:#x}
.equ SPILL_BYTES,  {lay.spill_slot_bytes:#x}
.equ SPILL_WORDS,  {lay.spill_entries}
.equ SPILL_DATA,   {4 * lay.spill_entries:#x}
"""

    boot = f"""
.region boot
_start:
    li   sp, IRQ_SP
    li   t0, SS_BASE
    li   t1, SS_PTR_CELL
    sw   t0, 0(t1)             # ss ptr = base
    sw   zero, 4(t1)           # depth counter = 0
    sw   zero, 8(t1)           # spill counter = 0
    # Program the HMAC key (8 words of the device key).
    li   t0, HMAC_KEY
    li   t1, 0x5F0CC5E5
    sw   t1, 0(t0)
    sw   t1, 4(t0)
    sw   t1, 8(t0)
    sw   t1, 12(t0)
    sw   t1, 16(t0)
    sw   t1, 20(t0)
    sw   t1, 24(t0)
    sw   t1, 28(t0)
"""
    if variant == "irq":
        boot += """
    la   t0, isr
    csrw mtvec, t0
    li   t0, 0x800             # mie.MEIE
    csrw mie, t0
    li   t0, PLIC_EN
    li   t1, {enable}
    sw   t1, 0(t0)
    csrsi mstatus, 8           # global interrupt enable
idle:
    wfi
    j    idle
""".format(enable=_PLIC_ENABLE_MASK)
    else:
        boot += """
    # Polling variant: interrupts stay masked; busy-wait on the doorbell.
    j    poll_loop

.region poll
poll_loop:
    li   s0, MB_STATUS
poll_wait:
    lw   t0, 0(s0)
    andi t0, t0, 1
    beqz t0, poll_wait
    call cfi_check
    j    poll_wait
"""

    isr = """
.align 4
.region irq
isr:
    addi sp, sp, -24
    sw   t0, 0(sp)
    sw   t1, 4(sp)
    sw   t2, 8(sp)
    sw   a0, 12(sp)
    sw   a1, 16(sp)
    sw   a2, 20(sp)
    li   t0, PLIC_CC
    lw   t1, 0(t0)             # claim the interrupt
    li   t2, MB_STATUS
    lw   t2, 0(t2)             # confirm the doorbell source
    call cfi_check
    li   t0, PLIC_CC
    sw   t1, 0(t0)             # complete the interrupt
    li   t2, MB_STATUS
    lw   t2, 0(t2)             # coalesced-doorbell recheck
    lw   t0, 0(sp)
    lw   t1, 4(sp)
    lw   t2, 8(sp)
    lw   a0, 12(sp)
    lw   a1, 16(sp)
    lw   a2, 20(sp)
    addi sp, sp, 24
    mret
""" if variant == "irq" else ""

    check = """
# ---------------------------------------------------------------------------
# cfi_check: parse the commit log and enforce the shadow-stack policy.
# Clobbers a0-a7; returns via ra.  The verdict is written to MB_RESULT and
# the completion register is set (which also clears the doorbell).
# ---------------------------------------------------------------------------
.region cfi
cfi_check:
    li   a0, MB_RESULT
    lw   a1, 8(a0)             # uncompressed encoding        [SoC 1]
    andi a2, a1, 127           # major opcode
    li   a3, 0x6f              # JAL
    beq  a2, a3, parse_jal
    li   a3, 0x67              # JALR
    beq  a2, a3, parse_jalr
    j    respond_ok            # not a transfer we check

parse_jal:
    srli a2, a1, 7
    andi a2, a2, 31            # rd
    li   a3, 1                 # ra
    beq  a2, a3, do_call
    li   a3, 5                 # t0 (alternate link register)
    beq  a2, a3, do_call
    j    respond_ok            # jal x0: direct jump, no state

parse_jalr:
    srli a2, a1, 7
    andi a2, a2, 31            # rd
    li   a3, 1
    beq  a2, a3, do_call
    li   a3, 5
    beq  a2, a3, do_call
    bnez a2, respond_ok        # jalr rd∉{x0,link}: indirect jump
    srli a4, a1, 15
    andi a4, a4, 31            # rs1
    li   a3, 1
    beq  a4, a3, do_return
    li   a3, 5
    beq  a4, a3, do_return
    j    respond_ok            # jalr x0 from non-link: indirect jump

do_call:
    lw   a2, 12(a0)            # expected return address      [SoC 2]
    li   a4, SS_PTR_CELL
    lw   a5, 0(a4)             # shadow-stack pointer         [RoT 1]
    li   a3, SS_END
    bgeu a5, a3, ss_overflow
push_entry:
    sw   a2, 0(a5)             # push                          [RoT 2]
    addi a5, a5, 4
    sw   a5, 0(a4)             # pointer writeback             [RoT 3]
    lw   a3, 4(a4)             # depth counter                 [RoT 4]
    addi a3, a3, 1
    sw   a3, 4(a4)             #                               [RoT 5]
    j    respond_ok

do_return:
    lw   a2, 20(a0)            # actual return target         [SoC 2]
    li   a4, SS_PTR_CELL
    lw   a5, 0(a4)             # shadow-stack pointer         [RoT 1]
    li   a3, SS_BASE
    bgeu a3, a5, ss_underflow
pop_entry:
    addi a5, a5, -4
    lw   a6, 0(a5)             # pop                           [RoT 2]
    sw   a5, 0(a4)             # pointer writeback             [RoT 3]
    lw   a3, 4(a4)             # depth counter                 [RoT 4]
    addi a3, a3, -1
    sw   a3, 4(a4)             #                               [RoT 5]
    bne  a6, a2, respond_bad   # return-address mismatch
    j    respond_ok

respond_ok:
    sw   zero, 0(a0)           # verdict = OK                  [SoC 3]
    li   a2, 1
    sw   a2, 40(a0)            # completion (clears doorbell)  [SoC 4]
    ret

respond_bad:
    li   a2, 1
    sw   a2, 0(a0)             # verdict = VIOLATION           [SoC 3]
    sw   a2, 40(a0)            # completion                    [SoC 4]
    ret
"""

    spill = """
# ---------------------------------------------------------------------------
# Overflow: authenticate the oldest SPILL_WORDS entries with the HMAC
# accelerator, copy them (and the tag) to the DRAM spill area, slide the
# survivors down, then retry the push.  (§VI: "exploits the available
# cryptographic accelerators to ensure authenticity of CFI metadata".)
# ---------------------------------------------------------------------------
.region spill
ss_overflow:
    addi sp, sp, -4            # cfi_check was entered via call: keep ra
    sw   ra, 0(sp)
    call ss_spill
    lw   ra, 0(sp)
    addi sp, sp, 4
    li   a4, SS_PTR_CELL
    lw   a5, 0(a4)
    j    push_entry

ss_spill:
    # Stream the oldest SPILL_WORDS words into the HMAC engine.
    li   a6, SPILL_DATA
    li   a7, HMAC_LEN
    sw   a6, 0(a7)
    li   a6, SS_BASE
    li   a7, SS_BASE
    li   t3, SPILL_DATA
    add  t3, t3, a6            # end of spill region
    li   t4, HMAC_MSG
spill_mac_loop:
    lw   t5, 0(a6)
    sw   t5, 0(t4)
    addi a6, a6, 4
    bltu a6, t3, spill_mac_loop
    li   t4, HMAC_CMD
    li   t5, 2                 # CMD_HMAC
    sw   t5, 0(t4)
spill_mac_wait:
    li   t4, HMAC_STATUS
    lw   t5, 0(t4)
    beqz t5, spill_mac_wait
    # Destination slot: SPILL_BASE + spill_count * SPILL_BYTES.
    li   t4, SPILL_COUNT
    lw   t5, 0(t4)
    li   t6, SPILL_BYTES
    mul  t6, t6, t5
    li   a6, SPILL_BASE
    add  t6, t6, a6            # slot address
    addi t5, t5, 1
    sw   t5, 0(t4)             # spill_count++
    # Copy the data words out to DRAM.
    li   a6, SS_BASE
spill_copy_loop:
    lw   t5, 0(a6)
    sw   t5, 0(t6)
    addi a6, a6, 4
    addi t6, t6, 4
    bltu a6, t3, spill_copy_loop
    # Append the 8-word tag.
    li   a6, HMAC_DIGEST
    addi t3, a6, 32
spill_tag_loop:
    lw   t5, 0(a6)
    sw   t5, 0(t6)
    addi a6, a6, 4
    addi t6, t6, 4
    bltu a6, t3, spill_tag_loop
    # Slide survivors down: [SS_BASE+SPILL_DATA, ptr) -> [SS_BASE, ...).
    li   a6, SS_BASE
    li   t3, SPILL_DATA
    add  t3, t3, a6            # src cursor
    li   t4, SS_PTR_CELL
    lw   t5, 0(t4)             # old ptr (== SS_END)
spill_slide_loop:
    bgeu t3, t5, spill_slide_done
    lw   t6, 0(t3)
    sw   t6, 0(a6)
    addi t3, t3, 4
    addi a6, a6, 4
    j    spill_slide_loop
spill_slide_done:
    sw   a6, 0(t4)             # new ptr
    ret

# ---------------------------------------------------------------------------
# Underflow: restore the most recent spill block (verify its tag first).
# A bad tag or an empty spill area is a violation.
# ---------------------------------------------------------------------------
ss_underflow:
    li   t4, SPILL_COUNT
    lw   t5, 0(t4)
    beqz t5, respond_bad       # nothing to restore: unmatched return
    addi sp, sp, -4            # keep cfi_check's return address
    sw   ra, 0(sp)
    call ss_restore
    lw   ra, 0(sp)
    addi sp, sp, 4
    bnez a7, respond_bad       # tag mismatch: tampered spill block
    li   a4, SS_PTR_CELL
    lw   a5, 0(a4)
    j    pop_entry

ss_restore:
    # Source slot: SPILL_BASE + (spill_count - 1) * SPILL_BYTES.
    li   t4, SPILL_COUNT
    lw   t5, 0(t4)
    addi t5, t5, -1
    sw   t5, 0(t4)             # spill_count--
    li   t6, SPILL_BYTES
    mul  t6, t6, t5
    li   a6, SPILL_BASE
    add  t6, t6, a6            # slot address
    # Copy data into the (empty) resident stack and re-MAC it.
    li   a6, SPILL_DATA
    li   a7, HMAC_LEN
    sw   a6, 0(a7)
    li   a6, SS_BASE
    li   t3, SPILL_DATA
    add  t3, t3, a6
    li   t4, HMAC_MSG
restore_copy_loop:
    lw   t5, 0(t6)
    sw   t5, 0(a6)             # into the resident stack
    sw   t5, 0(t4)             # and into the MAC engine
    addi a6, a6, 4
    addi t6, t6, 4
    bltu a6, t3, restore_copy_loop
    li   t4, HMAC_CMD
    li   t5, 2
    sw   t5, 0(t4)
restore_mac_wait:
    li   t4, HMAC_STATUS
    lw   t5, 0(t4)
    beqz t5, restore_mac_wait
    # Compare the stored tag (t6 points at it) against the fresh digest.
    li   a6, HMAC_DIGEST
    addi t3, a6, 32
    li   a7, 0                 # mismatch accumulator
restore_cmp_loop:
    lw   t5, 0(a6)
    lw   t4, 0(t6)
    xor  t5, t5, t4
    or   a7, a7, t5
    addi a6, a6, 4
    addi t6, t6, 4
    bltu a6, t3, restore_cmp_loop
    # Resident stack now holds SPILL_WORDS entries.
    li   t4, SS_PTR_CELL
    li   t5, SS_BASE
    li   t6, SPILL_DATA
    add  t5, t5, t6
    sw   t5, 0(t4)
    ret
"""

    return constants + boot + isr + check + spill
