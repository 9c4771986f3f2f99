"""The RISC-V hart execution engine.

One :class:`Hart` instance models one core.  Execution is functional
(architectural state only) with cycle accounting delegated to a
:class:`repro.hart.timing.TimingModel`; memory goes through a
:class:`repro.hart.ports.BusPort`.  Machine-mode traps, external
interrupts and WFI sleep are implemented because the TitanCFI firmware
protocol depends on them (doorbell interrupt → ISR → mret → sleep).

Every :meth:`Hart.step` returns a :class:`StepResult` describing the
retired instruction — pc, encoding, fall-through and actual next pc —
which is exactly the scoreboard information the CVA6 commit stage hands
to the CFI filter (paper §IV-B1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    AccessFault, ConfigError, DecodeError, SimulationError, TrapError,
)
from repro.hart.ports import BusPort
from repro.hart.state import CsrFile, RegisterFile
from repro.hart.timing import TimingModel
from repro.isa import opcodes as op
from repro.isa.decode import Instruction, decode
from repro.isa.registers import LINK_REGS
from repro.mem.map import PAGE_BITS
from repro.utils.bits import mask, sext

#: Mnemonics :meth:`Hart.run_n` always stops *before*: they halt or
#: trap, so the per-cycle scheduler must observe them.  (``wfi`` gets
#: its own action: in a window it can retire in-batch — going to sleep
#: has no cross-component effect — ending the window after it.)
_BATCH_STOP = frozenset({"ecall", "ebreak"})

#: Store/load mnemonic → access size, for the batch loop's memory-window
#: checks (MMIO stores are cross-component events; see :meth:`Hart.run_n`).
_STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
_LOAD_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2,
               "lw": 4, "lwu": 4, "ld": 8}

_CSR_MNEMONICS = frozenset({"csrrw", "csrrs", "csrrc",
                            "csrrwi", "csrrsi", "csrrci"})

_BRANCH_MNEMONICS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})

#: Batch action codes, precomputed per decoded pc (see _fetch_decode):
#: how :meth:`Hart.run_n` must treat the instruction without any
#: per-retire classification work.
_ACT_PLAIN = 0      # no interaction possible
_ACT_STOP = 1       # always stop before (wfi/ecall/ebreak/unimplemented)
_ACT_CFI = 2        # CFI-selected transfer (jalr, jal to a link register)
_ACT_MRET = 4       # trap return: stoppable, else execute + irq recheck
_ACT_CSR_IRQ = 5    # CSR write that can gate interrupts (mstatus/mie)
_ACT_WFI = 6        # retire-then-sleep: executable as a window's last insn
_ACT_STORE = 16     # 16 + access size (low 4 bits)
_ACT_LOAD = 32      # 32 + access size (low 4 bits)
_ACT_SIGNED = 64    # OR'd onto loads that sign-extend

#: CSRs whose value gates the external-interrupt predicate.
_IRQ_CSRS = frozenset({op.CSR_MSTATUS, op.CSR_MIE})


def _batch_action(insn: Instruction, handler) -> int:
    """Classify one decoded instruction for the batch loop (fill time)."""
    if handler is None:
        return _ACT_STOP
    m = insn.mnemonic
    if m in _BATCH_STOP:
        return _ACT_STOP
    if m == "wfi":
        return _ACT_WFI
    if m == "jalr":
        return _ACT_CFI
    if m == "jal":
        return _ACT_CFI if insn.rd in LINK_REGS else _ACT_PLAIN
    if m == "mret":
        return _ACT_MRET
    if m in _CSR_MNEMONICS:
        # Only a *write* to an interrupt-gating CSR can change the
        # pending predicate; pure reads (rs1/imm = 0) and writes to
        # other CSRs are plain.  The CSR index is encoding-static, so
        # this is decidable at decode-cache fill time.
        writes = (
            m in ("csrrw", "csrrwi")
            or (m in ("csrrs", "csrrc") and bool(insn.rs1))
            or (m in ("csrrsi", "csrrci") and bool(insn.imm))
        )
        if writes and insn.csr in _IRQ_CSRS:
            return _ACT_CSR_IRQ
        return _ACT_PLAIN
    size = _STORE_SIZES.get(m)
    if size is not None:
        return _ACT_STORE + size
    size = _LOAD_SIZES.get(m)
    if size is not None:
        action = _ACT_LOAD + size
        if m in ("lb", "lh", "lw", "ld"):
            action |= _ACT_SIGNED
        return action
    return _ACT_PLAIN


class StepEvent(enum.Enum):
    """What happened during one step."""

    RETIRED = "retired"            # a normal instruction retired
    INTERRUPT = "interrupt"        # trap entry for an external interrupt
    TRAP = "trap"                  # synchronous trap entry
    MRET = "mret"                  # return from trap
    WFI_SLEEP = "wfi-sleep"        # wfi retired, hart went to sleep
    SLEEPING = "sleeping"          # hart idle, nothing pending
    WAKE = "wake"                  # wake event consumed (wake_cycles)
    HALT = "halt"                  # ecall/ebreak with no handler


@dataclass(slots=True)
class StepResult:
    """Outcome of one :meth:`Hart.step`.

    Treated as immutable by convention; declared with ``slots`` rather
    than ``frozen`` because one StepResult is allocated per simulated
    instruction and the frozen ``__setattr__`` path dominates
    allocation cost on the hot loop.

    Attributes:
        event: what happened.
        pc: pc of the retired instruction (or the sleeping/trap pc).
        insn: the retired instruction, or ``None`` for non-retiring steps.
        fall_through: ``pc + 4`` (the commit log's *next
            address* field), or ``pc`` for non-retiring steps.
        next_pc: architecturally next pc (branch/jump target if taken).
        taken: for branches/jumps, whether control transferred.
        cycles: cycles charged to this step.
        mem_address: effective address for loads/stores, else ``None``.
    """

    event: StepEvent
    pc: int
    insn: Optional[Instruction]
    fall_through: int
    next_pc: int
    taken: bool
    cycles: int
    mem_address: Optional[int] = None


class Hart:
    """A single RISC-V hart.

    Args:
        bus: load/store/fetch port.
        timing: per-instruction cycle model.
        xlen: 32 or 64.
        reset_pc: initial program counter.
        external_irq: level callback for the external interrupt line
            (typically ``plic.irq_line``); ``None`` means tied low.
        name: diagnostic name.
        hartid: value of the ``mhartid`` CSR.
    """

    def __init__(
        self,
        bus: BusPort,
        timing: TimingModel,
        xlen: int = 32,
        reset_pc: int = 0,
        external_irq: Optional[Callable[[], bool]] = None,
        name: str = "hart",
        hartid: int = 0,
    ):
        if type(xlen) is not int or xlen not in (32, 64):
            raise ConfigError(f"xlen must be 32 or 64, got {xlen!r}")
        self.bus = bus
        self.timing = timing
        self.xlen = xlen
        self.name = name
        self.pc = reset_pc & mask(xlen)
        self.regs = RegisterFile(xlen)
        self.csrs = CsrFile(xlen, hartid=hartid)
        self.csrs.bind_hart(self)
        # An unwired interrupt line can never pend; skipping the CSR
        # poll on every step matters for the host core's hot loop.  The
        # property setter keeps the fast-path flag coherent when a line
        # is wired after construction.
        self._irq_wired = external_irq is not None
        self._external_irq = external_irq or (lambda: False)
        self.cycle = 0
        self.instret = 0
        self.sleeping = False
        self.halted = False
        self._mask = mask(xlen)
        # Per-pc decoded-instruction cache:
        #   pc -> (insn, exec handler, batch action, fixed cycle cost).
        # A hit skips the bus fetch and the decode entirely; the batch
        # action and cost are precomputed so the batched retire loop
        # (run_n) does zero per-instruction classification.  Entries are
        # flushed when a store lands in any page code was fetched from
        # (see _note_store) or on fence.i.
        self._pc_cache: Dict[int, Tuple] = {}
        # Mnemonic -> cycle cost for costs with no runtime dependence
        # (absent for branches and memory ops).
        self._fixed_cycles: Dict[str, int] = timing._fixed
        self._code_pages: set = set()
        # The fabric-wide store hook sees every master's writes to the
        # pages this hart declares in the returned memory map's
        # code-page count, its own stores included.
        self._store_map = bus.on_store(self._note_store)
        # Stable hot-loop context, hoisted once: run_n unpacks this
        # single tuple instead of chasing ~10 attribute chains per
        # window (windows can be a handful of instructions long, so
        # prologue cost is measurable).  Every element is fixed for the
        # hart's lifetime; the pc cache is cleared *in place* so the
        # dict object itself is stable.
        self._batch_ctx = (
            self.regs.raw,
            self.csrs,
            self._pc_cache,
            self.bus.read,
            self.bus.write,
            timing._mem_extra,
            self._mask,
        )

    # -- helpers -----------------------------------------------------------------

    @property
    def external_irq(self) -> Callable[[], bool]:
        """Level callback for the external interrupt line."""
        return self._external_irq

    @external_irq.setter
    def external_irq(self, callback: Optional[Callable[[], bool]]) -> None:
        self._external_irq = callback or (lambda: False)
        self._irq_wired = callback is not None

    def _sx(self, value: int) -> int:
        """Value of a register interpreted as signed XLEN-bit."""
        return sext(value, self.xlen)

    def _note_store(self, address: int, size: int) -> None:
        """Store-hook: flush the pc cache when a write hits cached code.

        Bulk loads (``write_bytes``) can span many pages, so every page
        the write touches is checked — an interior cached page must
        invalidate just like the endpoints.
        """
        pages = self._code_pages
        if not pages:
            return
        first = address >> PAGE_BITS
        last = (address + size - 1) >> PAGE_BITS
        # Iterate the (tiny) cached-page set, not the written span — a
        # bulk DRAM-image write can cover thousands of pages.
        if first in pages or (
            last != first and any(first < page <= last for page in pages)
        ):
            self.flush_fetch_cache()

    def flush_fetch_cache(self) -> None:
        """Drop every cached (pc → decoded instruction) entry, and this
        hart's hold on their pages in the fabric's code-page count."""
        self._pc_cache.clear()
        self._store_map.drop_code_pages(self._code_pages)
        self._code_pages.clear()

    def _hold_code_page(self, page: int) -> None:
        self._code_pages.add(page)
        self._store_map.hold_code_page(page)

    def _fetch_decode(self, pc: int) -> Tuple:
        """Fetch+decode miss handler; populates the pc cache."""
        word, _ = self.bus.fetch(pc, 4)
        insn = decode(word, xlen=self.xlen)
        handler = _EXEC_TABLE.get(insn.mnemonic)
        cost = self._fixed_cycles.get(insn.mnemonic)
        if cost is None and insn.mnemonic in _BRANCH_MNEMONICS:
            # Branches store the (untaken, taken) pair; the batch loop
            # indexes it with the taken flag instead of calling the
            # timing model.
            cost = self.timing._branch
        entry = (
            insn,
            handler,
            _batch_action(insn, handler),
            cost,
        )
        self._pc_cache[pc] = entry
        pages = self._code_pages
        first = pc >> PAGE_BITS
        if first not in pages:
            self._hold_code_page(first)
        last = (pc + 3) >> PAGE_BITS
        if last not in pages:
            self._hold_code_page(last)
        return entry

    def _interrupt_pending(self) -> bool:
        mie = self.csrs.read(op.CSR_MIE)
        return bool(mie & op.MIE_MEIE) and self._external_irq()

    @property
    def interrupt_pending(self) -> bool:
        """Level of the (enabled) external interrupt into this hart."""
        return self._interrupt_pending()

    def sleep_for(self, cycles: int) -> None:
        """Account ``cycles`` of WFI sleep in one jump.

        Equivalent to ``cycles`` consecutive :meth:`step` calls while
        :attr:`sleeping` with no interrupt pending — used by the
        co-simulator's clock skipping to jump idle stretches without
        perturbing the cycle counter.
        """
        self.cycle += cycles

    # -- trap entry/exit ------------------------------------------------------------

    def _enter_trap(self, cause: int, interrupt: bool, tval: int = 0) -> StepResult:
        handler = self.csrs.enter_trap(self.pc, cause, interrupt, tval)
        if handler == 0:
            # No trap vector installed: treat as a halt so victim programs
            # and tests don't spin at address zero.
            self.halted = True
            self.cycle += 1
            return StepResult(
                event=StepEvent.HALT,
                pc=self.pc,
                insn=None,
                fall_through=self.pc,
                next_pc=self.pc,
                taken=False,
                cycles=1,
            )
        previous_pc = self.pc
        self.pc = handler
        cycles = self.timing.trap_entry_cycles
        self.cycle += cycles
        return StepResult(
            event=StepEvent.INTERRUPT if interrupt else StepEvent.TRAP,
            pc=previous_pc,
            insn=None,
            fall_through=previous_pc,
            next_pc=handler,
            taken=True,
            cycles=cycles,
        )

    # -- main step -------------------------------------------------------------------

    def step(self) -> StepResult:
        """Advance the hart by one instruction (or one idle/wake event)."""
        if self.halted:
            raise SimulationError(f"{self.name}: step() after halt")

        if self.sleeping:
            if self._interrupt_pending():
                self.sleeping = False
                cycles = self.timing.wake_cycles
                self.cycle += cycles
                return StepResult(
                    event=StepEvent.WAKE,
                    pc=self.pc,
                    insn=None,
                    fall_through=self.pc,
                    next_pc=self.pc,
                    taken=False,
                    cycles=cycles,
                )
            self.cycle += 1
            return StepResult(
                event=StepEvent.SLEEPING,
                pc=self.pc,
                insn=None,
                fall_through=self.pc,
                next_pc=self.pc,
                taken=False,
                cycles=1,
            )

        if self._irq_wired and self.csrs.mie_enabled and self._interrupt_pending():
            return self._enter_trap(op.CAUSE_MACHINE_EXTERNAL_IRQ, interrupt=True)

        pc = self.pc
        entry = self._pc_cache.get(pc)
        if entry is None:
            try:
                entry = self._fetch_decode(pc)
            except DecodeError as exc:
                exc.pc = pc
                return self._enter_trap(op.CAUSE_ILLEGAL_INSTRUCTION, False, tval=exc.word)
            except AccessFault:
                return self._enter_trap(op.CAUSE_FETCH_ACCESS, False, tval=pc)
        insn, handler = entry[0], entry[1]

        fall_through = (pc + 4) & self._mask
        try:
            if handler is None:
                raise TrapError(
                    op.CAUSE_ILLEGAL_INSTRUCTION, pc, f"unimplemented {insn.mnemonic}"
                )
            outcome = handler(self, insn, pc, fall_through)
        except TrapError as exc:
            return self._enter_trap(exc.cause, False, tval=exc.tval)
        except AccessFault as exc:
            cause = op.CAUSE_STORE_ACCESS if exc.access == "write" else op.CAUSE_LOAD_ACCESS
            return self._enter_trap(cause, False, tval=exc.address)

        event, next_pc, taken, mem_cycles, mem_address = outcome
        if event is StepEvent.HALT:
            self.halted = True
            self.cycle += 1
            return StepResult(
                event=event, pc=pc, insn=insn, fall_through=fall_through,
                next_pc=pc, taken=False, cycles=1, mem_address=None,
            )

        cycles = self.timing.cycles_for(insn, taken, mem_cycles)
        self.pc = next_pc
        self.cycle += cycles
        self.instret += 1
        if event is StepEvent.WFI_SLEEP:
            self.sleeping = True
        return StepResult(
            event=event,
            pc=pc,
            insn=insn,
            fall_through=fall_through,
            next_pc=next_pc,
            taken=taken,
            cycles=cycles,
            mem_address=mem_address,
        )

    # -- batch running ------------------------------------------------------------------

    def run_n(
        self,
        budget: int,
        window_lo: int,
        window_hi: int,
        stop_before_cfi: bool = False,
        max_insns: int = 0,
        terminate_on_store: bool = False,
    ) -> Tuple[int, int, int]:
        """Retire whole instructions in a tight loop (the batched fast path).

        Executes *plain* instructions — ones that provably cannot
        interact with any other component — without allocating a
        :class:`StepResult` per retire or returning to the caller, and
        stops **before** the first boundary instruction so the caller's
        per-cycle :meth:`step` path replays it with full semantics on
        the exact cycle the busy loop would have.  Boundary conditions:

        * ``wfi`` / ``ecall`` / ``ebreak`` / unimplemented opcodes (they
          change the hart's run state or trap);
        * with ``stop_before_cfi``, anything the TitanCFI filter selects
          (``jalr``, ``jal`` to a link register — see
          :func:`repro.isa.cflow.classify`) plus ``mret``, so the CFI
          commit path stays on the cycle-exact scheduler;
        * stores outside ``[window_lo, window_hi)`` — MMIO writes are
          cross-component events (doorbells, verdicts).  Loads are not
          confined: the rest of the platform is provably frozen for the
          window, so a batched MMIO read returns exactly the busy-loop
          value at the same cycle because every modelled device read is
          side-effect free;
        * a pending (enabled) external interrupt — re-evaluated exactly
          where :meth:`step` could first observe a change (window entry
          and after ``mret``/store instructions and writes to
          ``mstatus``/``mie``, the only in-window ops able to affect
          the interrupt predicate);
        * any fetch/decode/execute fault.  Faults are re-raised by the
          caller's :meth:`step` replay; the handlers are written so a
          faulting attempt mutates nothing (loads/stores fault before
          the register/memory update, the pc-cache flush in
          :meth:`_note_store` is idempotent).

        ``self.cycle`` and ``instret`` advance per retired instruction
        (``mcycle``/``minstret`` reads inside the window stay exact);
        self-modifying code keeps working because every iteration
        re-reads the pc cache the store hook invalidates.

        Args:
            budget: issue instructions only while the cycles spent so
                far stay below this bound.  The *last* instruction may
                overshoot; the caller absorbs the excess as cycle debt.
            window_lo: first address stores may target without ending
                the window.
            window_hi: one past the last window-safe address.
            stop_before_cfi: also stop before CFI-relevant instructions
                (host commit-stage mode).
            max_insns: optional retire-count bound (0 = unbounded).
            terminate_on_store: instead of stopping *before* an
                out-of-window store, execute it as the window's final
                instruction and report its cost, letting the caller
                replay the rest of that cycle (the log writer's
                same-cycle reaction) in order.  Only sound when every
                other component is provably inactive through the
                store's retire cycle.

        Returns:
            ``(retired, cycles_spent, terminator_cost)``;
            ``terminator_cost`` is non-zero only when
            ``terminate_on_store`` ended the window, and is the cycle
            cost of that final store (its retire cycle is
            ``cycles_spent - terminator_cost + 1``).  ``(0, 0, 0)``
            means the very next instruction is a boundary and the
            caller must fall back to one normal step.
        """
        if self.halted:
            raise SimulationError(f"{self.name}: run_n() after halt")
        if self.sleeping:
            return 0, 0, 0
        (raw_regs, csrs, cache, bus_read, bus_write, mem_extra,
         mask_) = self._batch_ctx
        irq_wired = self._irq_wired
        need_irq_check = irq_wired
        pc = self.pc
        retired = 0
        spent = 0
        terminating = False
        limit = max_insns if max_insns > 0 else -1
        while spent < budget and retired != limit:
            if need_irq_check:
                if csrs.mie_enabled and self._interrupt_pending():
                    break
                need_irq_check = False
            try:
                entry = cache[pc]
            except KeyError:
                try:
                    entry = self._fetch_decode(pc)
                except (DecodeError, AccessFault):
                    break
            insn, handler, action, cost = entry
            if action:
                if action >= _ACT_STORE:
                    # -- memory op, fully inlined (the action encodes
                    #    direction, size and signedness, so no handler
                    #    dispatch or outcome tuple is needed) ---------
                    address = (raw_regs[insn.rs1] + insn.imm) & mask_
                    size = action & 15
                    if action >= _ACT_LOAD:
                        try:
                            value, mem_cycles = bus_read(address, size)
                        except (TrapError, AccessFault):
                            break
                        if action >= _ACT_SIGNED:
                            sign_bit = 1 << ((size << 3) - 1)
                            if value >= sign_bit:
                                value = (value - (sign_bit << 1)) & mask_
                        rd = insn.rd
                        if rd:
                            raw_regs[rd] = value
                        is_load = True
                    else:
                        if (address < window_lo
                                or address + size > window_hi):
                            if not terminate_on_store:
                                break
                            terminating = True
                        try:
                            mem_cycles = bus_write(
                                address, size,
                                raw_regs[insn.rs2] & ((1 << (size << 3)) - 1),
                            )
                        except (TrapError, AccessFault):
                            break
                        is_load = False
                    cost = mem_extra[is_load] + mem_cycles
                    if cost < 1 and mem_extra[2]:
                        cost = 1
                    pc = (pc + 4) & mask_
                    self.cycle += cost
                    self.instret += 1
                    spent += cost
                    retired += 1
                    if terminating:
                        self.pc = pc
                        return retired, spent, cost
                    if not is_load and irq_wired:
                        need_irq_check = True
                    continue
                if action == _ACT_STOP:
                    break
                if action == _ACT_WFI:
                    if stop_before_cfi:
                        break
                    # Retire the wfi in-window (same accounting as
                    # step(): one fixed-cost retire, then sleep) and
                    # end the window — the hart cannot fetch further.
                    pc = (pc + 4) & mask_
                    self.cycle += cost
                    self.instret += 1
                    spent += cost
                    retired += 1
                    self.sleeping = True
                    break
                if action == _ACT_CFI:
                    if stop_before_cfi:
                        break
                elif action == _ACT_MRET:
                    if stop_before_cfi:
                        break
                    need_irq_check = irq_wired
                else:  # _ACT_CSR_IRQ
                    need_irq_check = irq_wired
            fall_through = (pc + 4) & mask_
            try:
                outcome = handler(self, insn, pc, fall_through)
            except (TrapError, AccessFault):
                break
            _event, next_pc, taken, _mem_cycles, _mem_address = outcome
            if type(cost) is tuple:
                cost = cost[taken]
            pc = next_pc
            self.cycle += cost
            self.instret += 1
            spent += cost
            retired += 1
        self.pc = pc
        return retired, spent, 0

    def run(
        self,
        max_steps: int = 1_000_000,
        until: Optional[Callable[[StepResult], bool]] = None,
        collect: bool = False,
    ) -> List[StepResult]:
        """Step until halt, ``until`` returns True, or ``max_steps``.

        Args:
            max_steps: hard step bound (guards infinite loops in tests).
            until: optional stop predicate evaluated on each result.
            collect: when True, every StepResult is returned (memory-heavy
                for long runs; default returns only the last).

        Returns:
            the collected results (or a one-element list of the last).
        """
        results: List[StepResult] = []
        last: Optional[StepResult] = None
        for _ in range(max_steps):
            if self.halted:
                break
            last = self.step()
            if collect:
                results.append(last)
            if last.event is StepEvent.HALT:
                break
            if until is not None and until(last):
                break
        else:
            raise SimulationError(f"{self.name}: run() exceeded {max_steps} steps")
        if not collect and last is not None:
            results.append(last)
        return results


# ------------------------------------------------------------------------------
# Execution table.  Handlers return (event, next_pc, taken, mem_cycles, mem_addr).
# ------------------------------------------------------------------------------

def _alu_op(compute):
    def run(hart: Hart, insn: Instruction, pc: int, fall_through: int):
        # Inlined RegisterFile.write (x0 drop + mask): one call saved
        # per ALU retire, the single hottest operation in the batch loop.
        if insn.rd:
            hart.regs.raw[insn.rd] = compute(hart, insn) & hart._mask
        return (StepEvent.RETIRED, fall_through, False, 0, None)

    return run


def _make_exec_table():
    table = {}

    # The hottest integer ops get hand-written handlers (no inner
    # compute-lambda call): the batched retire loop executes these tens
    # of thousands of times per co-sim, so one call per retire matters.
    def addi(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] + i.imm) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def add(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] + h.regs.raw[i.rs2]) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def sub(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] - h.regs.raw[i.rs2]) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def and_(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = h.regs.raw[i.rs1] & h.regs.raw[i.rs2]
        return (StepEvent.RETIRED, ft, False, 0, None)

    def or_(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = h.regs.raw[i.rs1] | h.regs.raw[i.rs2]
        return (StepEvent.RETIRED, ft, False, 0, None)

    def xor_(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = h.regs.raw[i.rs1] ^ h.regs.raw[i.rs2]
        return (StepEvent.RETIRED, ft, False, 0, None)

    def andi(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] & i.imm) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def ori(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] | i.imm) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def xori(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] ^ i.imm) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def slli(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (h.regs.raw[i.rs1] << i.imm) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    def srli(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = h.regs.raw[i.rs1] >> i.imm
        return (StepEvent.RETIRED, ft, False, 0, None)

    def sltu(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = int(h.regs.raw[i.rs1] < h.regs.raw[i.rs2])
        return (StepEvent.RETIRED, ft, False, 0, None)

    def lui(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (i.imm << 12) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    table["addi"] = addi
    table["add"] = add
    table["sub"] = sub
    table["and"] = and_
    table["or"] = or_
    table["xor"] = xor_
    table["andi"] = andi
    table["ori"] = ori
    table["xori"] = xori
    table["slli"] = slli
    table["srli"] = srli
    table["sltu"] = sltu

    # -- U-type ---------------------------------------------------------------
    table["lui"] = lui

    def auipc(h, i, pc, ft):
        if i.rd:
            h.regs.raw[i.rd] = (pc + (i.imm << 12)) & h._mask
        return (StepEvent.RETIRED, ft, False, 0, None)

    table["auipc"] = auipc

    # -- jumps ------------------------------------------------------------------
    # Every instruction is 4 bytes (no C extension), so a transfer to a
    # target that is not 4-byte aligned raises instruction-address-
    # misaligned on the jump itself (mepc = the jump, mtval = the
    # target), before ``rd`` is written: run_n relies on a faulting
    # handler changing nothing before step() replays it.
    def jal(h, i, pc, ft):
        target = (pc + i.imm) & h._mask
        if target & 3:
            raise TrapError(op.CAUSE_MISALIGNED_FETCH, pc, tval=target)
        if i.rd:
            h.regs.raw[i.rd] = ft
        return (StepEvent.RETIRED, target, True, 0, None)

    def jalr(h, i, pc, ft):
        # rs1 is read before rd is written (jalr ra, ra semantics).
        target = (h.regs.raw[i.rs1] + i.imm) & h._mask & ~1
        if target & 3:
            raise TrapError(op.CAUSE_MISALIGNED_FETCH, pc, tval=target)
        if i.rd:
            h.regs.raw[i.rd] = ft
        return (StepEvent.RETIRED, target, True, 0, None)

    table["jal"] = jal
    table["jalr"] = jalr

    # -- branches (direct handlers — no condition-lambda call) -------------------
    def branch_to(pc, target):
        # A taken branch's target alignment check (an untaken branch
        # never traps, whatever its offset).
        if target & 3:
            raise TrapError(op.CAUSE_MISALIGNED_FETCH, pc, tval=target)
        return (StepEvent.RETIRED, target, True, 0, None)

    def beq(h, i, pc, ft):
        if h.regs.raw[i.rs1] == h.regs.raw[i.rs2]:
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    def bne(h, i, pc, ft):
        if h.regs.raw[i.rs1] != h.regs.raw[i.rs2]:
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    def blt(h, i, pc, ft):
        if h._sx(h.regs.raw[i.rs1]) < h._sx(h.regs.raw[i.rs2]):
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    def bge(h, i, pc, ft):
        if h._sx(h.regs.raw[i.rs1]) >= h._sx(h.regs.raw[i.rs2]):
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    def bltu(h, i, pc, ft):
        if h.regs.raw[i.rs1] < h.regs.raw[i.rs2]:
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    def bgeu(h, i, pc, ft):
        if h.regs.raw[i.rs1] >= h.regs.raw[i.rs2]:
            return branch_to(pc, (pc + i.imm) & h._mask)
        return (StepEvent.RETIRED, ft, False, 0, None)

    table["beq"] = beq
    table["bne"] = bne
    table["blt"] = blt
    table["bge"] = bge
    table["bltu"] = bltu
    table["bgeu"] = bgeu

    # -- loads ---------------------------------------------------------------------
    def load(size, signed):
        # Sign extension inlined arithmetically ((v ^ s) - s on the
        # unsigned bus value): a sext() call per load is measurable.
        sign_bit = 1 << (size * 8 - 1)

        def run(h, i, pc, ft):
            # Bus access inlined (no _load hop): one load per simulated
            # memory instruction makes the extra frame measurable.
            address = (h.regs.raw[i.rs1] + i.imm) & h._mask
            value, cycles = h.bus.read(address, size)
            if signed and value >= sign_bit:
                value = (value - (sign_bit << 1)) & h._mask
            if i.rd:
                h.regs.raw[i.rd] = value
            return (StepEvent.RETIRED, ft, False, cycles, address)

        return run

    table["lb"] = load(1, True)
    table["lh"] = load(2, True)
    table["lw"] = load(4, True)
    table["ld"] = load(8, True)
    table["lbu"] = load(1, False)
    table["lhu"] = load(2, False)
    table["lwu"] = load(4, False)

    # -- stores -----------------------------------------------------------------------
    def store(size):
        value_mask = mask(size * 8)

        def run(h, i, pc, ft):
            address = (h.regs.raw[i.rs1] + i.imm) & h._mask
            cycles = h.bus.write(address, size, h.regs.raw[i.rs2] & value_mask)
            return (StepEvent.RETIRED, ft, False, cycles, address)

        return run

    table["sb"] = store(1)
    table["sh"] = store(2)
    table["sw"] = store(4)
    table["sd"] = store(8)

    # -- immediate ALU (the common ones are direct handlers above) ----------------------
    table["slti"] = _alu_op(lambda h, i: int(h._sx(h.regs.raw[i.rs1]) < i.imm))
    table["sltiu"] = _alu_op(lambda h, i: int(h.regs.raw[i.rs1] < (i.imm & h._mask)))
    table["srai"] = _alu_op(lambda h, i: (h._sx(h.regs.raw[i.rs1]) >> i.imm) & h._mask)

    # -- register ALU -----------------------------------------------------------------------
    def shamt(h, value):
        return value & (h.xlen - 1)

    table["sll"] = _alu_op(lambda h, i: (h.regs.raw[i.rs1] << shamt(h, h.regs.raw[i.rs2])) & h._mask)
    table["slt"] = _alu_op(lambda h, i: int(h._sx(h.regs.raw[i.rs1]) < h._sx(h.regs.raw[i.rs2])))
    table["srl"] = _alu_op(lambda h, i: h.regs.raw[i.rs1] >> shamt(h, h.regs.raw[i.rs2]))
    table["sra"] = _alu_op(lambda h, i: (h._sx(h.regs.raw[i.rs1]) >> shamt(h, h.regs.raw[i.rs2])) & h._mask)

    # -- RV64 W-forms ---------------------------------------------------------------------------
    def w_result(h, value):
        return sext(value & mask(32), 32) & h._mask

    table["addiw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] + i.imm))
    table["slliw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] << i.imm))
    table["srliw"] = _alu_op(lambda h, i: w_result(h, (h.regs.raw[i.rs1] & mask(32)) >> i.imm))
    table["sraiw"] = _alu_op(lambda h, i: w_result(h, sext(h.regs.raw[i.rs1] & mask(32), 32) >> i.imm))
    table["addw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] + h.regs.raw[i.rs2]))
    table["subw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] - h.regs.raw[i.rs2]))
    table["sllw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] << (h.regs.raw[i.rs2] & 31)))
    table["srlw"] = _alu_op(lambda h, i: w_result(h, (h.regs.raw[i.rs1] & mask(32)) >> (h.regs.raw[i.rs2] & 31)))
    table["sraw"] = _alu_op(lambda h, i: w_result(h, sext(h.regs.raw[i.rs1] & mask(32), 32) >> (h.regs.raw[i.rs2] & 31)))

    # -- M extension -------------------------------------------------------------------------------
    def signed_pair(h, i):
        return h._sx(h.regs.raw[i.rs1]), h._sx(h.regs.raw[i.rs2])

    def div_signed(a, b):
        if b == 0:
            return -1
        quotient = abs(a) // abs(b)
        return -quotient if (a < 0) != (b < 0) else quotient

    def rem_signed(a, b):
        if b == 0:
            return a
        return a - div_signed(a, b) * b

    table["mul"] = _alu_op(lambda h, i: (h.regs.raw[i.rs1] * h.regs.raw[i.rs2]) & h._mask)
    table["mulh"] = _alu_op(lambda h, i: ((signed_pair(h, i)[0] * signed_pair(h, i)[1]) >> h.xlen) & h._mask)
    table["mulhsu"] = _alu_op(lambda h, i: ((h._sx(h.regs.raw[i.rs1]) * h.regs.raw[i.rs2]) >> h.xlen) & h._mask)
    table["mulhu"] = _alu_op(lambda h, i: ((h.regs.raw[i.rs1] * h.regs.raw[i.rs2]) >> h.xlen) & h._mask)
    table["div"] = _alu_op(lambda h, i: div_signed(*signed_pair(h, i)) & h._mask)
    table["divu"] = _alu_op(
        lambda h, i: (h._mask if h.regs.raw[i.rs2] == 0 else h.regs.raw[i.rs1] // h.regs.raw[i.rs2]) & h._mask
    )
    table["rem"] = _alu_op(lambda h, i: rem_signed(*signed_pair(h, i)) & h._mask)
    table["remu"] = _alu_op(
        lambda h, i: (h.regs.raw[i.rs1] if h.regs.raw[i.rs2] == 0 else h.regs.raw[i.rs1] % h.regs.raw[i.rs2]) & h._mask
    )
    table["mulw"] = _alu_op(lambda h, i: w_result(h, h.regs.raw[i.rs1] * h.regs.raw[i.rs2]))
    table["divw"] = _alu_op(
        lambda h, i: w_result(h, div_signed(sext(h.regs.raw[i.rs1] & mask(32), 32), sext(h.regs.raw[i.rs2] & mask(32), 32)))
    )
    table["divuw"] = _alu_op(
        lambda h, i: w_result(
            h,
            mask(32) if (h.regs.raw[i.rs2] & mask(32)) == 0
            else (h.regs.raw[i.rs1] & mask(32)) // (h.regs.raw[i.rs2] & mask(32)),
        )
    )
    table["remw"] = _alu_op(
        lambda h, i: w_result(h, rem_signed(sext(h.regs.raw[i.rs1] & mask(32), 32), sext(h.regs.raw[i.rs2] & mask(32), 32)))
    )
    table["remuw"] = _alu_op(
        lambda h, i: w_result(
            h,
            (h.regs.raw[i.rs1] & mask(32)) if (h.regs.raw[i.rs2] & mask(32)) == 0
            else (h.regs.raw[i.rs1] & mask(32)) % (h.regs.raw[i.rs2] & mask(32)),
        )
    )

    # -- Zicsr ----------------------------------------------------------------------------------------
    def csr_op(write_value):
        def run(h, i, pc, ft):
            old = h.csrs.read(i.csr)
            new = write_value(h, i, old)
            if new is not None:
                h.csrs.write(i.csr, new)
            h.regs.write(i.rd, old)
            return (StepEvent.RETIRED, ft, False, 0, None)

        return run

    table["csrrw"] = csr_op(lambda h, i, old: h.regs.raw[i.rs1])
    table["csrrs"] = csr_op(lambda h, i, old: (old | h.regs.raw[i.rs1]) if i.rs1 else None)
    table["csrrc"] = csr_op(lambda h, i, old: (old & ~h.regs.raw[i.rs1]) if i.rs1 else None)
    table["csrrwi"] = csr_op(lambda h, i, old: i.imm)
    table["csrrsi"] = csr_op(lambda h, i, old: (old | i.imm) if i.imm else None)
    table["csrrci"] = csr_op(lambda h, i, old: (old & ~i.imm) if i.imm else None)

    # -- system -------------------------------------------------------------------------------------------
    def mret(h, i, pc, ft):
        resume = h.csrs.exit_trap()
        return (StepEvent.MRET, resume, True, 0, None)

    def wfi(h, i, pc, ft):
        return (StepEvent.WFI_SLEEP, ft, False, 0, None)

    def ecall(h, i, pc, ft):
        if h.csrs.read(op.CSR_MTVEC) == 0:
            return (StepEvent.HALT, pc, False, 0, None)
        raise TrapError(op.CAUSE_ECALL_M, pc)

    def ebreak(h, i, pc, ft):
        # Semihosting-style termination: programs in this reproduction end
        # with ebreak, so it always halts rather than trapping (the CFI
        # firmware never executes one).
        return (StepEvent.HALT, pc, False, 0, None)

    def fence(h, i, pc, ft):
        return (StepEvent.RETIRED, ft, False, 0, None)

    def fence_i(h, i, pc, ft):
        # The architectural instruction-stream sync point: discard every
        # cached fetch (the store-hook invalidation makes this redundant
        # on the modelled fabrics, but custom ports may lack the hook).
        h.flush_fetch_cache()
        return (StepEvent.RETIRED, ft, False, 0, None)

    table["mret"] = mret
    table["wfi"] = wfi
    table["ecall"] = ecall
    table["ebreak"] = ebreak
    table["fence"] = fence
    table["fence.i"] = fence_i

    return table


_EXEC_TABLE = _make_exec_table()
