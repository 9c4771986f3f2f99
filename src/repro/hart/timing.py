"""Static per-instruction timing models for the two cores.

The reproduction replaces RTL cycle accuracy with calibrated static
models.  Costs are charged per *retired* instruction:

* :class:`IbexTiming` follows the public Ibex documentation for the
  3-stage, single-issue core (taken branches 3 cycles, jumps 2, loads
  and stores dominated by the TL-UL round trip) and reproduces the
  paper's §V-B measurements: ~5-cycle scratchpad accesses and a
  45-cycle doorbell-to-wakeup latency.
* :class:`Cva6Timing` approximates the 6-stage application core: most
  integer ops single-cycle, a branch-resolution penalty on taken
  branches, memory at region latency.

Memory-access instructions are charged exactly the cycles their bus
port reports, so fabric configuration (standard vs. the paper's
"Optimized" low-latency interconnect) flows straight into firmware
cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.decode import Instruction

_LOADS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"})
_BRANCHES = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})
_MUL = frozenset({"mul", "mulh", "mulhsu", "mulhu", "mulw"})
_DIV = frozenset({"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"})
_CSR = frozenset({"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"})

#: Single-cycle-class ops with no taken/latency dependence, enumerated so
#: their cost is one probe of the fixed-cost table.
_ALU = frozenset({
    "lui", "auipc",
    "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "addiw", "slliw", "srliw", "sraiw",
    "addw", "subw", "sllw", "srlw", "sraw",
    "fence", "fence.i", "wfi", "ecall", "ebreak",
})


def _fixed_cost_table(*, jal: int, jalr: int, mul: int, div: int, csr: int,
                      mret: int, alu: int) -> dict:
    """Mnemonic → cycles for every cost that needs no runtime input."""
    table = {m: alu for m in _ALU}
    table.update({m: mul for m in _MUL})
    table.update({m: div for m in _DIV})
    table.update({m: csr for m in _CSR})
    table["jal"] = jal
    table["jalr"] = jalr
    table["mret"] = mret
    return table


class TimingModel:
    """Cycle cost of one retired instruction, read from three tables a
    model builds in ``__post_init__``:

    * ``_fixed`` — mnemonic → cycles for every cost with no runtime
      input (:func:`_fixed_cost_table`);
    * ``_branch`` — ``(untaken, taken)``, indexable by the taken flag;
    * ``_mem_extra`` — ``(store extra, load extra, clamp to 1)``, added
      to the cycles the bus port reports for a store or a load.

    Every mnemonic the hart executes has one of the three; the batched
    retire loop (:meth:`repro.hart.core.Hart.run_n`) reads the tables
    directly.
    """

    #: Cycles from a pending wake event to the first fetched instruction.
    wake_cycles: int
    #: Pipeline cost of entering a trap/interrupt handler.
    trap_entry_cycles: int

    def cycles_for(self, insn: Instruction, taken: bool, mem_cycles: int) -> int:
        """Cycles charged for ``insn``.

        Args:
            insn: the retired instruction.
            taken: for branches, whether the branch was taken.
            mem_cycles: bus-reported cycles for loads/stores (0 otherwise).
        """
        m = insn.mnemonic
        cost = self._fixed.get(m)
        if cost is not None:
            return cost
        if m in _BRANCHES:
            return self._branch[taken]
        store, load, clamp = self._mem_extra
        cost = (load if m in _LOADS else store) + mem_cycles
        return max(1, cost) if clamp else cost


@dataclass
class IbexTiming(TimingModel):
    """Ibex (RV32IMC, 3-stage, low gate count) static timing.

    ``wake_cycles`` reproduces the paper's measured 45 cycles from the
    doorbell interrupt to Ibex leaving sleep (§V-B).
    """

    alu_cycles: int = 1
    taken_branch_cycles: int = 3
    untaken_branch_cycles: int = 1
    jump_cycles: int = 2
    mul_cycles: int = 1          # single-cycle multiplier configuration
    div_cycles: int = 37         # iterative divider
    csr_cycles: int = 1
    mret_cycles: int = 4
    trap_entry_cycles: int = 3
    wake_cycles: int = 45

    def __post_init__(self):
        self._fixed = _fixed_cost_table(
            jal=self.jump_cycles, jalr=self.jump_cycles,
            mul=self.mul_cycles, div=self.div_cycles,
            csr=self.csr_cycles, mret=self.mret_cycles, alu=self.alu_cycles,
        )
        self._branch = (self.untaken_branch_cycles, self.taken_branch_cycles)
        #: The TL-UL port reports the full round trip; charge it as-is.
        self._mem_extra = (0, 0, True)


@dataclass
class Cva6Timing(TimingModel):
    """CVA6 (RV64GC, 6-stage, single-issue) static timing."""

    alu_cycles: int = 1
    taken_branch_cycles: int = 3  # average resolution penalty
    untaken_branch_cycles: int = 1
    jump_cycles: int = 1          # direct jumps are predicted
    jalr_cycles: int = 3          # indirect targets resolve in EX
    load_base_cycles: int = 1
    store_base_cycles: int = 1
    mul_cycles: int = 2
    div_cycles: int = 20
    csr_cycles: int = 1
    mret_cycles: int = 5
    trap_entry_cycles: int = 5
    wake_cycles: int = 10

    def __post_init__(self):
        self._fixed = _fixed_cost_table(
            jal=self.jump_cycles, jalr=self.jalr_cycles,
            mul=self.mul_cycles, div=self.div_cycles,
            csr=self.csr_cycles, mret=self.mret_cycles, alu=self.alu_cycles,
        )
        self._branch = (self.untaken_branch_cycles, self.taken_branch_cycles)
        self._mem_extra = (self.store_base_cycles, self.load_base_cycles, False)
