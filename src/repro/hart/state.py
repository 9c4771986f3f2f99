"""Architectural state: integer register file and machine-mode CSRs."""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import TrapError
from repro.isa import opcodes as op
from repro.isa.registers import REG_COUNT, abi_name
from repro.utils.bits import mask


class RegisterFile:
    """The 32 integer registers; ``x0`` is hardwired to zero."""

    def __init__(self, xlen: int):
        self.xlen = xlen
        self._mask = mask(xlen)
        self._regs = [0] * REG_COUNT
        #: Direct view of the backing list for hot readers.  Safe for
        #: reads because the ``x0 == 0`` invariant is maintained by
        #: :meth:`write`; writers must go through :meth:`write` (or
        #: replicate its ``x0``/mask handling exactly).
        self.raw = self._regs

    def read(self, index: int) -> int:
        """Unsigned value of register ``index``."""
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        """Write ``value`` (masked to XLEN); writes to ``x0`` are dropped."""
        if index:
            self._regs[index] = value & self._mask

    def snapshot(self) -> Dict[str, int]:
        """ABI-named copy of all registers (debugging/tests)."""
        return {abi_name(i): self._regs[i] for i in range(REG_COUNT)}

    def __getitem__(self, index: int) -> int:
        return self.read(index)

    def __setitem__(self, index: int, value: int) -> None:
        self.write(index, value)


class CsrFile:
    """Machine-mode CSR subset used by the OpenTitan CFI firmware.

    ``mcycle``/``minstret`` are windows onto the owning hart's counters
    (installed by :class:`repro.hart.core.Hart` at construction).
    """

    _WRITABLE = {
        op.CSR_MSTATUS,
        op.CSR_MIE,
        op.CSR_MTVEC,
        op.CSR_MSCRATCH,
        op.CSR_MEPC,
        op.CSR_MCAUSE,
        op.CSR_MTVAL,
        op.CSR_MISA,
    }
    _READ_ONLY = {op.CSR_MHARTID, op.CSR_MCYCLE, op.CSR_MINSTRET}

    def __init__(self, xlen: int, hartid: int = 0):
        self.xlen = xlen
        self._mask = mask(xlen)
        self._values: Dict[int, int] = {
            op.CSR_MSTATUS: 0,
            op.CSR_MIE: 0,
            op.CSR_MIP: 0,
            op.CSR_MTVEC: 0,
            op.CSR_MSCRATCH: 0,
            op.CSR_MEPC: 0,
            op.CSR_MCAUSE: 0,
            op.CSR_MTVAL: 0,
            op.CSR_MISA: 0,
            op.CSR_MHARTID: hartid,
        }
        self._hart = None  # set by Hart for counter CSRs

    def bind_hart(self, hart) -> None:
        """Attach the owning hart (for mcycle/minstret reads)."""
        self._hart = hart

    def read(self, csr: int) -> int:
        """CSR read; unknown CSRs raise an illegal-instruction trap."""
        if csr == op.CSR_MCYCLE:
            return (self._hart.cycle if self._hart else 0) & self._mask
        if csr == op.CSR_MINSTRET:
            return (self._hart.instret if self._hart else 0) & self._mask
        if csr in self._values:
            return self._values[csr]
        raise TrapError(op.CAUSE_ILLEGAL_INSTRUCTION, 0, f"read of unknown CSR {csr:#x}")

    def write(self, csr: int, value: int) -> None:
        """CSR write; read-only or unknown CSRs raise a trap."""
        if csr in self._READ_ONLY:
            raise TrapError(op.CAUSE_ILLEGAL_INSTRUCTION, 0, f"write to read-only CSR {csr:#x}")
        if csr == op.CSR_MIP:
            # mip is wire-driven in this model; software writes are dropped
            # (matches Ibex, where MEIP is read-only).
            return
        if csr not in self._values:
            raise TrapError(op.CAUSE_ILLEGAL_INSTRUCTION, 0, f"write to unknown CSR {csr:#x}")
        if csr == op.CSR_MEPC:
            # IALIGN = 32 (no C extension): mepc[1:0] are WARL zero, so
            # mret always resumes at a word-aligned pc.
            value &= ~0b11
        self._values[csr] = value & self._mask

    # -- mstatus convenience ---------------------------------------------------

    @property
    def mstatus(self) -> int:
        """Raw mstatus value."""
        return self._values[op.CSR_MSTATUS]

    @property
    def mie_enabled(self) -> bool:
        """Global machine-interrupt-enable (mstatus.MIE)."""
        # Read the backing dict directly: this is polled once per
        # simulated instruction by Hart.step.
        return bool(self._values[op.CSR_MSTATUS] & op.MSTATUS_MIE)

    def enter_trap(self, pc: int, cause: int, interrupt: bool, tval: int = 0) -> int:
        """Perform trap-entry CSR side effects; returns the handler pc."""
        status = self.mstatus
        mie = (status >> 3) & 1
        status &= ~(op.MSTATUS_MIE | op.MSTATUS_MPIE | op.MSTATUS_MPP_MASK)
        status |= mie << 7          # MPIE <- MIE
        status |= op.MSTATUS_MPP_MASK  # MPP <- machine mode
        self._values[op.CSR_MSTATUS] = status
        self._values[op.CSR_MEPC] = pc & self._mask
        cause_value = cause
        if interrupt:
            cause_value |= 1 << (self.xlen - 1)
        self._values[op.CSR_MCAUSE] = cause_value
        self._values[op.CSR_MTVAL] = tval & self._mask
        # Direct-mode mtvec only (mode bits stripped).
        return self._values[op.CSR_MTVEC] & ~0b11

    def exit_trap(self) -> int:
        """Perform mret CSR side effects; returns the resume pc (mepc)."""
        status = self.mstatus
        mpie = (status >> 7) & 1
        status &= ~op.MSTATUS_MIE
        status |= mpie << 3          # MIE <- MPIE
        status |= op.MSTATUS_MPIE    # MPIE <- 1
        self._values[op.CSR_MSTATUS] = status
        return self._values[op.CSR_MEPC]
