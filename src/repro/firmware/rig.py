"""One platform for the firmware check: the shadow-stack firmware on the
co-simulator's own RoT.

Every measurement of one firmware check runs on :class:`FirmwareRig`:
Table I (:mod:`repro.eval.firmware_analysis`) classifies the check's
steps through a per-step probe, calibration
(:mod:`repro.policyhost.calibration`) reads ring→completion spans, and
the firmware differential test reads verdicts.  So the idle point, the
ring and the completion rule are defined once, here.

The probe logs are the synthetic commit logs those measurements feed
the firmware: a ``jal ra`` call (:func:`call_log`), a
``jalr x0, 0(ra)`` return (:func:`ret_log`) and any other encoding
(:func:`probe_log`), all retired at :data:`PROBE_PC`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commit_log import CommitLog
from repro.errors import SimulationError
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.isa import opcodes as op
from repro.isa.encode import encode_i, encode_j
from repro.system.addresses import AddressMap
from repro.system.sim import SystemSimulator
from repro.system.soc import build_soc

#: Where every probe log retires, and where a call probe jumps to.
PROBE_PC = 0x8000_1000
PROBE_TARGET = 0x8000_2000


def probe_log(encoding: int, target: int = PROBE_TARGET) -> CommitLog:
    """A commit log of ``encoding`` retired at :data:`PROBE_PC`."""
    return CommitLog(pc=PROBE_PC, encoding=encoding,
                     next_address=PROBE_PC + 4, target=target)


def call_log(rd: int = 1, jal: bool = True) -> CommitLog:
    """A call linking through ``rd``: ``jal rd`` or ``jalr rd, 0(a0)``."""
    encoding = (encode_j(op.OP_JAL, rd, 0x100) if jal
                else encode_i(op.OP_JALR, 0, rd, 10, 0))
    return probe_log(encoding)


def ret_log(rs1: int = 1, target: int = PROBE_PC + 4) -> CommitLog:
    """A ``jalr x0, 0(rs1)`` return to ``target`` (by default the
    address a :func:`call_log` pushed, so the return matches)."""
    return probe_log(encode_i(op.OP_JALR, 0, 0, rs1, 0), target=target)


class FirmwareRig:
    """A frozen application side and a RoT servicing the CFI mailbox,
    run by the co-simulator.

    The platform is the cosim's own (``build_soc`` without CFI, the
    application hart halted), so Ibex runs through the batched engine's
    windows, debt jumps and WFI-sleep jumps exactly as in a
    firmware-backed run.  A doorbell rung "at cycle T" lands *after*
    every agent's tick of cycle T, which is where the log writer's ring
    lands in the busy loop (the CFI stage ticks after the RoT core).
    The completion cycle is the cycle the firmware's completion store
    executes — the cycle the log writer's same-cycle tick observes it;
    that store ends its window on its own retire cycle, so it is the
    clock when the advance stops.

    Args:
        variant: firmware variant, ``"irq"`` or ``"polling"``.
        fabric: RoT interconnect profile.
        wake_cycles: Ibex doorbell→wake latency.
        addresses: alternative address map.
    """

    def __init__(self, variant: str, fabric: str = "standard",
                 wake_cycles: int = 45,
                 addresses: Optional[AddressMap] = None):
        self.variant = variant
        soc = build_soc(fabric=fabric, addresses=addresses, with_cfi=False,
                        wake_cycles=wake_cycles)
        self.firmware = shadow_stack_firmware(variant, FirmwareLayout(soc.addresses))
        soc.load_firmware(self.firmware.data)
        soc.harts[0].halted = True
        self.soc = soc
        self.sim = SystemSimulator(soc)
        self.ibex = soc.rot.ibex
        self.mailbox = soc.cfi_mailbox

    def run_to(self, cycle: int) -> None:
        if cycle < self.sim.now:
            raise SimulationError(
                f"firmware rig asked to ring in the past "
                f"({cycle} < {self.sim.now})"
            )
        self.sim.advance(cycle)

    def response(self, cycle: int, log: CommitLog,
                 limit: int = 200_000) -> int:
        """Ring the doorbell at ``cycle``; return the completion cycle."""
        self.run_to(cycle)
        sim, mailbox = self.sim, self.mailbox
        mailbox.deposit(log.pack())
        if not sim.advance(sim.now + limit, lambda: mailbox.completion_pending):
            raise SimulationError(
                f"{self.variant} firmware never completed the "
                f"check rung at cycle {cycle}"
            )
        return sim.now

    def settle(self, limit: int = 100_000) -> int:
        """Run the firmware to its steady idle point; returns its cycle
        (WFI sleep for the IRQ variant, poll-loop entry for the polling
        variant).  Stepped cycle by cycle: the polling firmware's idle
        point is a pc, which a window would run past."""
        sim = self.sim
        deadline = sim.now + limit
        if self.variant == "irq":
            while not self.ibex.sleeping:
                if sim.now >= deadline:
                    raise SimulationError("IRQ firmware never reached wfi")
                sim.tick()
            return sim.now
        while self.firmware.region_at(self.ibex.pc) != "poll":
            if sim.now >= deadline:
                raise SimulationError("polling firmware never reached its loop")
            sim.tick()
        return sim.now
