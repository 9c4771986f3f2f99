"""Firmware cycle/instruction accounting (the measurement behind Table I).

Runs the real shadow-stack firmware on the shared firmware rig
(:class:`repro.firmware.rig.FirmwareRig`, the platform calibration
measures too), rings single commit logs through the CFI mailbox, and
classifies every step the probe (:meth:`SystemSimulator.probe
<repro.system.sim.SystemSimulator.probe>`) sees three ways, exactly as
the paper does (§V-B):

* section — **IRQ** (interrupt entry/exit plumbing, tagged ``.region
  irq`` in the firmware, plus the wake and trap-entry cycles) versus
  **CFI** (the policy body, tagged ``.region cfi``);
* category — **Logic** (no memory operand), **Mem-RoT** (loads/stores
  hitting OpenTitan-private devices) and **Mem-SoC** (loads/stores
  crossing the bridge into the host domain);
* cost — instructions and cycles per (section, category) cell.

An IRQ check runs from the wake through ``mret``; the firmware's idle
loop back into ``wfi`` is not part of it.  The *Polling* and
*Optimized* rows measure only the CFI section up to the completion
store (the paper's polling numbers exclude the busy-wait loop, whose
length is workload-dependent), so a return row starts with the
previous call's ``ret``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.commit_log import CommitLog
from repro.errors import ConfigError
from repro.firmware.rig import FirmwareRig, call_log, ret_log
from repro.hart.core import StepEvent, StepResult
from repro.system.addresses import AddressMap

SECTIONS = ("irq", "cfi")
CATEGORIES = ("logic", "mem_rot", "mem_soc")

#: Firmware configurations of the paper's Table I.
VARIANTS = ("irq", "polling", "optimized")


@dataclass
class Cell:
    """One (section, category) accounting cell."""

    instructions: int = 0
    cycles: int = 0

    def add(self, cycles: int, instructions: int = 1) -> None:
        self.instructions += instructions
        self.cycles += cycles


@dataclass
class CheckBreakdown:
    """Full breakdown of one check (a call or a return)."""

    cells: Dict[Tuple[str, str], Cell] = field(
        default_factory=lambda: {
            (section, category): Cell()
            for section in SECTIONS
            for category in CATEGORIES
        }
    )

    def cell(self, section: str, category: str) -> Cell:
        return self.cells[(section, category)]

    def section_total(self, section: str) -> Cell:
        total = Cell()
        for category in CATEGORIES:
            cell = self.cell(section, category)
            total.instructions += cell.instructions
            total.cycles += cell.cycles
        return total

    def category_total(self, category: str) -> Cell:
        total = Cell()
        for section in SECTIONS:
            cell = self.cell(section, category)
            total.instructions += cell.instructions
            total.cycles += cell.cycles
        return total

    @property
    def total_cycles(self) -> int:
        return sum(cell.cycles for cell in self.cells.values())

    @property
    def total_instructions(self) -> int:
        return sum(cell.instructions for cell in self.cells.values())


class FirmwareAnalyzer:
    """Measures one firmware variant's per-check cost on the firmware rig."""

    def __init__(self, variant: str, addresses: Optional[AddressMap] = None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown firmware variant {variant!r}")
        self.variant = variant
        self.rig = FirmwareRig(
            "irq" if variant == "irq" else "polling",
            fabric="optimized" if variant == "optimized" else "standard",
            addresses=addresses,
        )
        self.rig.settle()

    def measure(self, kind: str) -> CheckBreakdown:
        """Ring one event at the idle point and account its servicing.

        Args:
            kind: ``"call"`` or ``"return"``.  A return is always
                preceded by a matching call (in a separate, unmeasured
                ring) so the shadow stack pops successfully.
        """
        if kind == "return":
            self._service(call_log())
            return self._service(ret_log())
        if kind == "call":
            return self._service(call_log())
        raise ConfigError(f"unknown check kind {kind!r}")

    def _service(self, log: CommitLog) -> CheckBreakdown:
        """Ring ``log`` now and classify every step up to completion —
        through ``mret`` and back to the idle point for the IRQ
        firmware, whose idle-loop steps the classifier skips."""
        rig = self.rig
        breakdown = CheckBreakdown()
        rig.sim.probe(rig.ibex, self._classifier(breakdown))
        rig.response(rig.sim.now, log)
        if self.variant == "irq":
            rig.settle()
        rig.sim.probe(rig.ibex, None)
        return breakdown

    def _classifier(self, breakdown: CheckBreakdown) -> Callable[[StepResult], None]:
        """The per-step probe that accounts one check into ``breakdown``."""
        region_at = self.rig.firmware.region_at
        tag = self.rig.soc.rot.tl_map.tag

        def observe(result: StepResult) -> None:
            if result.event in (StepEvent.WAKE, StepEvent.INTERRUPT):
                # Doorbell→wake latency and trap entry: IRQ-section logic (§V-B).
                breakdown.cell("irq", "logic").add(result.cycles, instructions=0)
                return
            if result.insn is None:
                return  # asleep (busy engine only) or a synchronous trap
            region = region_at(result.pc)
            if region in ("cfi", "spill"):
                section = "cfi"
            elif region == "irq":
                section = "irq"
            else:
                return  # boot / poll: the idle loop is not part of the check
            address = result.mem_address
            category = ("logic" if address is None
                        else "mem_soc" if tag(address) == "soc" else "mem_rot")
            breakdown.cell(section, category).add(result.cycles)

        return observe


def analyze_all(addresses: Optional[AddressMap] = None) -> Dict[str, Dict[str, CheckBreakdown]]:
    """Measure all variants × {call, return}.

    Returns:
        ``results[variant][kind] -> CheckBreakdown``.
    """
    results: Dict[str, Dict[str, CheckBreakdown]] = {}
    for variant in VARIANTS:
        analyzer = FirmwareAnalyzer(variant, addresses=addresses)
        results[variant] = {
            "call": analyzer.measure("call"),
            "return": analyzer.measure("return"),
        }
    return results


def check_latency(results: Dict[str, Dict[str, CheckBreakdown]], variant: str) -> float:
    """Mean of call and return total cycles — the L used by §V-C."""
    call = results[variant]["call"].total_cycles
    ret = results[variant]["return"].total_cycles
    return (call + ret) / 2
