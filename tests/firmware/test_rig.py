"""One rig run relates Table I to calibration.

Table I counts the steps of one firmware check (from the wake through
``mret`` for the IRQ firmware, from the first ``cfi`` step through the
completion store for the polling firmware); calibration reads the same
check's ring→completion span.  Both run on :class:`FirmwareRig`.  Each
test below runs Table I's checks on one rig, with Table I's classifier
and a step recorder on the probe, and asserts three things per row:

* the rig's ring→completion span is calibration's own answer for the
  same ring;
* Table I's total is the committed one;
* the two differ by named spans of recorded steps, asserted exactly.
"""

from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.eval.firmware_analysis import CheckBreakdown, FirmwareAnalyzer
from repro.firmware.rig import call_log, ret_log
from repro.hart.core import StepEvent, StepResult
from repro.policyhost.calibration import P0_KEY, STEADY, calibrate


@dataclass
class Step:
    start: int
    region: Optional[str]
    result: StepResult

    @property
    def end(self) -> int:
        return self.start + self.result.cycles

    @property
    def mnemonic(self) -> Optional[str]:
        return self.result.insn.mnemonic if self.result.insn else None


@dataclass
class Check:
    ring: int
    completion: int
    table1: CheckBreakdown
    steps: List[Step]

    @property
    def response(self) -> int:
        return self.completion - self.ring

    def at(self, cycle: int) -> Step:
        (step,) = [s for s in self.steps if s.start == cycle]
        return step


def run_check(analyzer: FirmwareAnalyzer, log) -> Check:
    """Ring ``log`` at the rig's idle point exactly as Table I does,
    recording every probed step next to Table I's classifier."""
    rig = analyzer.rig
    breakdown = CheckBreakdown()
    classify = analyzer._classifier(breakdown)
    steps: List[Step] = []

    def observe(result: StepResult) -> None:
        steps.append(Step(rig.sim.now, rig.firmware.region_at(result.pc), result))
        classify(result)

    rig.sim.probe(rig.ibex, observe)
    ring = rig.sim.now
    completion = rig.response(ring, log)
    if analyzer.variant == "irq":
        rig.settle()
    rig.sim.probe(rig.ibex, None)
    for before, after in zip(steps, steps[1:]):
        assert after.start == before.end  # no cycle between the steps
    return Check(ring, completion, breakdown, steps)


def table1_checks(variant: str):
    """Table I's sequence on one rig: a call, then a call and the
    return it matches (``measure("call")``, ``measure("return")``)."""
    analyzer = FirmwareAnalyzer(variant)
    call = run_check(analyzer, call_log())
    prev = run_check(analyzer, call_log())
    ret = run_check(analyzer, ret_log())
    return call, prev, ret


def test_irq_rows_are_calibration_plus_the_isr_epilogue():
    model = calibrate("irq")
    call, prev, ret = table1_checks("irq")

    # Calibration's own answers for the same rings.
    assert call.ring == model.boot_tail_start == 81
    assert call.completion == model.boot_response(call.ring, P0_KEY)
    assert ret.ring - prev.completion == 72
    assert ret.completion == model.steady_response(
        ret.ring, prev.completion, STEADY, ("ret-ra", "ok"))
    assert (call.response, ret.response) == (187, 197)

    for row, total in ((call, 256), (ret, 266)):
        assert row.table1.total_cycles == total
        wake = row.steps[0]
        assert wake.result.event is StepEvent.WAKE
        assert wake.start == row.ring + 1  # the cycle after the ring
        store = row.at(row.completion)
        assert (store.region, store.mnemonic, store.result.cycles) == ("cfi", "sw", 12)
        check_ret = row.at(store.end)
        assert (check_ret.region, check_ret.mnemonic, check_ret.result.cycles) == (
            "cfi", "jalr", 2)
        epilogue = [s for s in row.steps
                    if check_ret.end <= s.start and s.region == "irq"]
        assert epilogue[-1].result.event is StepEvent.MRET
        assert epilogue[-1].end - check_ret.end == sum(
            s.result.cycles for s in epilogue) == 56
        # Table I = ring→completion + store + ret + epilogue, less the
        # ring cycle itself: 69 cycles on both rows.
        assert total - row.response == 12 + 2 + 56 - 1 == 69


@pytest.mark.parametrize("variant,fabric,spans", [
    # variant, fabric, (call response, Table I call, poll-observation
    # steps/cycles of the call and of the return, completion store,
    # return response, Table I return)
    ("polling", "standard", (104, 96, (6, 18), (5, 18), 12, 126, 108)),
    ("optimized", "optimized", (68, 60, (6, 14), (5, 14), 8, 86, 72)),
])
def test_polling_rows_are_calibration_less_the_poll_loop(variant, fabric, spans):
    call_response, call_total, call_poll, ret_poll, store_cycles, ret_response, \
        ret_total = spans
    model = calibrate("polling", fabric)
    call, prev, ret = table1_checks(variant)

    assert call.ring == model.boot_tail_start
    assert call.completion == model.boot_response(call.ring, P0_KEY)
    assert ret.ring == prev.completion  # Table I rings at the completion
    assert ret.completion == model.steady_response(
        ret.ring, prev.completion, STEADY, ("ret-ra", "ok"))
    assert (call.response, ret.response) == (call_response, ret_response)
    assert (call.table1.total_cycles, ret.table1.total_cycles) == (
        call_total, ret_total)

    # The call: the poll loop's jump is in flight for 2 cycles at the
    # ring, then the loop observes the doorbell.
    assert call.steps[0].start == call.ring + 2
    # The return: the previous check's completion store is still in
    # flight, and its `ret` is the first step Table I's return row counts.
    first = ret.steps[0]
    assert first.start == ret.ring + store_cycles
    assert (first.region, first.mnemonic, first.result.cycles) == ("cfi", "jalr", 2)
    assert ret.table1.total_instructions == 38  # 1 of the call's, 37 own

    for row, poll in ((call, call_poll), (ret, ret_poll)):
        observation = [s for s in row.steps if s.region == "poll"]
        assert (len(observation),
                sum(s.result.cycles for s in observation)) == poll
        store = row.at(row.completion)
        assert (store.region, store.mnemonic, store.result.cycles) == (
            "cfi", "sw", store_cycles)
        assert row.steps[-1] is store  # the polling rows stop at the store
        # ring→completion = in flight at the ring + poll observation +
        # Table I, less the completion store (the completion cycle is
        # the cycle the store starts).
        assert row.response == (row.steps[0].start - row.ring) + poll[1] \
            + row.table1.total_cycles - store_cycles
