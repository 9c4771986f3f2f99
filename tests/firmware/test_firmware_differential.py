"""Differential test: assembly firmware vs. the Python reference policy.

The RV32 firmware executing on the Ibex ISS and the
:class:`ShadowStackPolicy` reference model receive the *same* stream of
commit logs; their verdicts must agree event by event.  This is the
strongest correctness evidence for the firmware: any divergence in
encoding parsing, link-register rules or stack handling shows up here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commit_log import CommitLog
from repro.firmware.policies import CheckResult, ShadowStackPolicy
from repro.firmware.rig import FirmwareRig
from repro.isa.encode import encode_i, encode_j
from repro.isa import opcodes as op
from repro.soc.mailbox import VERDICT_OK


class FirmwareOracle:
    """Feeds commit logs to the polling firmware on the firmware rig."""

    def __init__(self):
        self.rig = FirmwareRig("polling")
        self.rig.settle()

    def verdict(self, log: CommitLog) -> CheckResult:
        self.rig.response(self.rig.sim.now, log)
        value = self.rig.mailbox.result()
        return CheckResult.OK if value == VERDICT_OK else CheckResult.VIOLATION


def call_log(pc, target):
    return CommitLog(pc=pc, encoding=encode_j(op.OP_JAL, 1, 0x40),
                     next_address=pc + 4, target=target)


def t0_call_log(pc, target):
    """Call through the alternate link register (jalr t0)."""
    return CommitLog(pc=pc, encoding=encode_i(op.OP_JALR, 0, 5, 10, 0),
                     next_address=pc + 4, target=target)


def return_log(pc, target):
    return CommitLog(pc=pc, encoding=encode_i(op.OP_JALR, 0, 0, 1, 0),
                     next_address=pc + 4, target=target)


def jump_log(pc, target):
    return CommitLog(pc=pc, encoding=encode_i(op.OP_JALR, 0, 0, 10, 0),
                     next_address=pc + 4, target=target)


@pytest.fixture(scope="module")
def oracle():
    return FirmwareOracle()


class TestAgreement:
    def test_clean_nest_agrees(self, oracle):
        reference = ShadowStackPolicy()
        stream = [
            call_log(0x1000, 0x2000),
            call_log(0x2000, 0x3000),
            return_log(0x3010, 0x2004),
            return_log(0x2010, 0x1004),
        ]
        for log in stream:
            assert oracle.verdict(log) == reference.check(log), str(log)

    def test_mismatch_agrees(self, oracle):
        reference = ShadowStackPolicy()
        stream = [call_log(0x1000, 0x2000), return_log(0x2010, 0xBAD0)]
        verdicts = [(oracle.verdict(log), reference.check(log)) for log in stream]
        assert verdicts[-1] == (CheckResult.VIOLATION, CheckResult.VIOLATION)

    def test_alternate_link_register_agrees(self, oracle):
        reference = ShadowStackPolicy()
        stream = [t0_call_log(0x4000, 0x5000), return_log(0x5010, 0x4004)]
        for log in stream:
            assert oracle.verdict(log) == reference.check(log), str(log)

    def test_indirect_jumps_agree(self, oracle):
        reference = ShadowStackPolicy()
        log = jump_log(0x6000, 0x7000)
        assert oracle.verdict(log) == reference.check(log) == CheckResult.OK

    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["call", "return-good", "return-bad"]),
                st.integers(min_value=0x1000, max_value=0xF000),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_random_streams_agree(self, script):
        # Fresh oracle per example: the shadow stacks must start aligned.
        oracle = FirmwareOracle()
        reference = ShadowStackPolicy()
        expected_stack = []
        for action, pc in script:
            pc &= ~0x3
            if action == "call":
                log = call_log(pc, pc + 0x100)
                expected_stack.append(pc + 4)
            elif action == "return-good" and expected_stack:
                log = return_log(pc, expected_stack.pop())
            else:
                log = return_log(pc, 0xDEAD0)
                expected_stack.clear()  # violation desyncs; stop comparing after
            fw = oracle.verdict(log)
            ref = reference.check(log)
            assert fw == ref, f"{action}@{pc:#x}: firmware={fw} reference={ref}"
            if ref is CheckResult.VIOLATION:
                break  # states may legitimately diverge after a violation
