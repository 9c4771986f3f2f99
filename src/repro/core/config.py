"""Configuration record for a TitanCFI instance."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, check_int


@dataclass(frozen=True)
class TitanCfiConfig:
    """Parameters of the CFI stage and its mailbox path.

    Attributes:
        queue_depth: CFI queue capacity.  The paper evaluates depth 1
            (Table II, worst-case stall-per-instruction) and depth 8
            (Table III).
        mailbox_base: SoC address of the CFI mailbox.
        raise_on_violation: when True the log writer raises
            :class:`repro.errors.CfiViolation` on a bad verdict (the
            paper's "triggers an exception"); when False it latches
            the fault flag instead (for statistics runs).
        blocking: when True the commit stage stalls after *every*
            control-flow retirement until its check completes — the
            paper's Table II configuration ("stalling the core as soon
            as a single control flow instruction is retired").  This
            also makes detection synchronous: no instruction after a
            violating transfer can retire.
        lossy: non-blocking lossy queue mode.  A push against a full
            queue evicts the *oldest* buffered log (counted in
            ``CfiQueue.dropped``) instead of inhibiting commit, so
            saturation degrades into measurable detection-latency
            growth and drop counters rather than commit back-pressure.
            Mutually exclusive with ``blocking`` (which exists to
            guarantee synchronous detection — silently shedding events
            would contradict it).
    """

    queue_depth: int = 8
    mailbox_base: int = 0x9000_0000
    raise_on_violation: bool = True
    blocking: bool = False
    lossy: bool = False

    def __post_init__(self):
        check_int("queue_depth", self.queue_depth, 1)
        if self.lossy and self.blocking:
            raise ConfigError(
                "lossy and blocking are mutually exclusive: blocking "
                "guarantees synchronous detection, a lossy queue sheds "
                "events"
            )


#: Check latencies measured by the firmware analysis (paper §V-C): the
#: average of one call and one return check for each firmware variant.
CHECK_LATENCY_IRQ = 267
CHECK_LATENCY_POLLING = 112
CHECK_LATENCY_OPTIMIZED = 73
