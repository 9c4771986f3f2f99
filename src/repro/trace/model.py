"""Discrete-event model of the CFI queue / RoT checker pipeline.

The model replays the arrival times of CFI-relevant instructions from an
*unprotected* execution trace and inserts the stalls TitanCFI would
cause:

* the RoT services commit logs FIFO, one at a time, ``latency`` cycles
  each (the firmware-analysis L);
* at most ``queue_depth`` unchecked logs may be outstanding; a CF
  retirement finding the queue full stalls the core until the oldest
  check finishes (the queue-controller rule of §IV-B2);
* in ``blocking`` mode the core additionally waits for *its own* check
  (the Table II depth-1 configuration).

Stalls shift all later arrivals — the core is a single in-order
pipeline — so total extra time is the accumulated delay, plus (for the
non-blocking queue) nothing for the post-halt drain, matching the
paper's runtime definition (cycles to commit the last instruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError, check_int


@dataclass(frozen=True)
class TraceModelResult:
    """Outcome of replaying one trace through the model.

    Attributes:
        base_cycles: unprotected runtime (trace length).
        protected_cycles: runtime with TitanCFI stalls inserted.
        stall_cycles: total inserted stall time.
        cf_count: number of checked events.
        max_outstanding: peak number of unchecked logs.
    """

    base_cycles: int
    protected_cycles: int
    stall_cycles: int
    cf_count: int
    max_outstanding: int

    @property
    def slowdown_percent(self) -> float:
        """Percentage slowdown over the unprotected run."""
        if self.base_cycles == 0:
            return 0.0
        return 100.0 * (self.protected_cycles - self.base_cycles) / self.base_cycles


def simulate_trace(
    arrivals: Sequence[int],
    total_cycles: int,
    latency: int,
    queue_depth: int = 8,
    blocking: bool = False,
) -> TraceModelResult:
    """Replay CF arrival times through the queue/checker model.

    Args:
        arrivals: cycle numbers (in the unprotected run, sorted
            non-decreasing) at which CFI-relevant instructions retire.
        total_cycles: unprotected runtime of the benchmark.
        latency: RoT check latency L (cycles per commit log).
        queue_depth: maximum outstanding unchecked logs.
        blocking: Table II mode — each CF also waits for its own check.

    Returns:
        a :class:`TraceModelResult`.
    """
    check_int("queue_depth", queue_depth, 1)
    if latency < 0:
        raise ConfigError("latency must be non-negative")

    delay = 0                   # accumulated core delay so far
    completions: list = []      # completion time of every check, FIFO
    last_completion = 0
    max_outstanding = 0
    count = 0

    for original_time in arrivals:
        count += 1
        arrival = original_time + delay

        # Queue-full stall: wait for the (i - queue_depth)-th completion.
        if count > queue_depth:
            oldest_needed = completions[count - 1 - queue_depth]
            if oldest_needed > arrival:
                delay += oldest_needed - arrival
                arrival = oldest_needed

        start = arrival if arrival > last_completion else last_completion
        completion = start + latency
        completions.append(completion)
        last_completion = completion

        if blocking:
            # Depth-1 semantics: the core resumes only after the verdict.
            delay += completion - arrival

        outstanding = 0
        for done in completions[-(queue_depth + 1):]:
            if done > arrival:
                outstanding += 1
        if outstanding > max_outstanding:
            max_outstanding = outstanding

    protected = total_cycles + delay
    return TraceModelResult(
        base_cycles=total_cycles,
        protected_cycles=protected,
        stall_cycles=delay,
        cf_count=len(completions),
        max_outstanding=max_outstanding,
    )
