"""Deterministic fault injection for the TitanCFI transport and monitor.

The package models the degraded-monitor conditions the SoK: Runtime
Integrity taxonomy treats as first-class: dropped/duplicated mailbox
doorbells, corrupted CFI event words, queue-overflow stress, stalled or
late-waking monitors, and mid-run monitor resets.  A seed-deterministic
:class:`~repro.faults.plan.FaultPlan` schedules faults at
*event-occurrence indices* (the Nth queue pop, the Nth delivered
check), so both execution engines observe identical faulted
behaviour; :mod:`repro.faults.oracle` predicts the expected verdict
under fault, and :mod:`repro.faults.contract` checks each policy's
degradation contract (detect / detect-late / fail-safe / miss).

Beyond the benign-transport model, plans can be *hart-scoped* (each
event indexes a named writer's stream) and carry compromised-hart
adversarial kinds — ``hart-spoof``, ``doorbell-flood``,
``arbiter-hold`` — against which the policy-host monitor mounts a
quarantine defense; :func:`~repro.faults.contract.evaluate_hart_contract`
checks the resulting per-hart degradation contract (attacker
fail-safe-quarantined, benign peers bit-identical to the adversary-free
baseline).
"""

from repro.faults.contract import (
    DEGRADATION_DETECT,
    DEGRADATION_DETECT_LATE,
    DEGRADATION_FAIL_SAFE,
    DEGRADATION_MISS,
    DEGRADATION_QUARANTINE,
    DEGRADATION_TRANSPARENT,
    allowed_degradations,
    evaluate_contract,
    evaluate_hart_contract,
)
from repro.faults.inject import FaultController, FaultDirectory, attach_faults
from repro.faults.oracle import (
    FaultPrediction,
    predict_adversarial,
    predict_verdict,
)
from repro.faults.plan import (
    ADVERSARIAL_FAULTS,
    FAULT_ARBITER_HOLD,
    FAULT_DOORBELL_DROP,
    FAULT_DOORBELL_DUP,
    FAULT_DOORBELL_FLOOD,
    FAULT_EVENT_CORRUPT,
    FAULT_HART_SPOOF,
    FAULT_MONITOR_RESET,
    FAULT_MONITOR_STALL,
    FAULT_PLANS,
    FaultEvent,
    FaultPlan,
    build_plan,
)

__all__ = [
    "ADVERSARIAL_FAULTS",
    "DEGRADATION_DETECT",
    "DEGRADATION_DETECT_LATE",
    "DEGRADATION_FAIL_SAFE",
    "DEGRADATION_MISS",
    "DEGRADATION_QUARANTINE",
    "DEGRADATION_TRANSPARENT",
    "FAULT_ARBITER_HOLD",
    "FAULT_DOORBELL_DROP",
    "FAULT_DOORBELL_DUP",
    "FAULT_DOORBELL_FLOOD",
    "FAULT_EVENT_CORRUPT",
    "FAULT_HART_SPOOF",
    "FAULT_MONITOR_RESET",
    "FAULT_MONITOR_STALL",
    "FAULT_PLANS",
    "FaultController",
    "FaultDirectory",
    "FaultEvent",
    "FaultPlan",
    "FaultPrediction",
    "allowed_degradations",
    "attach_faults",
    "build_plan",
    "evaluate_contract",
    "evaluate_hart_contract",
    "predict_adversarial",
    "predict_verdict",
]
