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

The package re-exports nothing, so a scenario spec that needs only
:mod:`repro.faults.plan` does not load the injector or the oracle.
"""
