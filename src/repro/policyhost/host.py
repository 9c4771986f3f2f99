"""The policy host: a Python policy mounted behind the CFI mailbox.

A :class:`PolicyHost` stands in for the Ibex firmware as the mailbox's
servicing agent: it observes the doorbell, parses the deposited commit
log from the data file (the same 28-byte wire format the firmware
reads), runs its policy's ``check()``, and — after the calibrated
per-check delay — answers through :meth:`repro.soc.mailbox.Mailbox.respond`,
which performs the firmware's exact exit sequence (verdict into
data[0], completion asserted, doorbell cleared).  The log writer on
the other side cannot distinguish the two agents.

The host is a clocked component with the same scheduling contract as
the CFI log writer (``tick`` / ``skippable_cycles`` / ``skip``), which
is what makes it a citizen of both co-simulation engines: while
no check is in flight it is *parked* (unbounded — only a doorbell,
i.e. another component's activity, can start one), and while a check
is in flight its completion cycle bounds every clock jump and batched
instruction window, exactly like a log-writer countdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.commit_log import CommitLog
from repro.core.log_writer import LogWriter
from repro.errors import ConfigError, ProtocolError, SimulationError
from repro.firmware.policies import (
    EVENT_RESTORE,
    EVENT_SPILL,
    EVENT_UNDERFLOW,
    CheckResult,
    Policy,
    ShadowStackPolicy,
)
from repro.firmware.shadow_stack import FirmwareLayout
from repro.policyhost.calibration import STEADY, ResponseModel, calibrate
from repro.soc.mailbox import Mailbox, VERDICT_OK, VERDICT_VIOLATION
from repro.system.addresses import AddressMap

#: Shared "cannot act on its own" sentinel (compares like the writer's).
UNBOUNDED = LogWriter.UNBOUNDED

#: The firmware's shadow-stack geometry, which sizes the boot epoch's mirror.
_LAYOUT = FirmwareLayout(AddressMap())


def firmware_path(encoding: int) -> str:
    """The firmware parse path a commit-log encoding takes.

    Mirrors ``cfi_check``'s branch structure in
    :mod:`repro.firmware.shadow_stack` instruction for instruction —
    the per-path calibration probes are keyed by these names.
    """
    opcode = encoding & 0x7F
    if opcode == 0x6F:  # JAL
        rd = (encoding >> 7) & 31
        if rd == 1:
            return "call-jal-ra"
        if rd == 5:
            return "call-jal-t0"
        return "jal-jump"
    if opcode == 0x67:  # JALR
        rd = (encoding >> 7) & 31
        if rd == 1:
            return "call-jalr-ra"
        if rd == 5:
            return "call-jalr-t0"
        if rd:
            return "jump-rd"
        rs1 = (encoding >> 15) & 31
        if rs1 == 1:
            return "ret-ra"
        if rs1 == 5:
            return "ret-t0"
        return "jump-rs"
    return "other"


def resolve_path_key(encoding: int, violation: bool,
                     hint: Optional[str]) -> Tuple[str, str]:
    """(path, outcome) key into the calibrated service-delta table.

    ``hint`` is the policy's optional ``last_event`` attribute; it
    distinguishes firmware paths the verdict alone cannot (a
    shadow-stack underflow responds earlier than a pop-and-mismatch).
    Spill/restore hints map to their own keys, which the calibration
    does not (yet) cover — the model raises on them rather than
    silently charging the plain push/pop cost, so a host-backed run
    that overflows the resident stack fails loudly instead of drifting
    from the firmware's timing.
    """
    name = firmware_path(encoding)
    if hint == EVENT_SPILL:
        return name, "spill"
    if hint == EVENT_RESTORE:
        return name, "restore"
    if violation and hint == EVENT_UNDERFLOW and name in ("ret-ra", "ret-t0"):
        return name, "underflow"
    return name, "bad" if violation else "ok"


#: Violation verdicts a hart may accumulate before the defense layer
#: quarantines it (a flooding hart's fabricated events are violations).
QUARANTINE_STRIKES = 3
#: Cycles the monitor waits after a completion for the doorbell grant
#: to move on before declaring the owner a squatter (arbiter-hold).
#: Generous against the slowest honest handshake tail (a verdict read
#: plus release take tens of cycles) yet bounded for the contract.
HOLD_BUDGET = 2048
#: Fixed turnaround of a fail-safe response (spoofed source id): the
#: monitor answers VIOLATION without consulting any policy context.
FAILSAFE_CYCLES = 32


class MonitorDefense:
    """Cross-hart defense state of a multi-hart monitor.

    Tracks per-hart violation strikes and quarantine flags, and owns
    the countermeasures: a quarantined hart is sealed off the shared
    doorbell channel (:meth:`repro.soc.mailbox.DoorbellArbiter.quarantine`),
    while every benign peer's verdict path is untouched — the defense
    only ever *removes* a misbehaving requester from the shared fabric.
    """

    def __init__(self, arbiter, n_harts: int, stages=None):
        self.arbiter = arbiter
        self.n_harts = n_harts
        #: Per-hart CFI stages (for the quarantine-lossy flip); absent
        #: in unit tests that exercise the defense bookkeeping alone.
        self.stages = stages
        self.strikes = [0] * n_harts
        self.quarantined = [False] * n_harts
        self.spoofs_detected = 0
        self.floods_quarantined = 0
        self.holds_released = 0
        self.failsafe_responses = 0

    def quarantine(self, hart_id: int) -> bool:
        """Seal ``hart_id`` off the channel; False when already sealed."""
        if self.quarantined[hart_id]:
            return False
        self.quarantined[hart_id] = True
        self.arbiter.quarantine(hart_id)
        if self.stages is not None and self.stages[hart_id] is not None:
            # Graceful degradation: the sealed hart's writer is frozen,
            # so its CFI queue would fill and wedge the core on commit
            # back-pressure forever.  Flip that one queue into lossy
            # mode — its events are shed (and counted in ``dropped``)
            # while every benign peer keeps its blocking, verdict-exact
            # queue.
            self.stages[hart_id].queue.lossy = True
        return True

    def strike(self, hart_id: int) -> bool:
        """Record a violation verdict; True when it trips quarantine."""
        self.strikes[hart_id] += 1
        if (
            self.strikes[hart_id] >= QUARANTINE_STRIKES
            and not self.quarantined[hart_id]
        ):
            self.quarantine(hart_id)
            self.floods_quarantined += 1
            return True
        return False

    def reset(self) -> None:
        """Clear strike counters (monitor reboot).  Quarantine flags
        survive on purpose: the arbiter seal is a hardware latch only a
        platform reset clears, and forgetting a compromised hart on a
        monitor reboot would hand the attacker a reset-to-escape path."""
        self.strikes = [0] * self.n_harts

    def summary(self) -> dict:
        """JSON-able defense state for reports and contracts."""
        return {
            "quarantined": [
                i for i, sealed in enumerate(self.quarantined) if sealed
            ],
            "strikes": list(self.strikes),
            "spoofs_detected": self.spoofs_detected,
            "floods_quarantined": self.floods_quarantined,
            "holds_released": self.holds_released,
            "failsafe_responses": self.failsafe_responses,
        }


@dataclass
class PolicyHostStats:
    """Lifetime statistics of one policy host's checks for one hart."""

    checks: int = 0
    violations: int = 0
    #: Doorbell→completion latency of every check, in ring order.
    service_latencies: List[int] = field(default_factory=list)
    #: Checks by calibrated path key.
    by_path: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Checks answered inside the boot epoch, keyed by the firmware mirror.
    shadow_checks: int = 0

    @property
    def mean_service_latency(self) -> float:
        if not self.service_latencies:
            return 0.0
        return sum(self.service_latencies) / len(self.service_latencies)


class PolicyHost:
    """Cycle-stepped mailbox agent running a Python policy.

    Args:
        policy: the CFI policy; any object with ``check(log)`` →
            :class:`~repro.firmware.policies.CheckResult`.  An optional
            ``last_event`` attribute refines path selection and an
            optional ``host_extra_cycles(log, verdict)`` method adds a
            modelled per-check surcharge (e.g. the crypto policy's MAC).
        mailbox: the CFI mailbox to serve (its ``on_doorbell`` is taken
            over by the host).
        model: calibrated response model (see
            :func:`repro.policyhost.calibration.calibrate`).
        name: diagnostic name.
        n_harts: application harts served.  Every transmission carries
            its source hart id in payload byte 28: the host checks hart
            0 against the policy itself and hart ``h`` against the
            policy's context for it
            (:meth:`repro.firmware.policies.PerHartContextMixin.context`),
            and keeps its statistics per hart (:attr:`hart_stats`).
    """

    def __init__(self, policy: Policy, mailbox: Mailbox,
                 model: ResponseModel, name: str = "policy-host",
                 n_harts: int = 1, arbiter=None, defense: bool = False,
                 stages=None):
        if not hasattr(policy, "check"):
            raise ConfigError(f"{name}: policy object has no check() method")
        if n_harts < 1:
            raise ConfigError(f"{name}: n_harts must be >= 1")
        if n_harts > 1 and not hasattr(policy, "context"):
            raise ConfigError(
                f"{name}: policy {type(policy).__name__} has no per-hart "
                "context() — it cannot serve a multi-hart SoC"
            )
        if defense and (n_harts < 2 or arbiter is None):
            raise ConfigError(
                f"{name}: the cross-hart defense needs a multi-hart SoC "
                "with a doorbell arbiter (n_harts > 1)"
            )
        self.policy = policy
        self.mailbox = mailbox
        self.model = model
        self.name = name
        self.n_harts = n_harts
        self.now = 0
        #: Per-hart statistics, the only record (:attr:`stats` sums them).
        self.hart_stats = [PolicyHostStats() for _ in range(n_harts)]
        self._inflight_hart = 0
        self._respond_at: Optional[int] = None
        self._verdict = VERDICT_OK
        self._ring_at = 0
        self._prev_respond: Optional[int] = None
        #: The firmware state the previous completion left
        #: (:meth:`ResponseModel.next_state`).
        self._state = STEADY
        #: The boot epoch's firmware mirror (``None`` outside the epoch).
        self._mirror: Optional[ShadowStackPolicy] = None
        #: Fault controller hook (:mod:`repro.faults`); ``None`` keeps
        #: the service path identical to the fault-free host.
        self.faults = None
        #: Cross-hart defense layer; ``None`` (the default) keeps the
        #: service path identical to the defenseless host.
        self.defense: Optional[MonitorDefense] = (
            MonitorDefense(arbiter, n_harts, stages=stages)
            if defense else None
        )
        #: Arbiter-hold watchdog: armed after every completion, fires
        #: exactly at its deadline cycle (engine-invariant by being a
        #: pure function of the respond cycle).
        self._watch_at: Optional[int] = None
        self._watch_count = 0
        mailbox.on_doorbell = self._on_doorbell

    # -- doorbell service -----------------------------------------------------

    def _on_doorbell(self) -> None:
        if self._respond_at is not None:
            raise ProtocolError(f"{self.name}: doorbell while check in flight")
        data = self.mailbox.collect()
        # The source hart id rides in the first spare payload byte; the
        # check runs against that hart's context.
        hart_id = data[28]
        if hart_id >= self.n_harts:
            raise ProtocolError(
                f"{self.name}: payload tagged with unknown hart "
                f"{hart_id} (serving {self.n_harts})"
            )
        if self.defense is not None:
            owner = self.defense.arbiter.owner
            if owner is not None and owner != hart_id:
                # The payload's source tag disagrees with the hart
                # actually holding the doorbell grant: a spoofed id.
                # Fail safe — quarantine the true sender and answer
                # VIOLATION without letting the forged event anywhere
                # near a policy context (the impersonated hart's shadow
                # state must stay untouched).
                self._fail_safe(owner)
                return
        context = self.policy.context(hart_id) if hart_id else self.policy
        # Monitor faults are scoped per hart: the fault controller and
        # the delivered-check index both follow the tagged source hart
        # (the single-hart controller resolves to itself at index 0).
        ctrl = (
            self.faults.controller(hart_id) if self.faults is not None else None
        )
        check_index = self.hart_stats[hart_id].checks
        if ctrl is not None and ctrl.reset_before(check_index):
            reset = getattr(self.policy, "reset", None)
            if reset is None:
                raise ConfigError(
                    f"{self.name}: monitor-reset fault scheduled but policy "
                    f"{type(self.policy).__name__} has no reset()"
                )
            reset()
        log = CommitLog.unpack(data)
        result = context.check(log)
        violation = result is CheckResult.VIOLATION
        path_key = resolve_path_key(
            log.encoding, violation, getattr(context, "last_event", None)
        )
        ring = self.now
        respond_at = self._schedule(ring, log, path_key)
        extra = getattr(context, "host_extra_cycles", None)
        if extra is not None:
            surcharge = extra(log, result)
            if surcharge < 0:
                raise ConfigError(f"{self.name}: negative host_extra_cycles")
            respond_at += surcharge
        if ctrl is not None:
            respond_at += ctrl.stall_cycles(check_index)
        if respond_at <= ring:
            raise SimulationError(
                f"{self.name}: modelled completion at cycle {respond_at} "
                f"does not follow the doorbell at cycle {ring}"
            )
        self._respond_at = respond_at
        self._verdict = VERDICT_VIOLATION if violation else VERDICT_OK
        self._ring_at = ring
        self._inflight_hart = hart_id
        self._count(hart_id, path_key, violation)
        if self.defense is not None and violation:
            # Repeated violation verdicts from one hart (a doorbell
            # flood's fabricated events, or any persistently compromised
            # stream) trip the strike counter into quarantine.
            self.defense.strike(hart_id)

    def _fail_safe(self, hart_id: int) -> None:
        """Answer a spoofed transmission: VIOLATION after a fixed
        turnaround, charged to ``hart_id`` (the channel's true owner),
        with every policy context left untouched."""
        defense = self.defense
        assert defense is not None
        defense.spoofs_detected += 1
        defense.failsafe_responses += 1
        defense.quarantine(hart_id)
        ring = self.now
        path_key = ("spoof", "fail-safe")
        self._respond_at = ring + FAILSAFE_CYCLES
        self._verdict = VERDICT_VIOLATION
        self._ring_at = ring
        self._inflight_hart = hart_id
        self._count(hart_id, path_key, True)

    def _count(self, hart_id: int, path_key: Tuple[str, str],
               violation: bool) -> None:
        """Count one accepted check on ``hart_id``'s record (a shadow
        check when the boot epoch's mirror keyed it)."""
        hstats = self.hart_stats[hart_id]
        hstats.checks += 1
        if violation:
            hstats.violations += 1
        hstats.by_path[path_key] = hstats.by_path.get(path_key, 0) + 1
        if self._mirror is not None:
            hstats.shadow_checks += 1

    @property
    def stats(self) -> PolicyHostStats:
        """Lifetime totals: the per-hart records summed (latencies in
        hart order, each hart's in ring order)."""
        total = PolicyHostStats()
        for hstats in self.hart_stats:
            total.checks += hstats.checks
            total.violations += hstats.violations
            total.service_latencies += hstats.service_latencies
            total.shadow_checks += hstats.shadow_checks
            for key, count in hstats.by_path.items():
                total.by_path[key] = total.by_path.get(key, 0) + count
        return total

    def _schedule(self, ring: int, log: CommitLog,
                  path_key: Tuple[str, str]) -> int:
        """Firmware-calibrated completion cycle for a ring at ``ring``."""
        model = self.model
        prev = self._prev_respond
        if prev is None:
            if ring < model.boot_tail_start:
                if self.n_harts > 1:
                    # The monitor finishes booting, then services the
                    # pending (level-sensitive) ring as if rung at the
                    # boot tail: a pure function of ring time.  The IRQ
                    # firmware completes it at the boot head (its
                    # interrupt is pending before its ``wfi``);
                    # answering it there moves the multi-hart rows.
                    ring = model.boot_tail_start
                else:
                    # The doorbell beat the RoT boot sequence.  Until
                    # the first steady-length gap the firmware's own
                    # shadow stack, not the host policy, picks its check
                    # paths: mirror it.
                    self._mirror = ShadowStackPolicy(_LAYOUT.ss_capacity,
                                                     _LAYOUT.spill_entries)
                    path_key = self._mirror_key(log)
            self._state = model.boot_state(ring)
            return model.boot_response(ring, path_key)
        offset = ring - prev
        if self._mirror is not None:
            if offset < model.steady_threshold:
                path_key = self._mirror_key(log)
            else:
                # A steady-length gap: the firmware is provably back in
                # its cyclic idle regime, and the host policy keys the
                # check paths.
                self._mirror = None
        state = self._state
        self._state = model.next_state(state, offset)
        return model.steady_response(ring, prev, state, path_key)

    def _mirror_key(self, log: CommitLog) -> Tuple[str, str]:
        """Check ``log`` on the boot epoch's firmware mirror; returns the
        firmware's path key."""
        mirror = self._mirror
        violation = mirror.check(log) is CheckResult.VIOLATION
        return resolve_path_key(log.encoding, violation, mirror.last_event)

    def _respond(self) -> None:
        self.mailbox.respond(self._verdict)
        self.hart_stats[self._inflight_hart].service_latencies.append(
            self.now - self._ring_at
        )
        self._prev_respond = self.now
        self._respond_at = None
        if self.defense is not None:
            # Arm the arbiter-hold watchdog: the grant must move on
            # (release observed via the arbiter's change counter) within
            # the budget, or the owner is a squatter.  The deadline is a
            # pure function of the respond cycle, so both engines fire
            # it on the same cycle.
            self._watch_at = self.now + HOLD_BUDGET
            self._watch_count = self.defense.arbiter.change_count

    def _fire_watchdog(self) -> None:
        defense = self.defense
        assert defense is not None
        self._watch_at = None
        arbiter = defense.arbiter
        if arbiter.change_count != self._watch_count:
            return  # the channel moved on: a healthy handshake tail
        owner = arbiter.owner
        if owner is None:
            return
        # The grant has not budged since the completion: quarantine the
        # squatter and force the channel back into rotation so starved
        # peers resume.
        defense.quarantine(owner)
        arbiter.force_release(owner)
        defense.holds_released += 1

    # -- scheduling contract (same shape as the log writer's) ----------------

    def tick(self) -> None:
        """Advance one cycle; completes the in-flight check on its cycle."""
        self.now += 1
        if self._respond_at == self.now:
            self._respond()
        if self._watch_at == self.now:
            self._fire_watchdog()

    @property
    def parked(self) -> bool:
        """True when no check is in flight and no watchdog is armed
        (only a doorbell can act)."""
        return self._respond_at is None and self._watch_at is None

    def skippable_cycles(self) -> int:
        """Cycles :meth:`tick` can fast-forward with no state change."""
        bound = UNBOUNDED
        if self._respond_at is not None:
            bound = self._respond_at - self.now - 1
        if self._watch_at is not None:
            bound = min(bound, self._watch_at - self.now - 1)
        return bound

    def skip(self, cycles: int) -> None:
        """Jump ``cycles`` no-change cycles (caller respects the bound)."""
        if cycles <= 0:
            return
        if self._respond_at is not None and self.now + cycles >= self._respond_at:
            raise SimulationError(
                f"{self.name}: skip of {cycles} cycles crosses the pending "
                f"completion at cycle {self._respond_at}"
            )
        if self._watch_at is not None and self.now + cycles >= self._watch_at:
            raise SimulationError(
                f"{self.name}: skip of {cycles} cycles crosses the watchdog "
                f"deadline at cycle {self._watch_at}"
            )
        self.now += cycles

    def stats_summary(self) -> dict:
        """Aggregated statistics for reports and tests."""
        total = self.stats
        summary = {
            "checks": total.checks,
            "violations": total.violations,
            "mean_service_latency": total.mean_service_latency,
            "shadow_checks": total.shadow_checks,
            "by_path": total.by_path,
            "per_hart": [
                {
                    "hart": i,
                    "checks": hstats.checks,
                    "violations": hstats.violations,
                    "mean_service_latency": hstats.mean_service_latency,
                    "by_path": dict(hstats.by_path),
                }
                for i, hstats in enumerate(self.hart_stats)
            ],
        }
        if self.defense is not None:
            summary["defense"] = self.defense.summary()
        return summary


def mount_policy_host(soc, policy: Policy, variant: str = "irq",
                      model: Optional[ResponseModel] = None,
                      defense: bool = False) -> PolicyHost:
    """Mount ``policy`` as the SoC's mailbox agent (replacing firmware).

    The RoT's Ibex core is left frozen (the co-simulator detects the
    mounted host and stops scheduling it); the host takes over the CFI
    mailbox's doorbell callback and answers with the timing model
    calibrated for ``variant`` on the SoC's fabric profile.

    Args:
        soc: a :class:`repro.system.soc.TitanCfiSoc`.
        policy: the Python policy to enforce.
        variant: firmware variant whose timing to reproduce
            (``"irq"`` or ``"polling"``).
        model: calibration override (defaults to the memoised model for
            the SoC's fabric and wake latency).
        defense: mount the cross-hart :class:`MonitorDefense` layer
            (spoof detection, flood strikes, arbiter-hold watchdog).
            Requires a multi-hart SoC; off by default so every historic
            run stays cycle-identical.

    Returns:
        the mounted :class:`PolicyHost` (also at ``soc.policy_host``).
    """
    if soc.policy_host is not None:
        raise ConfigError("SoC already has a policy host mounted")
    if model is None:
        config = soc.rot.config
        model = calibrate(variant=variant, fabric=config.fabric,
                          wake_cycles=config.wake_cycles)
    host = PolicyHost(policy, soc.cfi_mailbox, model, n_harts=soc.n_harts,
                      arbiter=soc.doorbell_arbiter, defense=defense,
                      stages=soc.cfi_stages)
    soc.policy_host = host
    return host
