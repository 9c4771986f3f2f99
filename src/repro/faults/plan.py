"""Fault plans: seed-deterministic, JSON-able fault schedules.

A :class:`FaultPlan` is a tuple of :class:`FaultEvent`\\ s, each naming a
fault *kind* and the event-occurrence index it fires at.  Transport
faults index the log writer's queue pops (the Nth CFI event leaving the
queue); monitor faults index the monitor's delivered checks (the Nth
doorbell the policy host services).  Indexing occurrences instead of
cycles is what makes faulted runs engine-invariant for free: both
engines pop/service events at identical cycles, so the same occurrence
index fires at the same cycle everywhere.

Fault kinds
-----------

``doorbell-drop``
    The Nth popped event is lost in transit: the payload never reaches
    the mailbox and no doorbell rings.  (Modelled at the pop so the
    writer FSM never enters its WAIT state for an event nobody will
    service — a literal dropped doorbell with a delivered payload
    would deadlock the handshake, which the real SoC resolves with a
    watchdog we do not model.)
``doorbell-dup``
    The Nth popped event is delivered, then delivered *again* verbatim
    immediately after its verdict returns — a replayed doorbell.
``event-corrupt``
    The Nth popped event's target word is XORed with a non-zero mask
    before transmission (transport bit-flips).  Only ``target`` is
    corrupted so the encoding word — and hence the event's kind — stays
    valid.
``monitor-stall``
    The monitor's response to the Nth delivered check is delayed by
    ``param`` cycles (late wake / scheduling jitter inside the RoT).
``monitor-reset``
    The monitor's policy state is reset to its boot state immediately
    before servicing the Nth delivered check (mid-run RoT reset).

Adversarial kinds (compromised-hart model)
------------------------------------------

The three ``hart-*``/``doorbell-flood``/``arbiter-hold`` kinds model a
*compromised application hart* rather than a faulty transport; they
need a multi-hart topology (a lone hart has no peers to attack) and a
policy-host monitor to defend against them:

``hart-spoof``
    The Nth popped event's source-hart id (the spare payload byte) is
    rewritten to ``param`` before transmission — the compromised hart
    masquerades as a peer on the shared mailbox.
``doorbell-flood``
    Starting at the Nth popped event, the compromised hart's writer
    injects ``param`` fabricated control-flow events (forged returns)
    back-to-back, hammering the doorbell arbiter to crowd peers out of
    monitor bandwidth.
``arbiter-hold``
    After its Nth event's verdict returns, the compromised hart never
    releases its doorbell grant — it squats on the shared channel.

Hart scoping
------------

Every event optionally carries a ``hart`` scope naming the writer whose
event stream its index counts.  Single-hart plans may leave it ``None``
(the historic form); attaching an unscoped plan to a multi-hart SoC is
a :class:`repro.errors.FaultPlanError` (it would silently fault hart 0),
and a scope outside the topology raises
:class:`repro.errors.UnknownHartError`.  :meth:`FaultPlan.scoped`
rescopes a whole plan in one call.

Named plans
-----------

:data:`FAULT_PLANS` registers named plan builders; :func:`build_plan`
derives every random choice from ``sha256("fault:{name}:{seed}")`` so a
campaign scenario's fault schedule is a pure function of its name and
derived seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.errors import FaultPlanError, check_int

FAULT_DOORBELL_DROP = "doorbell-drop"
FAULT_DOORBELL_DUP = "doorbell-dup"
FAULT_EVENT_CORRUPT = "event-corrupt"
FAULT_MONITOR_STALL = "monitor-stall"
FAULT_MONITOR_RESET = "monitor-reset"
FAULT_HART_SPOOF = "hart-spoof"
FAULT_DOORBELL_FLOOD = "doorbell-flood"
FAULT_ARBITER_HOLD = "arbiter-hold"

#: Faults injected on the log-writer transport path (indexed by queue pop).
TRANSPORT_FAULTS = frozenset(
    {FAULT_DOORBELL_DROP, FAULT_DOORBELL_DUP, FAULT_EVENT_CORRUPT}
)
#: Faults injected into the monitor (indexed by delivered check).
MONITOR_FAULTS = frozenset({FAULT_MONITOR_STALL, FAULT_MONITOR_RESET})
#: Compromised-hart kinds (indexed by the attacking writer's queue pops;
#: need a multi-hart topology and a policy-host monitor to defend).
ADVERSARIAL_FAULTS = frozenset(
    {FAULT_HART_SPOOF, FAULT_DOORBELL_FLOOD, FAULT_ARBITER_HOLD}
)

ALL_FAULT_KINDS = TRANSPORT_FAULTS | MONITOR_FAULTS | ADVERSARIAL_FAULTS

_TARGET_MASK_BITS = (1 << 64) - 1
_SPOOF_ID_MAX = 0xFF  # the source-hart id rides in one payload byte


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Args:
        kind: one of the fault kind constants.
        index: 0-based event-occurrence index the fault first fires at.
        count: number of consecutive occurrences affected (a window).
        param: kind-specific parameter — the XOR mask for
            ``event-corrupt``, the stall in cycles for
            ``monitor-stall``, the forged source-hart id for
            ``hart-spoof``, the burst length for ``doorbell-flood``;
            unused (0) otherwise.
        hart: the writer whose event stream ``index`` counts, or
            ``None`` for the historic single-hart (unscoped) form.
    """

    kind: str
    index: int
    count: int = 1
    param: int = 0
    hart: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.index < 0:
            raise FaultPlanError(f"fault index must be >= 0, got {self.index}")
        if self.count < 1:
            raise FaultPlanError(f"fault count must be >= 1, got {self.count}")
        if self.hart is not None and (type(self.hart) is not int or self.hart < 0):
            raise FaultPlanError(
                f"fault hart scope must be a hart id >= 0, got {self.hart!r}"
            )
        if self.kind == FAULT_EVENT_CORRUPT:
            if not 0 < self.param <= _TARGET_MASK_BITS:
                raise FaultPlanError(
                    "event-corrupt needs a non-zero 64-bit XOR mask, "
                    f"got {self.param:#x}"
                )
        elif self.kind == FAULT_MONITOR_STALL:
            if self.param < 1:
                raise FaultPlanError(
                    f"monitor-stall needs a positive cycle delay, got {self.param}"
                )
        elif self.kind == FAULT_HART_SPOOF:
            if not 0 <= self.param <= _SPOOF_ID_MAX:
                raise FaultPlanError(
                    f"hart-spoof needs a forged hart id in 0..{_SPOOF_ID_MAX}, "
                    f"got {self.param}"
                )
        elif self.kind == FAULT_DOORBELL_FLOOD:
            if self.param < 1:
                raise FaultPlanError(
                    f"doorbell-flood needs a positive burst length, got {self.param}"
                )
        elif self.param != 0:
            raise FaultPlanError(
                f"{self.kind} takes no parameter, got {self.param}"
            )

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "index": self.index,
            "count": self.count,
            "param": self.param,
        }
        if self.hart is not None:
            payload["hart"] = self.hart
        return payload

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultEvent":
        try:
            hart = data.get("hart")
            return cls(
                kind=str(data["kind"]),
                index=int(data["index"]),  # type: ignore[arg-type]
                count=int(data.get("count", 1)),  # type: ignore[arg-type]
                param=int(data.get("param", 0)),  # type: ignore[arg-type]
                hart=None if hart is None else int(hart),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault event {data!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one simulation run."""

    events: Tuple[FaultEvent, ...] = ()
    note: str = ""

    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def kinds(self) -> frozenset:
        return frozenset(event.kind for event in self.events)

    @property
    def needs_monitor(self) -> bool:
        """True when the plan needs a policy-host agent — it injects
        monitor faults (the RV32 firmware is opaque to injection) or
        adversarial kinds (only the host mounts the quarantine
        defense)."""
        return bool(self.kinds & (MONITOR_FAULTS | ADVERSARIAL_FAULTS))

    @property
    def adversarial(self) -> bool:
        """True when the plan models a compromised hart (needs N > 1)."""
        return bool(self.kinds & ADVERSARIAL_FAULTS)

    @property
    def hart_scoped(self) -> bool:
        """True when every event names the writer it indexes."""
        return all(event.hart is not None for event in self.events)

    @property
    def harts(self) -> Tuple[int, ...]:
        """Scoped hart ids, ascending (unscoped events contribute none)."""
        return tuple(sorted(
            {event.hart for event in self.events if event.hart is not None}
        ))

    def scoped(self, hart: int) -> "FaultPlan":
        """A copy of the plan with every event scoped to ``hart``."""
        if type(hart) is not int or hart < 0:
            raise FaultPlanError(
                f"fault hart scope must be a hart id >= 0, got {hart!r}"
            )
        return FaultPlan(
            events=tuple(replace(event, hart=hart) for event in self.events),
            note=self.note,
        )

    def for_hart(self, hart: int) -> "FaultPlan":
        """The sub-plan of events scoped to ``hart`` (events left
        unscoped index hart 0's stream, the historic meaning)."""
        return FaultPlan(
            events=tuple(
                event for event in self.events
                if (0 if event.hart is None else event.hart) == hart
            ),
            note=self.note,
        )

    @property
    def total_stall_cycles(self) -> int:
        """Upper bound on extra detection latency the plan's stalls can
        cause (each stalled check is delayed by ``param`` at most once)."""
        return sum(
            event.param * event.count
            for event in self.events
            if event.kind == FAULT_MONITOR_STALL
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "events": [event.to_json() for event in self.events],
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultPlan":
        events = data.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise FaultPlanError(f"fault plan events must be a list, got {events!r}")
        return cls(
            events=tuple(FaultEvent.from_json(e) for e in events),
            note=str(data.get("note", "")),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_json(data)


# -- named plan registry ---------------------------------------------------------


@dataclass(frozen=True)
class PlanSpec:
    """A registered named fault plan.

    Attributes:
        name: registry key (also the campaign scenario name part).
        builder: seeded builder returning the plan's events.
        needs_monitor: True when the plan needs the policy-host agent
            (so the campaign grid can skip firmware-agent cells up
            front).
        note: one-line description for reports.
        adversarial: True for compromised-hart plans, which need a
            multi-hart cell with a hart-scoped attacker (the campaign
            grid keeps them out of single-hart fault sweeps).
    """

    name: str
    builder: Callable[[random.Random], Tuple[FaultEvent, ...]]
    needs_monitor: bool = False
    note: str = ""
    adversarial: bool = False


def _plan_rng(name: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"fault:{name}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _corrupt_mask(rng: random.Random) -> int:
    # A non-zero 16-bit flip pattern somewhere in the low 48 bits —
    # always lands inside the DRAM-resident target addresses the
    # policies compare, so corruption is never a silent no-op mask.
    mask = rng.randrange(1, 1 << 16)
    return mask << rng.randrange(0, 33)


def _drop_first(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(FAULT_DOORBELL_DROP, index=0),)


def _drop_window(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(FAULT_DOORBELL_DROP, index=rng.randrange(1, 4), count=2),)


def _dup_first(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(FAULT_DOORBELL_DUP, index=0),)


def _dup_window(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(FAULT_DOORBELL_DUP, index=rng.randrange(1, 4), count=2),)


def _corrupt_target(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FAULT_EVENT_CORRUPT,
            index=rng.randrange(0, 3),
            param=_corrupt_mask(rng),
        ),
    )


def _stall_late(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FAULT_MONITOR_STALL,
            index=rng.randrange(0, 3),
            param=rng.randrange(120, 481),
        ),
    )


def _stall_burst(rng: random.Random) -> Tuple[FaultEvent, ...]:
    # Queue-overflow stress: stall six consecutive checks so the writer
    # outpaces the monitor and the CFI queue backs up.
    return (
        FaultEvent(
            FAULT_MONITOR_STALL,
            index=0,
            count=6,
            param=rng.randrange(200, 501),
        ),
    )


def _reset_early(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(FAULT_MONITOR_RESET, index=rng.randrange(1, 4)),)


#: Adversarial plans fire late (the compromised hart behaves for its
#: first ~20 events) so every benign peer's *first* detection completes
#: on the shared, still-identical timeline — that is what lets the
#: per-hart contract demand bit-identical benign verdicts and latencies
#: against the adversary-free baseline.
_ADVERSARIAL_ONSET = (20, 25)


def _xhart_spoof(rng: random.Random) -> Tuple[FaultEvent, ...]:
    # Masquerade as hart 0: the forged id differs from any attacker the
    # campaign places on harts >= 1, so the monitor's owner/tag
    # inconsistency check always has something to see.
    return (
        FaultEvent(
            FAULT_HART_SPOOF,
            index=rng.randrange(*_ADVERSARIAL_ONSET),
            param=0,
        ),
    )


def _xhart_flood(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FAULT_DOORBELL_FLOOD,
            index=rng.randrange(*_ADVERSARIAL_ONSET),
            param=rng.randrange(4, 9),
        ),
    )


def _xhart_hold(rng: random.Random) -> Tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            FAULT_ARBITER_HOLD,
            index=rng.randrange(*_ADVERSARIAL_ONSET),
        ),
    )


FAULT_PLANS: Dict[str, PlanSpec] = {
    spec.name: spec
    for spec in (
        PlanSpec("drop-first", _drop_first,
                 note="lose the very first CFI event in transit"),
        PlanSpec("drop-window", _drop_window,
                 note="lose two consecutive early events"),
        PlanSpec("dup-first", _dup_first,
                 note="replay the first event's doorbell"),
        PlanSpec("dup-window", _dup_window,
                 note="replay two consecutive early events"),
        PlanSpec("corrupt-target", _corrupt_target,
                 note="flip bits in an early event's target word"),
        PlanSpec("stall-late", _stall_late, needs_monitor=True,
                 note="delay one check's monitor response"),
        PlanSpec("stall-burst", _stall_burst, needs_monitor=True,
                 note="stall six consecutive checks (queue back-pressure)"),
        PlanSpec("reset-early", _reset_early, needs_monitor=True,
                 note="reset the monitor's policy state mid-run"),
        PlanSpec("xhart-spoof", _xhart_spoof, needs_monitor=True,
                 adversarial=True,
                 note="compromised hart forges its source-hart id"),
        PlanSpec("xhart-flood", _xhart_flood, needs_monitor=True,
                 adversarial=True,
                 note="compromised hart floods the doorbell with "
                      "fabricated events"),
        PlanSpec("xhart-hold", _xhart_hold, needs_monitor=True,
                 adversarial=True,
                 note="compromised hart never releases its doorbell grant"),
    )
}


def build_plan(name: str, seed: int) -> FaultPlan:
    """Materialise the named plan for ``seed`` (pure and deterministic).

    ``seed`` must be an ``int`` >= 0 (a ``bool`` is not one): the plan
    is drawn from a stream named after its text, so ``True`` and ``1``
    would otherwise name two different plans.  Anything else raises
    :class:`~repro.errors.ConfigError`.
    """
    check_int("seed", seed, 0)
    try:
        spec = FAULT_PLANS[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown fault plan {name!r}; known: {', '.join(sorted(FAULT_PLANS))}"
        ) from None
    events = spec.builder(_plan_rng(name, seed))
    return FaultPlan(events=events, note=spec.note)
