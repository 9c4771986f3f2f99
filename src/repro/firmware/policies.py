"""Python-level reference CFI policies.

These are executable specifications of the firmware's behaviour, used
three ways:

* differential testing — the assembly firmware and the reference policy
  must return the same verdict on the same commit-log stream;
* the trace-driven overhead model, which needs policy semantics without
  paying for instruction-level simulation;
* the paper's "any policy in software" claim — the forward-edge policy
  demonstrates a second policy with zero hardware change.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.core.commit_log import CommitLog
from repro.errors import ConfigError, check_int
from repro.isa.cflow import CfKind
from repro.opentitan.crypto.accel import HmacAccelerator


class CheckResult(enum.Enum):
    """Verdict of one policy check (the value written to MB_RESULT)."""

    OK = 0
    VIOLATION = 1


class Policy(Protocol):
    """A CFI enforcement policy running in the RoT."""

    def check(self, log: CommitLog) -> CheckResult:
        """Process one commit log; returns the verdict."""
        ...


#: Values of the optional ``last_event`` attribute a policy may expose
#: after each :meth:`check`.  The policy-host cycle model uses it to
#: select the firmware code path a check corresponds to (a shadow-stack
#: underflow takes a shorter firmware path than a pop-and-mismatch, so
#: the two must be charged differently); policies without the attribute
#: are charged the verdict-derived default path.
EVENT_PUSH = "push"            # call: entry pushed
EVENT_SPILL = "spill"          # call: overflow spill, then push
EVENT_POP = "pop"              # return: popped and matched
EVENT_MISMATCH = "mismatch"    # return: popped, target mismatch
EVENT_UNDERFLOW = "underflow"  # return: nothing to pop (and no spill)
EVENT_RESTORE = "restore"      # return: spill block restored first
EVENT_SKIP = "skip"            # event the policy does not constrain


#: Static-oracle rule families (the ``oracle_rule`` class attribute each
#: policy exposes).  The scenario-synthesis oracle
#: (:mod:`repro.synth.oracle`) predicts a policy's verdict on a generated
#: program *without running it* by replaying the program's statically
#: derived control-flow event stream through the rule the policy declares
#: here — so a policy and its oracle prediction are tied together at the
#: policy's definition site, not in a hand-maintained table elsewhere.
ORACLE_RETURN_EXACT = "return-exact"      # returns must match the pushed address
ORACLE_FORWARD_ENTRY = "forward-entry"    # indirect transfers must hit a
                                          # registered entry point
ORACLE_COARSE_PAIRED = "coarse-paired"    # returns call-preceded; indirect
                                          # transfers to *some* function entry


class PerHartContextMixin:
    """Per-hart shadow contexts for multi-hart monitors.

    One monitor protecting N application harts keeps N independent
    policy states — hart 1's calls must not satisfy hart 0's returns.
    The policy instance itself *is* the hart-0 context (so single-hart
    code paths are untouched); :meth:`context` lazily spawns a sibling
    per additional hart, and :meth:`install_context` lets the campaign
    runner provision contexts whose configuration (label sets derived
    from per-hart program addresses) differs per hart.
    """

    def _spawn_context(self):
        """Build a fresh sibling sharing this policy's configuration."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot spawn per-hart contexts"
        )

    def context(self, hart_id: int):
        """The policy state charged with application hart ``hart_id``."""
        if hart_id == 0:
            return self
        contexts = self.__dict__.setdefault("_contexts", {})
        ctx = contexts.get(hart_id)
        if ctx is None:
            ctx = self._spawn_context()
            contexts[hart_id] = ctx
        return ctx

    def install_context(self, hart_id: int, policy) -> None:
        """Provision an externally-built context for ``hart_id > 0``."""
        if hart_id == 0:
            raise ConfigError("hart 0's context is the policy itself")
        self.__dict__.setdefault("_contexts", {})[hart_id] = policy

    def reset_contexts(self) -> None:
        """Reset every spawned/installed sibling (monitor-reset fault:
        the whole monitor reboots, so every hart's state is lost)."""
        for ctx in self.__dict__.get("_contexts", {}).values():
            reset = getattr(ctx, "reset", None)
            if reset is not None:
                reset()


@dataclass
class PolicyStats:
    """Counters every policy keeps."""

    checks: int = 0
    calls: int = 0
    returns: int = 0
    indirect_jumps: int = 0
    violations: int = 0
    spills: int = 0
    restores: int = 0


class ShadowStackPolicy(PerHartContextMixin):
    """Return-address protection via a shadow stack (paper §V-B).

    The resident stack lives in (modelled) RoT scratchpad; on overflow
    the oldest ``spill_entries`` are MAC'd with the HMAC accelerator and
    moved to untrusted memory, mirroring the assembly firmware.  Restore
    verifies the tag; any mismatch (tampering) is a violation.

    Args:
        capacity: resident stack entries before a spill.
        spill_entries: entries moved per spill.
        accel: HMAC accelerator (shared with the RoT model when used
            inside the SoC; a private one otherwise).
        key: MAC key held in tamper-proof storage.
    """

    #: Static-oracle rule (see the EVENT_*/ORACLE_* block above).
    oracle_rule = ORACLE_RETURN_EXACT

    #: Degradation-contract class: the verdict depends on accumulated
    #: runtime state, so a monitor reset can flip later verdicts (see
    #: :mod:`repro.faults.contract`).
    monitor_state = "stateful"

    def __init__(
        self,
        capacity: int = 1024,
        spill_entries: Optional[int] = None,
        accel: Optional[HmacAccelerator] = None,
        key: bytes = b"titancfi-device-key",
    ):
        check_int("capacity", capacity, 2)
        self.capacity = capacity
        self.spill_entries = spill_entries or capacity // 2
        check_int("spill_entries", self.spill_entries, 1)
        if self.spill_entries > capacity:
            raise ConfigError("spill_entries must be in (0, capacity]")
        self.accel = accel or HmacAccelerator()
        self.key = key
        self.stack: List[int] = []
        #: Untrusted spill storage: list of (packed entries, tag).
        self.spill_area: List[Tuple[bytes, bytes]] = []
        self.stats = PolicyStats()
        #: Firmware code path of the most recent check (see EVENT_*).
        self.last_event: str = EVENT_SKIP

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _pack(entries: List[int]) -> bytes:
        return b"".join(e.to_bytes(8, "little") for e in entries)

    @staticmethod
    def _unpack(blob: bytes) -> List[int]:
        return [
            int.from_bytes(blob[i : i + 8], "little") for i in range(0, len(blob), 8)
        ]

    def _spill(self) -> None:
        victim = self.stack[: self.spill_entries]
        self.stack = self.stack[self.spill_entries :]
        blob = self._pack(victim)
        tag = self.accel.compute_hmac(self.key, blob)
        self.spill_area.append((blob, tag))
        self.stats.spills += 1

    def _restore(self) -> bool:
        """Pull the newest spill block back; False on tag mismatch."""
        blob, tag = self.spill_area.pop()
        fresh = self.accel.compute_hmac(self.key, blob)
        if not hmac.compare_digest(fresh, tag):
            return False
        self.stack = self._unpack(blob) + self.stack
        self.stats.restores += 1
        return True

    def reset(self) -> None:
        """Return to the boot state (mid-run monitor-reset fault)."""
        self.stack = []
        self.spill_area = []
        self.last_event = EVENT_SKIP
        self.reset_contexts()

    def _spawn_context(self) -> "ShadowStackPolicy":
        return ShadowStackPolicy(
            self.capacity, self.spill_entries, accel=self.accel, key=self.key
        )

    # -- policy interface ---------------------------------------------------------

    def check(self, log: CommitLog) -> CheckResult:
        """Shadow-stack semantics for one control-flow event."""
        self.stats.checks += 1
        kind = log.kind
        if kind is CfKind.CALL:
            self.stats.calls += 1
            if len(self.stack) >= self.capacity:
                self._spill()
                self.last_event = EVENT_SPILL
            else:
                self.last_event = EVENT_PUSH
            self.stack.append(log.next_address)
            return CheckResult.OK
        if kind is CfKind.RETURN:
            self.stats.returns += 1
            self.last_event = EVENT_POP
            if not self.stack:
                if not self.spill_area:
                    self.last_event = EVENT_UNDERFLOW
                    self.stats.violations += 1
                    return CheckResult.VIOLATION
                if not self._restore():
                    self.last_event = EVENT_RESTORE
                    self.stats.violations += 1
                    return CheckResult.VIOLATION
                self.last_event = EVENT_RESTORE
            expected = self.stack.pop()
            if expected != log.target:
                if self.last_event == EVENT_POP:
                    self.last_event = EVENT_MISMATCH
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.INDIRECT_JUMP:
            # Return-address protection does not constrain forward edges.
            self.stats.indirect_jumps += 1
            self.last_event = EVENT_SKIP
            return CheckResult.OK
        self.last_event = EVENT_SKIP
        return CheckResult.OK

    @property
    def depth(self) -> int:
        """Total protected depth (resident + spilled)."""
        return len(self.stack) + sum(
            len(blob) // 8 for blob, _ in self.spill_area
        )

    def tamper_spill(self, block: int = -1, byte: int = 0) -> None:
        """Corrupt one spilled byte (attack-simulation hook)."""
        blob, tag = self.spill_area[block]
        damaged = bytearray(blob)
        damaged[byte] ^= 0xFF
        self.spill_area[block] = (bytes(damaged), tag)


class ForwardEdgePolicy(PerHartContextMixin):
    """Label-based forward-edge CFI (the paper's "any policy" claim).

    Indirect transfers (indirect calls and jumps) must land on an
    address registered as a valid entry point.  Returns are ignored —
    compose with :class:`ShadowStackPolicy` for full coverage.
    """

    oracle_rule = ORACLE_FORWARD_ENTRY

    #: The label set is provisioned configuration, not accumulated
    #: state — a monitor reset cannot change any later verdict.
    monitor_state = "stateless"

    def __init__(self, valid_targets: Optional[Set[int]] = None):
        self.valid_targets: Set[int] = set(valid_targets or ())
        self.stats = PolicyStats()

    def allow(self, target: int) -> None:
        """Register a legitimate entry point."""
        self.valid_targets.add(target)

    def reset(self) -> None:
        """Boot state == provisioned state: nothing to clear."""
        self.reset_contexts()

    def _spawn_context(self) -> "ForwardEdgePolicy":
        # Default sibling inherits the provisioned labels; harts whose
        # programs live at different addresses get theirs provisioned by
        # the campaign runner through install_context instead.
        return ForwardEdgePolicy(self.valid_targets)

    def check(self, log: CommitLog) -> CheckResult:
        self.stats.checks += 1
        kind = log.kind
        if kind is CfKind.INDIRECT_JUMP:
            self.stats.indirect_jumps += 1
            if log.target not in self.valid_targets:
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.CALL:
            self.stats.calls += 1
            # Only *indirect* calls (JALR) are constrained; direct JAL
            # targets are immediate-encoded and statically verified.
            if (log.encoding & 0x7F) == 0x67 and log.target not in self.valid_targets:
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.RETURN:
            self.stats.returns += 1
        return CheckResult.OK


class CoarseGrainedPolicy(PerHartContextMixin):
    """Coarse-grained CFI in the style of the early binary-level schemes
    (Burow et al.'s survey, categories with label granularity "any").

    Two relaxed target sets:

    * returns must land on a *call-preceded* address (any valid return
      site in the program — not necessarily the one that was pushed);
    * indirect calls and jumps must land on *some* function entry (not
      necessarily a registered indirect-transfer target).

    This is the precision/security trade-off the campaign matrix
    measures: a corrupted return aimed at another valid call site, or an
    indirect call hijacked to a different whole function, both pass.
    """

    oracle_rule = ORACLE_COARSE_PAIRED

    #: Return sites learned from observed calls are accumulated state.
    monitor_state = "stateful"

    def __init__(
        self,
        valid_return_sites: Optional[Set[int]] = None,
        valid_entries: Optional[Set[int]] = None,
    ):
        self.valid_return_sites: Set[int] = set(valid_return_sites or ())
        self.valid_entries: Set[int] = set(valid_entries or ())
        # Boot-state snapshot for monitor-reset faults: the sites
        # learned from observed calls are lost, the provisioned ones are
        # not (they would be re-derived from the binary at boot).
        self._provisioned_return_sites = frozenset(self.valid_return_sites)
        self.stats = PolicyStats()

    def reset(self) -> None:
        """Drop runtime-learned return sites (mid-run monitor reset)."""
        self.valid_return_sites = set(self._provisioned_return_sites)
        self.reset_contexts()

    def _spawn_context(self) -> "CoarseGrainedPolicy":
        return CoarseGrainedPolicy(
            self._provisioned_return_sites, self.valid_entries
        )

    def allow_return_site(self, address: int) -> None:
        """Register a call-preceded address (a legal coarse return target)."""
        self.valid_return_sites.add(address)

    def allow_entry(self, address: int) -> None:
        """Register a function entry (a legal coarse forward-edge target)."""
        self.valid_entries.add(address)

    def check(self, log: CommitLog) -> CheckResult:
        self.stats.checks += 1
        kind = log.kind
        if kind is CfKind.CALL:
            self.stats.calls += 1
            # Every call fall-through is by definition call-preceded.
            self.valid_return_sites.add(log.next_address)
            if (log.encoding & 0x7F) == 0x67 and log.target not in self.valid_entries:
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.RETURN:
            self.stats.returns += 1
            if log.target not in self.valid_return_sites:
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.INDIRECT_JUMP:
            self.stats.indirect_jumps += 1
            if log.target not in self.valid_entries:
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        return CheckResult.OK


class CompositePolicy(PerHartContextMixin):
    """Run several policies on each log; any violation wins."""

    #: Most-specific-first precedence for the composite's own
    #: ``last_event``: structural events (spill/restore/underflow) must
    #: win over plain push/pop so the policy host's path selection (and
    #: its fail-loud guard for uncalibrated paths) sees them.
    _EVENT_PRECEDENCE = (EVENT_SPILL, EVENT_RESTORE, EVENT_UNDERFLOW,
                         EVENT_MISMATCH, EVENT_POP, EVENT_PUSH)

    def __init__(self, policies: List[Policy]):
        if not policies:
            raise ConfigError("composite policy needs at least one member")
        self.policies = policies
        self.stats = PolicyStats()
        self.last_event: str = EVENT_SKIP

    @property
    def monitor_state(self) -> str:
        """Stateful iff any member is (a reset perturbs that member)."""
        return (
            "stateful"
            if any(
                getattr(p, "monitor_state", "stateful") == "stateful"
                for p in self.policies
            )
            else "stateless"
        )

    def reset(self) -> None:
        """Reset every member that carries runtime state."""
        for policy in self.policies:
            reset = getattr(policy, "reset", None)
            if reset is not None:
                reset()
        self.last_event = EVENT_SKIP
        self.reset_contexts()

    def _spawn_context(self) -> "CompositePolicy":
        members = []
        for policy in self.policies:
            spawn = getattr(policy, "_spawn_context", None)
            if spawn is None:
                raise ConfigError(
                    f"composite member {type(policy).__name__} cannot "
                    "spawn per-hart contexts"
                )
            members.append(spawn())
        return CompositePolicy(members)

    @property
    def oracle_rules(self) -> Tuple[str, ...]:
        """Static-oracle rules of every member (any firing rule wins,
        mirroring :meth:`check`'s any-violation semantics)."""
        return tuple(
            rule for policy in self.policies
            for rule in (getattr(policy, "oracle_rule", None),)
            if rule is not None
        )

    def check(self, log: CommitLog) -> CheckResult:
        self.stats.checks += 1
        verdict = CheckResult.OK
        events = []
        for policy in self.policies:
            if policy.check(log) is CheckResult.VIOLATION:
                verdict = CheckResult.VIOLATION
            events.append(getattr(policy, "last_event", EVENT_SKIP))
        self.last_event = next(
            (event for event in self._EVENT_PRECEDENCE if event in events),
            EVENT_SKIP,
        )
        if verdict is CheckResult.VIOLATION:
            self.stats.violations += 1
        return verdict

    def host_extra_cycles(self, log: CommitLog, verdict: CheckResult) -> int:
        """Mailbox-agent surcharge: the sum of every member's surcharge
        (a firmware running several policies pays each one's extra work
        per check)."""
        total = 0
        for policy in self.policies:
            extra = getattr(policy, "host_extra_cycles", None)
            if extra is not None:
                total += extra(log, verdict)
        return total


#: Member policies of the campaign's standard ``composite`` cell.  The
#: single source of truth shared by the campaign runner (which
#: instantiates them with resolved label sets) and the synthesis
#: oracle's rule table (which reads their ``oracle_rule`` hooks) — the
#: two can therefore never drift apart.
COMPOSITE_MEMBERS: Tuple[type, ...] = (ShadowStackPolicy, ForwardEdgePolicy)


class CryptoReturnPolicy(PerHartContextMixin):
    """MAC-authenticated return addresses, in the spirit of CCFI
    (Mashtizadeh et al.): instead of hiding the shadow stack in trusted
    scratchpad, every pushed return address is *tagged* with an HMAC
    over ``(address, stack position)`` under the device key, so the
    whole structure could live in untrusted memory — tampering with
    either an address or its position is detected when the tag is
    re-verified on return.

    This policy exists to exercise the policy-host subsystem with an
    enforcement scheme the RV32 firmware does **not** implement: it
    runs on the cosim backend only as a mailbox agent
    (:class:`repro.policyhost.PolicyHost`), paying a modelled HMAC
    surcharge per call/return on top of the firmware-derived per-event
    costs (see :meth:`host_extra_cycles`).

    Args:
        accel: HMAC accelerator (shared with the RoT model when used
            inside the SoC; a private one otherwise).
        key: MAC key held in tamper-proof storage.
    """

    #: Same detection envelope as the shadow stack: exact return-edge
    #: protection (the MAC changes *how*, not *what*, is enforced).
    oracle_rule = ORACLE_RETURN_EXACT

    #: The tag table is accumulated runtime state.
    monitor_state = "stateful"

    #: Modelled accelerator cost of one MAC over a (address, position)
    #: record on the standard RoT fabric: 4 message words + length +
    #: command + status poll + 8 digest reads ≈ 15 scratchpad-latency
    #: accesses at ~5 cycles, plus bookkeeping logic.
    MAC_CYCLES = 85
    #: A return additionally compares the 8-word tag (loads + xor/or).
    VERIFY_EXTRA_CYCLES = 18

    def __init__(
        self,
        accel: Optional[HmacAccelerator] = None,
        key: bytes = b"titancfi-device-key",
    ):
        self.accel = accel or HmacAccelerator()
        self.key = key
        #: Untrusted storage: (return address, tag) per frame.
        self.table: List[Tuple[int, bytes]] = []
        self.stats = PolicyStats()
        self.last_event: str = EVENT_SKIP

    def _tag(self, address: int, position: int) -> bytes:
        record = address.to_bytes(8, "little") + position.to_bytes(8, "little")
        return self.accel.compute_hmac(self.key, record)

    def reset(self) -> None:
        """Return to the boot state (mid-run monitor-reset fault)."""
        self.table = []
        self.last_event = EVENT_SKIP
        self.reset_contexts()

    def _spawn_context(self) -> "CryptoReturnPolicy":
        return CryptoReturnPolicy(accel=self.accel, key=self.key)

    def check(self, log: CommitLog) -> CheckResult:
        self.stats.checks += 1
        kind = log.kind
        if kind is CfKind.CALL:
            self.stats.calls += 1
            self.last_event = EVENT_PUSH
            address = log.next_address
            self.table.append((address, self._tag(address, len(self.table))))
            return CheckResult.OK
        if kind is CfKind.RETURN:
            self.stats.returns += 1
            if not self.table:
                self.last_event = EVENT_UNDERFLOW
                self.stats.violations += 1
                return CheckResult.VIOLATION
            self.last_event = EVENT_POP
            address, tag = self.table.pop()
            fresh = self._tag(address, len(self.table))
            if not hmac.compare_digest(fresh, tag):
                # The stored record was tampered with in untrusted memory.
                self.last_event = EVENT_MISMATCH
                self.stats.violations += 1
                return CheckResult.VIOLATION
            if address != log.target:
                self.last_event = EVENT_MISMATCH
                self.stats.violations += 1
                return CheckResult.VIOLATION
            return CheckResult.OK
        if kind is CfKind.INDIRECT_JUMP:
            self.stats.indirect_jumps += 1
        self.last_event = EVENT_SKIP
        return CheckResult.OK

    def host_extra_cycles(self, log: CommitLog, verdict: CheckResult) -> int:
        """Cycles a mailbox-agent check pays beyond the shadow-stack
        firmware's measured per-event cost: one accelerator MAC per
        call (tag) and per return (re-verify + constant-time compare)."""
        kind = log.kind
        if kind is CfKind.CALL:
            return self.MAC_CYCLES
        if kind is CfKind.RETURN and self.last_event != EVENT_UNDERFLOW:
            return self.MAC_CYCLES + self.VERIFY_EXTRA_CYCLES
        return 0

    @property
    def depth(self) -> int:
        """Protected return-address depth."""
        return len(self.table)

    def tamper(self, frame: int = -1) -> None:
        """Corrupt one stored return address (attack-simulation hook):
        the tag no longer matches, so the next return through the frame
        is flagged even if the attacker aims at the original address."""
        address, tag = self.table[frame]
        self.table[frame] = (address ^ 0x10, tag)
