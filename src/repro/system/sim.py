"""Cycle-interleaved co-simulation of host core(s), CFI stage(s) and RoT.

The simulator advances a global cycle counter.  Each hart carries a
cycle *debt*: after retiring an instruction costing N cycles it stays
busy for N global ticks.  The CFI log-writer FSM ticks every cycle.
This interleaving is what lets the reproduction observe the paper's
end-to-end behaviour: CVA6 stalling on a full CFI queue while Ibex is
still busy checking, the doorbell→wake latency, and the completion
hand-back — all in one coherent timeline.

Every clocked agent answers one protocol — ``tick()``,
``skippable_cycles()`` and ``skip(n)``: each application hart behind
its commit stage and the Ibex RoT core (both as a :class:`HartSlot`),
the policy host, and every CFI stage.  Per cycle the agents tick in a
fixed order: the application harts in hart-id order, then the RoT core
/ policy host, then every CFI stage in hart-id order.  Both engines
replay that order identically, which is what makes the shared-mailbox
doorbell arbitration deterministic.

The batched engine pays per CFI event, not per agent.  It keeps one
absolute *due cycle* per agent (the first cycle on which its tick can
change state), jumps the clock straight to the earliest one and ticks
only the agents due then; every other agent is settled lazily, with one
``skip``, when it next ticks, when it is woken, or when
:meth:`SystemSimulator.advance` returns.  After a real tick only the
agents that tick can change are re-polled (the *wake fan-out*, fixed by
the platform): a hart wakes its CFI stage; a stage wakes its hart, the
monitor and, when the doorbell grant moves, the stage it moves to; the
policy host wakes the stage awaiting its completion; Ibex, and a host
with the cross-hart defense or faults attached, wake every stage (the
host: every agent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.log_writer import LogWriter
from repro.cva6.commit import CommitStage
from repro.errors import CfiViolation, ConfigError, SimulationError, check_int
from repro.hart.core import Hart, StepResult
from repro.system.soc import TitanCfiSoc


@dataclass
class SimulationReport:
    """Outcome of one co-simulated run.

    Attributes:
        cycles: global cycles until the host halted (and the CFI path
            drained).
        host_instructions: instructions the application harts retired.
        host_stall_cycles: cycles the commit stage was inhibited
            (summed over application harts).
        violation: the CFI violation that ended the run, if any (in
            multi-hart runs: the raised one, else the lowest-hart
            latched fault).
        cfi: CFI stage statistics summed over the stages (empty when
            CFI is absent); one hart's equals its stage's own summary.
        ibex_instructions: instructions the RoT core retired.
        detection_latency: cycles from the first violating commit log
            entering the mailbox path to its verdict — stable even when
            violations are latched rather than raised — or ``None`` when
            no violation was flagged.
        faults: fault-injection statistics when a fault controller was
            attached to the SoC (see :mod:`repro.faults`), else ``None``.
        per_hart: one dict per application hart, one-hart runs
            included: instructions, stalls, verdict, violation kind,
            latency, quarantine latch and that hart's CFI stats.  The
            headline fields are derived from these entries.
    """

    cycles: int
    host_instructions: int
    host_stall_cycles: int
    violation: Optional[CfiViolation]
    cfi: Dict[str, object] = field(default_factory=dict)
    ibex_instructions: int = 0
    detection_latency: Optional[int] = None
    faults: Optional[Dict[str, object]] = None
    per_hart: List[Dict[str, object]] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """True when a CFI violation was flagged."""
        return self.violation is not None


#: CFI-stage counters a report sums over the harts.
_SUMMED = ("examined", "selected", "full_stalls", "dropped", "logs_sent",
           "checks_completed", "violations")


#: Skip bound meaning "this agent cannot originate the next event"
#: (shared with the log writer so its parked-state sentinel compares
#: correctly against hart bounds).
_UNBOUNDED = LogWriter.UNBOUNDED

#: A due cycle later than any real one (an unbounded agent's due cycle
#: is ``now + 1 + _UNBOUNDED``).
_NEVER = 1 << 64


#: Execution engines.  Both are cycle-exact; ``batched`` only changes
#: *how* the timeline is traversed.
MODE_BUSY = "busy"
MODE_BATCHED = "batched"

MODES = (MODE_BUSY, MODE_BATCHED)


def check_mode(mode: Optional[str]) -> None:
    """An engine from :data:`MODES`, or ``None`` for the default
    (``batched``); anything else raises :class:`ConfigError`."""
    if mode is not None and mode not in MODES:
        raise ConfigError(f"unknown execution mode {mode!r} (have: {MODES})")


#: Who serves the CFI mailbox — the policy-backend axis of a cosim run.
#:
#: * ``"firmware"`` — the RV32 firmware executing on the Ibex ISS (the
#:   shadow-stack policy, the paper's reference configuration);
#: * ``"host"`` — a mounted :class:`repro.policyhost.PolicyHost`
#:   running any Python policy on the firmware-calibrated cycle model
#:   (the RoT core is left frozen).
#:
#: The simulator derives the axis from the SoC: a mounted policy host
#: serves the mailbox, else the firmware does.
POLICY_BACKEND_FIRMWARE = "firmware"
POLICY_BACKEND_HOST = "host"

POLICY_BACKENDS = (POLICY_BACKEND_FIRMWARE, POLICY_BACKEND_HOST)


class HartSlot:
    """A hart as a clocked agent: the hart, its commit stage (``None``
    for the RoT core, which retires directly) and its cycle debt.

    The slot owns the three states in which its hart cannot act — cycle
    debt, WFI sleep and inhibited commit — so the scheduler treats every
    hart alike.

    Args:
        hart: the instruction-set simulator.
        commit: the CVA6 commit stage wrapping an application hart.
        window: ``(lo, hi)`` range a window may store to freely: all
            of DRAM for an application hart (mailboxes are
            cross-component), the RoT's private TL-UL fabric below the
            TL2AXI bridge for Ibex (mailbox writes through the bridge
            are the firmware's handshake).
        debt: initial cycle debt (a staggered start).
    """

    __slots__ = ("hart", "commit", "window", "debt", "observe")

    def __init__(self, hart: Hart, commit: Optional[CommitStage],
                 window: Tuple[int, int], debt: int = 0):
        self.hart = hart
        self.commit = commit
        self.window = window
        self.debt = debt
        #: Per-step probe (:meth:`SystemSimulator.probe`), else ``None``.
        self.observe: Optional[Callable[[StepResult], None]] = None

    def tick(self) -> None:
        """One cycle: melt debt, else advance the hart (through its
        commit stage), take on the instruction's remaining cost and
        hand the step to the probe, if one is attached."""
        if self.debt > 0:
            self.debt -= 1
        elif not self.hart.halted:
            commit = self.commit
            result = (self.hart.step() if commit is None
                      else commit.try_advance())
            if result is not None:
                if result.cycles > 1:
                    self.debt = result.cycles - 1
                if self.observe is not None:
                    self.observe(result)

    @property
    def active(self) -> bool:
        """True when the hart retires on its next tick inside a window
        (a probed hart only ever retires through :meth:`tick`)."""
        hart = self.hart
        commit = self.commit
        return not (self.debt or hart.halted or hart.sleeping
                    or (commit is not None and commit.stalled)
                    or self.observe is not None)

    def skippable_cycles(self) -> int:
        """Cycles the slot can fast-forward with no state change.

        Debt bounds itself; a halted hart, a stall only a CFI-stage
        transition can release and a sleeping hart with no interrupt
        pending are unbounded here (another agent's event ends them).
        Sleep and an inhibited commit never coincide: ``wfi`` pushes no
        commit log, and an inhibited hart does not step.
        """
        if self.debt > 0:
            return self.debt
        hart = self.hart
        if hart.halted:
            return _UNBOUNDED
        commit = self.commit
        if commit is not None and commit.stall_skippable():
            return _UNBOUNDED
        if hart.sleeping and not hart.interrupt_pending:
            return _UNBOUNDED
        return 0

    def skip(self, cycles: int) -> None:
        """Replay ``cycles`` no-change ticks, at most the slot's bound:
        debt melts; otherwise a live hart is asleep (it accrues sleep
        cycles) or its commit is inhibited (it accrues stall cycles)."""
        if self.debt > 0:
            self.debt -= min(cycles, self.debt)
        elif not self.hart.halted:
            if self.hart.sleeping:
                self.hart.sleep_for(cycles)
            else:
                self.commit.skip_stall(cycles)


class SystemSimulator:
    """Drives a :class:`TitanCfiSoc` cycle by cycle.

    Args:
        soc: the platform under simulation.  A mounted policy host
            serves the CFI mailbox in place of the RoT core, which then
            stays frozen.
        mode: execution engine (``None`` selects ``"batched"``):

            * ``"busy"`` — the reference: one :meth:`tick` per cycle;
            * ``"batched"`` — jump the clock to the next cycle on which
              some agent is due and tick only the agents due then
              (:meth:`_pass`), and run a hart through a whole
              instruction *window* in a tight in-hart loop
              (:meth:`repro.hart.core.Hart.run_n`) whenever one active
              hart is the only agent due (:meth:`_run_window`).

            The observable timeline is cycle-exact in both engines: all
            ``SimulationReport`` fields and every per-cycle statistic
            match the busy-loop simulation.
        start_delays: optional per-hart start offsets in cycles
            (staggered boot): hart ``i`` retires its first instruction
            after ``start_delays[i]`` cycles.  Modelled as initial cycle
            debt, so it is engine-invariant by construction.

    Raises:
        ConfigError: for an unknown ``mode`` or invalid start delays.
    """

    def __init__(self, soc: TitanCfiSoc, mode: Optional[str] = None,
                 start_delays: Optional[Sequence[int]] = None):
        check_mode(mode)
        self.soc = soc
        # A mounted policy host replaces the firmware as the mailbox
        # agent: the RoT core stays frozen and the host is scheduled as
        # a clocked agent in its place.
        self._phost = soc.policy_host
        self.mode = mode or MODE_BATCHED
        self.now = 0
        self.violation: Optional[CfiViolation] = None
        # Application side, plural; index = topology hart id.
        self._apps = list(soc.harts)
        self._commits = list(soc.commits)
        self._stages = list(soc.cfi_stages)
        n = len(self._apps)
        delays = [0] * n
        if start_delays is not None:
            if not isinstance(start_delays, (list, tuple)):
                raise ConfigError("start delays must be a list or tuple, "
                                  f"got {start_delays!r}")
            delays = list(start_delays)
            if len(delays) != n:
                raise ConfigError(f"{len(delays)} start delays for {n} harts")
            for delay in delays:
                check_int("start delay", delay, 0)
        addresses = soc.addresses
        dram = (addresses.dram_base, addresses.dram_base + soc.dram.size)
        # The harts in hart-id order, then the RoT core unless a policy
        # host serves the mailbox.
        self._slots = [HartSlot(hart, commit, dram, delay)
                       for hart, commit, delay in zip(
                           self._apps, self._commits, delays)]
        if self._phost is None:
            self._slots.append(HartSlot(soc.rot.ibex, None,
                                        (0, addresses.ot_bridge_base)))
        # Agents that never run a window: they only bound and replay.
        self._passive = [self._phost] if self._phost is not None else []
        self._passive += [s for s in self._stages if s is not None]
        # Tick order (see the module docstring).  The protocol's methods
        # are bound once: the scheduler loop calls them every iteration.
        agents = self._slots + self._passive
        self._ticks = [agent.tick for agent in agents]
        self._bounds = [agent.skippable_cycles for agent in agents]
        self._skips = [agent.skip for agent in agents]
        # Lazy settlement (batched engine): per agent, the cycle its
        # state reflects and the first cycle its tick can change state.
        # ``_due`` ends in a sentinel, set to the cycle a pass ticks so
        # its ``index`` scan always stops there.
        self._settled = [0] * len(agents)
        self._due = [0] * len(agents) + [_NEVER]
        self._n_slots = len(self._slots)
        # Wake fan-out (see the module docstring), in agent indices: the
        # harts, then the monitor (Ibex or the policy host) at index n,
        # then the stages in hart-id order.
        phost = self._phost
        index = iter(range(n + 1, len(agents)))
        self._stage_of = [None if stage is None else next(index)
                          for stage in self._stages]
        stages = self._all_stages = tuple(
            k for k in self._stage_of if k is not None)
        wakes: List[Optional[Tuple[int, ...]]] = [
            () if k is None else (k,) for k in self._stage_of]
        if phost is None:
            wakes.append(stages)
        else:
            # ``None``: the stage holding the doorbell grant, resolved
            # per tick.  The defense or a fault plan also lets the host
            # move the grant, seal a hart or flip its queue lossy.
            guarded = phost.defense is not None or phost.faults is not None
            wakes.append(tuple(range(n)) + stages if guarded else None)
        wakes += [(i, n) for i, k in enumerate(self._stage_of) if k is not None]
        self._wakes = wakes
        # The policy host, which must be settled to the cycle before any
        # stage ticks: its doorbell service stamps the ring with its own
        # clock.  ``len(agents)`` when there is none.
        self._host = n if phost is not None else len(agents)
        # What every pass reads, hoisted into one tuple (a pass can be a
        # single tick, so its prologue is measurable).
        self._pass_ctx = (self._due, self._settled, self._ticks,
                          self._bounds, self._skips, wakes,
                          soc.doorbell_arbiter, self._host, len(agents))

    def probe(self, hart: Hart,
              observe: Optional[Callable[[StepResult], None]]) -> None:
        """Hand every step ``hart`` takes to ``observe``; ``None``
        detaches the probe.

        A probed hart never joins a window, so each retiring, wake and
        trap step reaches ``observe`` in both engines alike.  Its debt
        and WFI sleep still jump, so only ``busy`` also delivers the
        per-cycle ``SLEEPING`` steps.  Detached, the probe is one
        ``is None`` test per step and per window scan.  A hart this
        simulator does not step (a frozen RoT core) raises ConfigError.
        """
        for slot in self._slots:
            if slot.hart is hart:
                slot.observe = observe
                return
        raise ConfigError(f"{hart.name} is not scheduled by this simulator")

    def tick(self) -> None:
        """Advance the whole platform by one cycle, every agent in tick
        order (identical in both engines, and the source of the
        doorbell arbiter's determinism)."""
        self.now += 1
        for tick in self._ticks:
            tick()

    # -- batched engine -----------------------------------------------------------

    def _poll(self) -> None:
        """Take every agent's state to reflect ``now`` and re-poll its
        due cycle.  Run on every :meth:`advance` entry, since callers
        may change agents between calls (a rig deposits a log, a test
        attaches a probe)."""
        now = self.now
        settled, due = self._settled, self._due
        for k, bound in enumerate(self._bounds):
            settled[k] = now
            due[k] = now + 1 + bound()

    def _settle(self) -> None:
        """Replay every lagging agent up to the clock with one ``skip``."""
        now = self.now
        settled, skips = self._settled, self._skips
        for k, s in enumerate(settled):
            if s < now:
                skips[k](now - s)
                settled[k] = now

    def _pass(self, cycle: int, first: int = 0) -> None:
        """Tick, in tick order from agent ``first`` on, every agent due
        at ``cycle``.

        Each agent is first settled to ``cycle - 1`` and re-polled after
        its tick, and so is every agent its tick can wake: one later in
        tick order is settled to ``cycle - 1`` (and ticks in this pass
        if it is due now), an earlier one to ``cycle`` (its tick this
        cycle is already behind it).  A :class:`CfiViolation` leaves the
        agents after the raiser at ``cycle - 1`` and the rest at
        ``cycle``, exactly where the busy loop's unwinding tick does.
        """
        self.now = cycle
        last = cycle - 1
        (due, settled, ticks, bounds, skips, wakes, arbiter, host,
         n) = self._pass_ctx
        due[n] = cycle
        k = due.index(cycle, first)
        try:
            while k < n:
                if k > host and settled[host] < cycle:
                    skips[host](cycle - settled[host])
                    settled[host] = cycle
                s = settled[k]
                if s < last:
                    skips[k](last - s)
                owner = arbiter.owner
                ticks[k]()
                settled[k] = cycle
                due[k] = cycle + 1 + bounds[k]()
                targets = wakes[k]
                if targets is None:
                    targets = (self._all_stages if owner is None
                               else (self._stage_of[owner],))
                if arbiter.owner != owner:
                    moved = arbiter.owner
                    targets += (self._all_stages
                                if owner is None or moved is None
                                else (self._stage_of[moved],))
                for j in targets:
                    c = cycle if j <= k else last
                    s = settled[j]
                    if s < c:
                        skips[j](c - s)
                        settled[j] = c
                    due[j] = c + 1 + bounds[j]()
                k = due.index(cycle, k + 1)
        except CfiViolation:
            due[n] = _NEVER
            for j, s in enumerate(settled):
                c = cycle if j <= k else last
                if s < c and j != k:
                    skips[j](c - s)
                settled[j] = c
            raise
        due[n] = _NEVER

    def _step(self, until: int) -> Optional[HartSlot]:
        """One step of the batched engine: jump the clock to the next
        due cycle (at most ``until``), then run a window there when one
        active hart is the only agent due, else tick the agents due.
        Returns the slot whose hart ran the window, or None when the
        step ticked or only jumped."""
        due = self._due
        cycle = min(due)
        if cycle > until:
            self.now = until
            return None
        first = due.index(cycle)
        if first < self._n_slots:
            settled, skips, bounds = self._settled, self._skips, self._bounds
            last = cycle - 1
            active = None
            for k in range(first, self._n_slots):
                if due[k] != cycle:
                    continue
                s = settled[k]
                if s < last:
                    skips[k](last - s)
                    settled[k] = last
                if self._slots[k].active:
                    active = k
                    continue
                # Due as its cycle debt ran out: the hart may now wait
                # on a stall or a sleep, which its bound then covers.
                due[k] = cycle + bounds[k]()
            if (active is not None and due.count(cycle) == 1
                    and self._run_window(cycle, until, active)):
                return self._slots[active]
        self._pass(cycle, first)
        return None

    def _run_window(self, cycle: int, until: int, k: int) -> bool:
        """Run the active hart of slot ``k`` — the only agent due at
        ``cycle`` — through one interaction-free window from ``cycle``
        on, ending at ``until`` at the latest.

        1. The budget is the span before any other agent is due.  A
           window pushes no commit logs, so a parked log writer or
           policy host provably stays parked and an in-flight countdown
           just melts.
        2. The hart runs: an application hart over all of DRAM,
           stopping before any CFI-relevant instruction; Ibex below the
           bridge, *executing* its first store above it (mailbox
           verdict, doorbell clear) as the window's last instruction.
        3. The clock advances by the window's span, and the hart keeps
           its last instruction's remaining cost as cycle debt, exactly
           as that span of ticks leaves it.  Every other agent stays
           where it is, to be settled lazily.

        Ibex's store retires on the window's final cycle T, so its
        fan-out is woken there and the agents ticking after Ibex (the
        CFI stages) tick for real at T, observing the store exactly as
        the busy loop's same-cycle ticks would (and possibly raising the
        resulting :class:`CfiViolation`, caught by :meth:`run`).

        Returns False when no window ran (the caller ticks instead).
        """
        due, settled, bounds = self._due, self._settled, self._bounds
        due[k] = _NEVER
        budget = min(until - cycle + 1, min(due) - cycle)
        due[k] = cycle
        slot = self._slots[k]
        commit = slot.commit
        retired, spent, term = slot.hart.run_n(
            budget, *slot.window,
            stop_before_cfi=commit is not None,
            terminate_on_store=commit is None,
        )
        if not retired:
            return False
        span = spent - term + 1 if term else min(spent, budget)
        now = self.now = cycle - 1 + span
        slot.debt = spent - span
        if commit is not None:
            commit.note_batch_retired(retired)
        settled[k] = now
        due[k] = now + 1 + bounds[k]()
        if term:
            # Ibex's mailbox store retired at ``now``: the stages see it
            # on their own ticks of that cycle.
            last = now - 1
            skips = self._skips
            for j in self._wakes[k]:
                s = settled[j]
                if s < last:
                    skips[j](last - s)
                    settled[j] = last
                due[j] = now + bounds[j]()
            self._pass(now, k + 1)
        return True

    def advance(self, until: int,
                stop: Optional[Callable[[], bool]] = None) -> bool:
        """Advance the platform to cycle ``until``, never past it.

        ``busy`` ticks every agent every cycle.  ``batched`` re-polls
        every agent's due cycle on entry (:meth:`_poll`) and then steps
        from due cycle to due cycle (:meth:`_step`): each step is a
        window of one active hart or a pass over the agents due.  Its
        first step is always the pass at ``now + 1``, as ``busy``'s
        first tick.  Agents that are not due are settled when the
        advance returns (also when a :class:`CfiViolation` unwinds it).

        ``stop`` is checked after every tick (``busy``) or step
        (``batched``), so both engines see it on the same cycle.  It
        must read agent *state* — halted, quiescent, stalled, a mailbox
        flag or counter an agent moves only when it really acts — never
        a per-cycle counter (an agent's ``now``, stall or wait cycles),
        because an agent that is not due is settled only when
        ``advance`` returns.  Returns True when ``stop`` ended the
        advance, False when the clock reached ``until``.  An ``until``
        that is not an ``int`` >= 0 raises ConfigError.
        """
        check_int("until", until, 0)
        if self.now >= until:
            return False
        if self.mode == MODE_BUSY:
            while self.now < until:
                self.tick()
                if stop is not None and stop():
                    return True
            return False
        self._poll()
        self._pass(self.now + 1)
        stopped = stop is not None and bool(stop())
        while not stopped and self.now < until:
            self._step(until)
            stopped = stop is not None and bool(stop())
        self._settle()
        return stopped

    def run(self, max_cycles: int = 10_000_000) -> SimulationReport:
        """Run until every application hart halts and the CFI pipeline
        drains.

        A CFI violation stops the run immediately and is reported, not
        re-raised — detection is the expected outcome of attack runs.
        A ``max_cycles`` that is not an ``int`` >= 0 raises ConfigError.
        """
        check_int("max_cycles", max_cycles, 0)
        try:
            if not self.advance(max_cycles, self._finished):
                raise SimulationError(
                    f"co-simulation exceeded {max_cycles} cycles"
                )
        except CfiViolation as violation:
            self.violation = violation
        return self.report()

    def _finished(self) -> bool:
        """Every application hart halted and the CFI pipeline drained."""
        for hart in self._apps:
            if not hart.halted:
                return False
        for stage, commit in zip(self._stages, self._commits):
            if stage is not None and not stage.quiescent:
                return False
            if commit.stalled:
                return False
        return True

    def report(self) -> SimulationReport:
        """Snapshot the run's statistics.

        Builds one ``per_hart`` entry per application hart and derives
        the headline from them: summed instructions and stalls, every
        CFI counter summed over the stages, the largest queue
        high-water mark, the mean over every check's latency, and the
        lowest-hart violation unless one was raised.
        """
        arbiter = self.soc.doorbell_arbiter
        per_hart: List[Dict[str, object]] = []
        summaries: List[Dict[str, object]] = []
        latencies: List[int] = []
        first_violation: Optional[CfiViolation] = None
        first_latency: Optional[int] = None
        for i, (hart, commit, stage) in enumerate(
                zip(self._apps, self._commits, self._stages)):
            stats: Dict[str, object] = {}
            hart_violation = None
            if stage is not None:
                stats = stage.stats_summary()
                summaries.append(stats)
                latencies += stage.writer.stats.check_latencies
                hart_violation = stage.violation
            latency = (stats["first_violation_latency"]
                       if hart_violation is not None else None)
            per_hart.append({
                "hart": i,
                "instructions": hart.instret,
                "stall_cycles": commit.stall_cycles,
                "detected": hart_violation is not None,
                "violation_kind": (
                    hart_violation.kind if hart_violation is not None else None
                ),
                "detection_latency": latency,
                "quarantined": arbiter.quarantined(i),
                "cfi": stats,
            })
            if hart_violation is not None and first_violation is None:
                first_violation = hart_violation
                first_latency = latency
        cfi: Dict[str, object] = {}
        if summaries:
            # Same keys, in the same order, as one stage's summary.
            cfi = {key: sum(s[key] for s in summaries) for key in _SUMMED}
            cfi["mean_check_latency"] = (
                sum(latencies) / len(latencies) if latencies else 0.0
            )
            cfi["first_violation_latency"] = first_latency
            cfi["queue_high_water"] = max(
                s["queue_high_water"] for s in summaries
            )
        violation = self.violation or first_violation
        faults = getattr(self.soc, "faults", None)
        return SimulationReport(
            cycles=self.now,
            host_instructions=sum(h.instret for h in self._apps),
            host_stall_cycles=sum(c.stall_cycles for c in self._commits),
            violation=violation,
            cfi=cfi,
            ibex_instructions=self.soc.rot.ibex.instret,
            detection_latency=first_latency if violation is not None else None,
            faults=faults.stats_summary() if faults is not None else None,
            per_hart=per_hart,
        )
