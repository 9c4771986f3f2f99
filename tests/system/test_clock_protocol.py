"""The scheduler core's clock protocol, checked state for state.

Every clocked agent answers ``tick()``, ``skippable_cycles()`` and
``skip(n)``; the batched engine rests on these claims about them:

* an agent's ``skip(n)``, for ``n`` up to its own bound, is ``n`` of
  its ticks;
* a step of the engine (``_step``) is the platform ticks it jumps: the
  clock goes to the next due cycle and only the agents due there tick,
  while every other agent lags until it is settled by one ``skip`` —
  which holds only if each real tick re-polls every agent it can wake;
* a window is the ticks it accounts for;
* ``advance(until, stop)`` lands both engines on the same cycle in the
  same state, whether the clock or ``stop`` ends it.

The engine suites compare the two engines' final reports.  Here two
identically built platforms run in lockstep: one takes the batched
action, its twin replays it as plain ticks, and the *whole* platform
state — every register, memory page, queue entry, FSM field and
statistic, caches aside — must match after every sampled action.
"""

import collections
import enum
import random
import types

import pytest

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.core.log_writer import LogWriter
from repro.faults.inject import attach_faults
from repro.faults.plan import build_plan
from repro.firmware.policies import ShadowStackPolicy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.isa import opcodes as op
from repro.policyhost import mount_policy_host
from repro.system.sim import MODE_BATCHED, MODE_BUSY, HartSlot, SystemSimulator
from repro.system.soc import build_soc
from repro.system.topology import Topology

#: Per class, the fields that may legitimately differ between two equal
#: platforms: a hart's decoded-instruction cache (a window decodes the
#: boundary instruction it stops before) and the bus's count of harts
#: holding code per page, the bus's last-region hint, the batched
#: engine's own bookkeeping (due and settled cycles, and the tuple that
#: hoists them for a pass), and the policy host's calibration model, a
#: process-wide memo both twins share.
CACHES = {
    "Hart": {"_pc_cache", "_code_pages", "_batch_ctx"},
    "MemoryMap": {"_hot_region", "_code_pages"},
    "SystemSimulator": {"_due", "_settled", "_pass_ctx"},
    "PolicyHost": {"model"},
}


def snapshot(root):
    """The reachable state of ``root`` as a nested tuple, comparable
    across two independently built object graphs.  Shared objects are
    numbered in visiting order, so aliasing must match too."""
    seen = {}

    def walk(x):
        if x is None or isinstance(x, (bool, int, float, str, bytes)):
            return x
        if isinstance(x, enum.Enum):
            return (type(x).__qualname__, x.name)
        if id(x) in seen:
            return ("ref", seen[id(x)])
        seen[id(x)] = len(seen)
        if isinstance(x, bytearray):
            return bytes(x)
        if isinstance(x, (list, tuple, collections.deque)):
            return tuple(walk(item) for item in x)
        if isinstance(x, dict):
            return ("dict",) + tuple(
                (repr(key), walk(x[key])) for key in sorted(x, key=repr)
            )
        if isinstance(x, (set, frozenset)):
            return ("set",) + tuple(sorted(map(repr, x)))
        if isinstance(x, types.MethodType):
            return ("method", x.__func__.__qualname__, walk(x.__self__))
        if isinstance(x, (types.FunctionType, types.BuiltinFunctionType,
                          type)):
            return ("function", x.__qualname__)
        if isinstance(x, random.Random):
            return ("random", x.getstate())
        attrs = dict(getattr(x, "__dict__", {}))
        for cls in type(x).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(x, name):
                    attrs[name] = getattr(x, name)
            for name in CACHES.get(cls.__name__, ()):
                attrs.pop(name, None)
        return (type(x).__qualname__,) + tuple(
            (name, walk(attrs[name])) for name in sorted(attrs)
        )

    return walk(root)


def first_difference(left, right, path="sim"):
    """Path to the first field where two snapshots differ."""
    if (isinstance(left, tuple) and isinstance(right, tuple)
            and len(left) == len(right)):
        for index, (a, b) in enumerate(zip(left, right)):
            if a != b:
                named = (isinstance(a, tuple) and len(a) == 2
                         and isinstance(a[0], str))
                step = a[0] if named else index
                return first_difference(a, b, f"{path}/{step}")
    return f"{path}: {str(left)[:160]} != {str(right)[:160]}"


#: Platforms covering every agent state the protocol distinguishes:
#: cycle debt, an inhibited commit (blocking and depth-1 queues,
#: skippable; lossy, never skippable), a halted hart beside live ones,
#: the policy host, Ibex running windows beside application harts,
#: and staggered starts — under the irq firmware the only way
#: Ibex reaches its WFI sleep mid-run, since back-to-back doorbells
#: keep it in the ISR.  Two platforms take the wake fan-out's widest
#: paths: eight harts whose writers mostly wait parked on the doorbell
#: grant while their harts stall on full queues, and a guarded monitor
#: (the cross-hart defense plus an arbiter-hold attacker, whose
#: watchdog quarantines it and revokes its grant from the host's own
#: tick) that wakes every agent.
SCENARIOS = {
    "n1-irq": dict(victims=("deep-recursion",), monitor="irq"),
    "n1-polling": dict(victims=("deep-recursion",), monitor="polling"),
    "n1-host": dict(victims=("deep-recursion",), monitor="host"),
    "n1-blocking": dict(victims=("benign",), monitor="irq",
                        queue_depth=1, blocking=True),
    "n1-lossy": dict(victims=("deep-recursion",), monitor="host",
                     queue_depth=2, lossy=True),
    "n2-host": dict(victims=("rop", "benign"), monitor="host"),
    "n3-irq": dict(victims=("rop", "deep-recursion", "benign"),
                   monitor="irq"),
    "n3-irq-stagger": dict(victims=("fwd-jump", "indirect-clean", "jop"),
                           monitor="irq", start_delays=(0, 1500, 3000)),
    "n4-stagger": dict(victims=("benign", "deep-recursion", "rop", "benign"),
                       monitor="host", start_delays=(0, 300, 600, 900)),
    "n8-host": dict(victims=("rop", "deep-recursion") + ("benign",) * 6,
                    monitor="host"),
    "n4-guard": dict(victims=("rop", "deep-recursion", "benign", "benign"),
                     monitor="host", defense=True, fault=("xhart-hold", 1)),
}

#: Platforms for the per-agent claim: the eight-hart platform's agents
#: are n4-stagger's, only more of them.
AGENT_SCENARIOS = sorted(set(SCENARIOS) - {"n8-host"})


def build(victims, monitor, start_delays=None, defense=False, fault=None,
          **config):
    """A fresh simulator; two calls with equal arguments build equal
    platforms.  Violations are latched, so a run never unwinds
    mid-lockstep.  ``fault`` is a ``(plan, hart)`` pair: the registered
    plan, built for seed 7 and scoped to that hart."""
    topology = Topology(n_harts=len(victims))
    soc = build_soc(
        cfi_config=TitanCfiConfig(raise_on_violation=False, **config),
        topology=topology,
    )
    for hart_id, victim in enumerate(victims):
        amap = topology.address_map(hart_id, soc.addresses)
        program = VICTIMS[victim].builder(amap, random.Random(99 + hart_id))
        soc.load_host_program(program, hart_id=hart_id)
    if monitor == "host":
        mount_policy_host(soc, ShadowStackPolicy(), defense=defense)
    else:
        layout = FirmwareLayout(soc.addresses)
        soc.load_firmware(shadow_stack_firmware(monitor, layout).data)
    if fault is not None:
        plan, hart = fault
        attach_faults(soc, build_plan(plan, 7).scoped(hart))
    return SystemSimulator(soc, mode=MODE_BATCHED, start_delays=start_delays)


def test_guard_platform_fires_the_hold_watchdog():
    """n4-guard reaches the host's own state changes: the watchdog
    revokes the squatter's grant and quarantines it from a host tick."""
    sim = build(**SCENARIOS["n4-guard"])
    sim.run(MAX_CYCLES)
    defense = sim.soc.policy_host.defense.summary()
    assert defense["holds_released"] == 1 and defense["quarantined"] == [1]


def twins(name):
    return build(**SCENARIOS[name]), build(**SCENARIOS[name])


def agents(sim):
    return [tick.__self__ for tick in sim._ticks]


def done(sim):
    return sim._finished()


#: Cycle cap for a run.
MAX_CYCLES = 400_000


class Sample:
    """Sample points over a growing count: every ``stride``-th for
    eight points, then the stride doubles — dense through boot and the
    first doorbells, still reaching the end of a long run."""

    def __init__(self, stride=1):
        self.next = self.stride = stride
        self.left = 8

    def due(self, count):
        if count < self.next:
            return False
        self.next += self.stride
        self.left -= 1
        if not self.left:
            self.stride *= 2
            self.left = 8
        return True


def ticks(agent, cycles):
    for _ in range(cycles):
        agent.tick()


def assert_same(fast, slow, what):
    assert fast.now == slow.now, what
    left, right = snapshot(fast), snapshot(slow)
    assert left == right, (what, first_difference(left, right))


class TestHartSlot:
    """The hart slot's three states in which its hart cannot act."""

    @staticmethod
    def slot(debt=0):
        """An application hart behind a commit stage with no CFI stage,
        so commit is never inhibited."""
        soc = build_soc(with_cfi=False)
        program = VICTIMS["deep-recursion"].builder(
            soc.addresses, random.Random(1))
        soc.load_host_program(program)
        hart, commit = soc.harts[0], soc.commits[0]
        return HartSlot(hart, commit, (0, 0), debt), hart

    def test_debt_bounds_the_slot_and_melts(self):
        slot, hart = self.slot(debt=5)
        assert not slot.active
        assert slot.skippable_cycles() == 5
        slot.skip(3)
        slot.tick()
        assert slot.debt == 1 and slot.skippable_cycles() == 1
        assert (hart.instret, hart.cycle) == (0, 0)

    def test_tick_takes_on_the_instruction_cost_as_debt(self):
        slot, hart = self.slot()
        debts = set()
        while hart.instret < 50:
            assert slot.active and slot.skippable_cycles() == 0
            before = hart.cycle
            slot.tick()
            assert slot.debt == hart.cycle - before - 1
            debts.add(slot.debt)
            slot.skip(slot.debt)
        assert len(debts) > 1, debts

    def test_halted_hart_is_unbounded_and_inert(self):
        slot, hart = self.slot()
        hart.halted = True
        assert not slot.active
        assert slot.skippable_cycles() == LogWriter.UNBOUNDED
        slot.skip(1000)
        slot.tick()
        assert (hart.instret, hart.cycle) == (0, 0)

    def test_sleep_is_skipped_until_an_interrupt_pends(self):
        slot, hart = self.slot()
        hart.sleeping = True
        assert not slot.active
        assert slot.skippable_cycles() == LogWriter.UNBOUNDED
        slot.skip(40)
        slot.tick()
        assert hart.cycle == 41 and hart.sleeping
        hart.csrs.write(op.CSR_MIE, op.MIE_MEIE)
        hart.external_irq = lambda: True
        assert slot.skippable_cycles() == 0
        slot.tick()
        assert not hart.sleeping
        assert slot.debt == hart.timing.wake_cycles - 1


@pytest.mark.parametrize("name", AGENT_SCENARIOS)
def test_agent_skip_is_its_ticks(name):
    """Each agent alone: ``skip(n)`` on one twin, ``n`` of the agent's
    own ticks on the other, for every agent whose bound is positive."""
    fast, slow = twins(name)
    sample = Sample(stride=61)
    skipped = collections.Counter()
    while slow.now < MAX_CYCLES:
        fast.tick()
        slow.tick()
        if done(slow):
            break
        if not sample.due(slow.now):
            continue
        for index, agent in enumerate(agents(fast)):
            bound = agent.skippable_cycles()
            if bound <= 0:
                continue
            cycles = min(bound, 37)
            agent.skip(cycles)
            ticks(agents(slow)[index], cycles)
            skipped[index] += 1
        assert_same(fast, slow, (name, slow.now, dict(skipped)))
    assert sorted(skipped) == list(range(len(agents(fast)))), dict(skipped)


def ignore_step(result):
    """A probe that records nothing: a probed hart never joins a
    window, so every step of the batched engine is a jump and a pass."""


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_advance_is_platform_ticks(name):
    """The batched step with no window to take (every hart probed): the
    clock jumps to the next due cycle and only the agents due there
    tick; the rest lag, settled by one ``skip`` when they next tick or
    are woken.  The batched twin steps, the other ticks through the same
    cycles; at sampled steps the lagging agents are settled, as
    ``advance`` settles them when it returns."""
    fast, slow = twins(name)
    for sim in (fast, slow):
        for slot in sim._slots:
            sim.probe(slot.hart, ignore_step)
    fast._poll()
    sample = Sample()
    steps = jumps = 0
    while slow.now < MAX_CYCLES:
        assert fast._step(MAX_CYCLES) is None
        cycles = fast.now - slow.now
        ticks(slow, cycles)
        steps += 1
        jumps += cycles > 1
        if done(slow):
            break
        if sample.due(steps):
            fast._settle()
            assert_same(fast, slow, (name, slow.now, cycles))
    fast._settle()
    assert done(fast)
    assert_same(fast, slow, (name, "end"))
    assert jumps >= 16, jumps


#: Window kinds each platform must take (the planner's rules): an
#: application hart alone, and Ibex alone up to its mailbox store.
EXPECTED_WINDOWS = {
    "n1-irq": {"hart", "ibex"},
    "n1-polling": {"hart", "ibex"},
    "n1-host": {"hart"},
    "n1-blocking": {"hart", "ibex"},
    "n1-lossy": {"hart"},
    "n2-host": {"hart"},
    "n3-irq": {"hart", "ibex"},
    "n3-irq-stagger": {"hart", "ibex"},
    "n4-stagger": {"hart"},
    "n8-host": {"hart"},
    "n4-guard": {"hart"},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_window_is_its_ticks(name):
    """The batched engine's steps on one twin, plain ticks on the other.
    Every window leaves the platform exactly where its span of ticks
    does: at sampled windows the batched twin is settled and the two
    platforms must be equal."""
    fast, slow = twins(name)
    fast._poll()
    windows = collections.Counter()
    samples = collections.defaultdict(Sample)
    while slow.now < MAX_CYCLES:
        slot = fast._step(MAX_CYCLES)
        ticks(slow, fast.now - slow.now)
        if slot is None:
            if done(slow):
                break
            continue
        kind = "hart" if slot.commit is not None else "ibex"
        windows[kind] += 1
        if samples[kind].due(windows[kind]):
            fast._settle()
            assert_same(fast, slow, (name, kind, slow.now))
    fast._settle()
    assert done(fast)
    assert_same(fast, slow, (name, "end"))
    assert set(windows) >= EXPECTED_WINDOWS[name], dict(windows)


def advance_busy(sim, until, stop=None):
    """``advance`` on the busy engine.  The twin is built batched and
    switched back after, so the two snapshots agree on ``mode``."""
    sim.mode = MODE_BUSY
    try:
        return sim.advance(until, stop)
    finally:
        sim.mode = MODE_BATCHED


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_advance_to_a_cycle_is_engine_invariant(name):
    """Both engines ``advance`` to the same sampled cycles and must agree
    there.  Odd, growing strides land the targets inside windows, clock
    jumps and WFI sleep alike; the twins must still agree 10,000 cycles
    after the run has ended."""
    fast, slow = twins(name)
    stride, samples = 7, 0
    while not done(slow):
        assert slow.now < MAX_CYCLES, name
        until = slow.now + stride
        assert not fast.advance(until)
        assert not advance_busy(slow, until)
        assert fast.now == slow.now == until
        assert_same(fast, slow, (name, until))
        samples += 1
        if samples % 8 == 0:
            stride = 2 * stride + 1
    assert done(fast)
    assert samples >= 16, samples
    until = fast.now + 10_000
    fast.advance(until)
    advance_busy(slow, until)
    assert_same(fast, slow, (name, "after the end"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_advance_stops_on_the_same_cycle(name):
    """A ``stop`` predicate ends both engines' ``advance`` on the same
    cycle: "the k-th doorbell was rung", for growing k, then the run's
    own end."""
    fast, slow = twins(name)

    def rung(sim, k):
        mailbox = sim.soc.cfi_mailbox
        return lambda: mailbox.doorbell_count >= k or done(sim)

    k, rung_stops = 1, 0
    while not done(slow):
        assert fast.advance(MAX_CYCLES, rung(fast, k))
        assert advance_busy(slow, MAX_CYCLES, rung(slow, k))
        assert fast.now == slow.now, (name, k)
        rung_stops += slow.soc.cfi_mailbox.doorbell_count >= k
        assert_same(fast, slow, (name, k, slow.now))
        k += max(1, k // 4)
    assert done(fast)
    assert rung_stops >= 4, rung_stops
