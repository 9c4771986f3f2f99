"""Declarative scenario specs for the campaign engine.

A *scenario* is one fully-specified co-simulation or trace-check:
a victim program, a CFI policy, an execution backend and the knobs
that matter (queue depth, firmware variant, blocking mode, fabric,
seed).  Scenarios are plain, picklable data — the runner resolves the
victim and policy by *name* through the registries below, so a scenario
can cross a ``multiprocessing`` boundary without dragging simulator
state along.

Two backends exist:

* ``reference`` — execute the victim on a bare CVA6 ISS, capture the
  CFI-relevant commit-log stream, and check it against a Python
  reference policy (:mod:`repro.firmware.policies`).  Fast; any policy.
* ``cosim`` — the full platform (CVA6 + CFI stage + mailbox + RoT).
  Cycle-accurate detection latency and overhead.  The mailbox agent is
  selected by the ``policy_backend`` axis: ``"firmware"`` runs the RV32
  shadow-stack firmware on the Ibex ISS, ``"host"`` mounts any Python
  policy as a :class:`repro.policyhost.PolicyHost` on the
  firmware-calibrated cycle model — so the cosim backend sweeps the
  full victim × policy product.

Expected verdicts are derived from an (attack class × policy) table —
the campaign's ground truth, mirroring how the CFI-survey literature
(Burow et al.) tabulates which hijack classes each policy family stops.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.attacks.programs import (
    benign_program,
    call_hijack_program,
    deep_recursion_program,
    indirect_jump_program,
    jop_program,
    return_to_callsite_program,
    rop_program,
)
from repro.errors import AxisConflict, ConfigError, UnknownHartError, check_int
from repro.faults.plan import FAULT_PLANS
from repro.isa.asm import Program
from repro.system.addresses import AddressMap
from repro.system.sim import (
    POLICY_BACKEND_FIRMWARE,
    POLICY_BACKEND_HOST,
    POLICY_BACKENDS,
)
from repro.system.topology import Topology

# --------------------------------------------------------------------------
# Victims
# --------------------------------------------------------------------------

#: Attack classes (None marks a benign victim).
ATTACK_ROP = "rop"                      # return into an arbitrary gadget
ATTACK_RET_TO_CALLSITE = "ret-to-callsite"  # return into a valid call site
ATTACK_JOP = "jop"                      # dispatcher-gadget jump chain
ATTACK_CALL_HIJACK = "call-hijack"      # indirect call to a fake "function"
ATTACK_FWD_JUMP = "fwd-jump"            # indirect jump to a non-entry


@dataclass(frozen=True)
class VictimSpec:
    """A registered victim program.

    Attributes:
        name: registry key.
        builder: ``(AddressMap, random.Random) -> Program``.
        attack: attack class, or ``None`` for benign victims.
        entry_points: symbols that are legitimate indirect-transfer
            targets (the fine-grained forward-edge label set).
        function_entries: symbols that *look like* function entries —
            the coarse forward-edge label set.  Attacker code laid out
            as a plausible function belongs here; mid-function gadget
            fragments do not.
        seeded: True when the builder consumes the scenario seed (the
            campaign sweeps program shape deterministically per seed).
        synth_family: :data:`repro.synth.FAMILIES` entry for synthesized
            victims (``None`` for the hand-written corpus).  Synthetic
            victims derive their label sets and their expected verdict
            per scenario from the :class:`repro.synth.SynthBundle` —
            the static oracle — rather than from the static tuples and
            the attack-class table.
    """

    name: str
    builder: Callable[[AddressMap, random.Random], Program]
    attack: Optional[str] = None
    entry_points: Tuple[str, ...] = ()
    function_entries: Tuple[str, ...] = ()
    seeded: bool = False
    synth_family: Optional[str] = None
    synth_features: Tuple[str, ...] = ()

    @property
    def synthetic(self) -> bool:
        """True for procedurally generated (oracle-backed) victims."""
        return self.synth_family is not None


def _build_benign(addresses: AddressMap, rng: random.Random) -> Program:
    return benign_program(addresses)


def _build_deep_recursion(addresses: AddressMap, rng: random.Random) -> Program:
    # Seed-swept depth: crosses the firmware's spill threshold for some
    # seeds, staying deterministic per scenario seed.
    return deep_recursion_program(addresses, depth=16 + rng.randrange(48))


def _build_rop(addresses: AddressMap, rng: random.Random) -> Program:
    return rop_program(addresses)


def _build_ret_to_callsite(addresses: AddressMap, rng: random.Random) -> Program:
    return return_to_callsite_program(addresses)


def _build_jop_benign(addresses: AddressMap, rng: random.Random) -> Program:
    return jop_program(addresses, corrupt=False)


def _build_jop(addresses: AddressMap, rng: random.Random) -> Program:
    return jop_program(addresses, corrupt=True)


def _build_call_hijack_benign(addresses: AddressMap, rng: random.Random) -> Program:
    return call_hijack_program(addresses, corrupt=False)


def _build_call_hijack(addresses: AddressMap, rng: random.Random) -> Program:
    return call_hijack_program(addresses, corrupt=True)


def _build_indirect_clean(addresses: AddressMap, rng: random.Random) -> Program:
    return indirect_jump_program(addresses, corrupt=False)


def _build_fwd_jump(addresses: AddressMap, rng: random.Random) -> Program:
    return indirect_jump_program(addresses, corrupt=True)


def _synth_builder(
    family: str, features: Tuple[str, ...] = ()
) -> Callable[[AddressMap, random.Random], Program]:
    """Victim builder generating a program procedurally from the RNG.

    The import stays local: :mod:`repro.synth` is only loaded when a
    synthesized victim is actually built, and the module graph stays
    acyclic (synth's verify layer imports the campaign runner lazily).
    """

    def build(addresses: AddressMap, rng: random.Random) -> Program:
        from repro.synth import bundle_from_rng

        return bundle_from_rng(family, rng, addresses.dram_base,
                               features=features).program

    return build


#: Generator growth features the coverage campaign's victims carry
#: (kept literal so the registry needs no synth import at module scope;
#: a test pins it to :data:`repro.synth.generator.FEATURES`).
COVERAGE_FEATURES: Tuple[str, ...] = ("recursion", "tailcall")


#: All registered victims, by name.
VICTIMS: Dict[str, VictimSpec] = {
    spec.name: spec
    for spec in (
        VictimSpec("benign", _build_benign,
                   entry_points=("finalize",),
                   function_entries=("main", "square", "identity", "finalize")),
        VictimSpec("deep-recursion", _build_deep_recursion, seeded=True,
                   function_entries=("main", "recurse")),
        VictimSpec("jop-benign", _build_jop_benign,
                   entry_points=("handler_add", "handler_shift"),
                   function_entries=("main", "handler_add", "handler_shift")),
        VictimSpec("call-hijack-benign", _build_call_hijack_benign,
                   entry_points=("greet",),
                   # `gadget` is laid out as a plausible function, so the
                   # coarse label set must include it (its blind spot).
                   function_entries=("main", "greet", "gadget")),
        VictimSpec("indirect-clean", _build_indirect_clean,
                   entry_points=("handler",),
                   function_entries=("main", "handler")),
        VictimSpec("rop", _build_rop, attack=ATTACK_ROP,
                   function_entries=("main", "victim")),
        VictimSpec("ret-to-callsite", _build_ret_to_callsite,
                   attack=ATTACK_RET_TO_CALLSITE,
                   function_entries=("main", "helper", "victim")),
        VictimSpec("jop", _build_jop, attack=ATTACK_JOP,
                   entry_points=("handler_add", "handler_shift"),
                   function_entries=("main", "handler_add", "handler_shift")),
        VictimSpec("call-hijack", _build_call_hijack, attack=ATTACK_CALL_HIJACK,
                   entry_points=("greet",),
                   function_entries=("main", "greet", "gadget")),
        VictimSpec("fwd-jump", _build_fwd_jump, attack=ATTACK_FWD_JUMP,
                   entry_points=("handler",),
                   function_entries=("main", "handler")),
        # Synthesized victims: each is a whole family of programs, one
        # per scenario seed (random call graphs, dispatch tables, loops,
        # seed-placed attacks).  Label sets and expected verdicts come
        # from the repro.synth bundle — the static oracle — at run time.
        VictimSpec("synth-benign", _synth_builder("benign"),
                   seeded=True, synth_family="benign"),
        VictimSpec("synth-rop", _synth_builder("rop"), attack=ATTACK_ROP,
                   seeded=True, synth_family="rop"),
        VictimSpec("synth-jop", _synth_builder("jop"), attack=ATTACK_JOP,
                   seeded=True, synth_family="jop"),
        VictimSpec("synth-call-hijack", _synth_builder("call-hijack"),
                   attack=ATTACK_CALL_HIJACK,
                   seeded=True, synth_family="call-hijack"),
        VictimSpec("synth-ret-to-callsite", _synth_builder("ret-to-callsite"),
                   attack=ATTACK_RET_TO_CALLSITE,
                   seeded=True, synth_family="ret-to-callsite"),
        # Coverage-campaign victims: the same families grown with the
        # feature set the guided fuzz loop steers toward — bounded
        # recursion and indirect tail calls exercise the shadow-stack
        # depth profile and the forward-edge label sets in shapes the
        # plain synth pipeline never emits.
        VictimSpec("cov-benign",
                   _synth_builder("benign", COVERAGE_FEATURES),
                   seeded=True, synth_family="benign",
                   synth_features=COVERAGE_FEATURES),
        VictimSpec("cov-rop",
                   _synth_builder("rop", COVERAGE_FEATURES),
                   attack=ATTACK_ROP,
                   seeded=True, synth_family="rop",
                   synth_features=COVERAGE_FEATURES),
        VictimSpec("cov-jop",
                   _synth_builder("jop", COVERAGE_FEATURES),
                   attack=ATTACK_JOP,
                   seeded=True, synth_family="jop",
                   synth_features=COVERAGE_FEATURES),
        VictimSpec("cov-call-hijack",
                   _synth_builder("call-hijack", COVERAGE_FEATURES),
                   attack=ATTACK_CALL_HIJACK,
                   seeded=True, synth_family="call-hijack",
                   synth_features=COVERAGE_FEATURES),
        VictimSpec("cov-ret-to-callsite",
                   _synth_builder("ret-to-callsite", COVERAGE_FEATURES),
                   attack=ATTACK_RET_TO_CALLSITE,
                   seeded=True, synth_family="ret-to-callsite",
                   synth_features=COVERAGE_FEATURES),
    )
}

#: The synthesized subset of the registry, by name (the plain synth
#: campaign's sweep — feature-grown coverage victims stay out so the
#: existing matrices keep their exact scenario sets).
SYNTH_VICTIMS: Tuple[str, ...] = tuple(sorted(
    name for name, spec in VICTIMS.items()
    if spec.synthetic and not spec.synth_features
))

#: Feature-grown victims backing the ``coverage`` matrix.
COVERAGE_VICTIMS: Tuple[str, ...] = tuple(sorted(
    name for name, spec in VICTIMS.items()
    if spec.synthetic and spec.synth_features
))

# --------------------------------------------------------------------------
# Policies and ground truth
# --------------------------------------------------------------------------

POLICY_NONE = "none"
POLICY_SHADOW_STACK = "shadow-stack"
POLICY_FORWARD_EDGE = "forward-edge"
POLICY_COARSE = "coarse"
POLICY_COMPOSITE = "composite"
POLICY_CRYPTO_RETURN = "crypto-return"

#: Policies the registries can instantiate (the reference backend runs
#: them over captured traces; the cosim backend runs them as mailbox
#: agents through the policy host — see ``policy_backend``).
REFERENCE_POLICIES = (
    POLICY_NONE,
    POLICY_SHADOW_STACK,
    POLICY_FORWARD_EDGE,
    POLICY_COARSE,
    POLICY_COMPOSITE,
    POLICY_CRYPTO_RETURN,
)

#: Policies with a mailbox-agent incarnation (everything enforcing).
ENFORCING_POLICIES = tuple(p for p in REFERENCE_POLICIES if p != POLICY_NONE)

#: Ground truth: which attack classes each policy is specified to stop.
#: (The shadow stack catches every return-edge corruption; target-set
#: policies catch forward-edge hijacks; coarse CFI catches anything that
#: leaves its relaxed label sets — which a return to a *valid* call site
#: and a call to a *plausible* function entry do not.)
POLICY_DETECTS: Dict[str, frozenset] = {
    POLICY_NONE: frozenset(),
    POLICY_SHADOW_STACK: frozenset({ATTACK_ROP, ATTACK_RET_TO_CALLSITE}),
    POLICY_FORWARD_EDGE: frozenset(
        {ATTACK_JOP, ATTACK_CALL_HIJACK, ATTACK_FWD_JUMP}
    ),
    POLICY_COARSE: frozenset({ATTACK_ROP, ATTACK_JOP, ATTACK_FWD_JUMP}),
    POLICY_COMPOSITE: frozenset(
        {ATTACK_ROP, ATTACK_RET_TO_CALLSITE, ATTACK_JOP,
         ATTACK_CALL_HIJACK, ATTACK_FWD_JUMP}
    ),
    # MAC-authenticated return addresses (CCFI-style): exact return-edge
    # protection, no forward-edge coverage — same detection envelope as
    # the shadow stack, via cryptographic tags instead of trusted memory.
    POLICY_CRYPTO_RETURN: frozenset({ATTACK_ROP, ATTACK_RET_TO_CALLSITE}),
}


def expected_detection(victim: str, policy: str) -> bool:
    """Ground-truth verdict for (victim, policy)."""
    attack = VICTIMS[victim].attack
    if attack is None:
        return False
    return attack in POLICY_DETECTS[policy]


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------

BACKEND_REFERENCE = "reference"
BACKEND_COSIM = "cosim"

#: Mailbox-agent axis of a cosim scenario:
#: :data:`repro.system.sim.POLICY_BACKENDS` plus ``auto``, which
#: resolves to the firmware for its own policy and to the policy host
#: for every other.
POLICY_BACKEND_AUTO = "auto"

_POLICY_BACKENDS = (POLICY_BACKEND_AUTO,) + POLICY_BACKENDS


@dataclass(frozen=True)
class Scenario:
    """One fully-specified campaign cell.  Plain data; picklable.

    Construction is the one place that decides what a cell is: a bad
    field value raises :class:`~repro.errors.ConfigError`, and valid
    values that cannot be combined raise
    :class:`~repro.errors.AxisConflict`, which :func:`expand_grid`
    drops.

    Attributes:
        victim: a :data:`VICTIMS` key.
        policy: a :data:`REFERENCE_POLICIES` entry.
        backend: ``"reference"`` or ``"cosim"``.
        firmware: firmware variant for the cosim backend (also selects
            the policy host's calibrated timing model).
        queue_depth: CFI queue depth (cosim backend).
        blocking: per-check stall mode (cosim backend).
        fabric: RoT interconnect profile (cosim backend).
        seed: per-scenario seed (0 = derive from the campaign seed).
        max_cycles: co-simulation cycle bound.
        policy_backend: cosim mailbox agent — ``"firmware"`` (RV32
            shadow-stack firmware on Ibex), ``"host"`` (the policy as
            a :class:`repro.policyhost.PolicyHost`), or ``"auto"``
            (firmware for ``shadow-stack``, host otherwise).  Ignored
            by the reference backend.
        fault_plan: named :data:`repro.faults.plan.FAULT_PLANS` entry to
            inject for the run (cosim backend only; monitor faults need
            a host-resolved mailbox agent).  ``None`` = fault-free.
        n_harts: application harts in the topology (multi-hart cells
            need the cosim backend with a host-resolved mailbox agent;
            the one monitor keeps a shadow context per hart).
        hart_victims: victims for the ``n_harts - 1`` harts other than
            :attr:`attack_hart`, in hart-id order.  Empty = every peer
            runs ``benign``.  Single-value identity (``()``) for
            single-hart cells, so existing scenario names are stable.
        attack_hart: the hart running :attr:`victim` — the cell's
            headline detection verdict and latency come from it.
        stagger: per-hart start offset step in cycles: hart ``i``
            retires its first instruction ``i * stagger`` cycles in
            (staggered-attack scheduling; engine-invariant).
        fault_hart: the hart :attr:`fault_plan` is scoped to.  Required
            for multi-hart fault cells (an unscoped plan on N > 1 would
            silently fault hart 0); single-hart cells must leave it
            ``None``.
        lossy: run the CFI queues in lossy (drop-oldest) mode instead
            of stalling commit on overflow.  Cosim only; incompatible
            with ``blocking``.
        defense: mount the monitor's cross-hart defense layer (per-hart
            strike accounting, spoof fail-safing, hold watchdog, and
            quarantine).  Needs a multi-hart cosim cell — the doorbell
            arbiter hosts the quarantine latch.
    """

    victim: str
    policy: str = POLICY_SHADOW_STACK
    backend: str = BACKEND_REFERENCE
    firmware: str = "irq"
    queue_depth: int = 8
    blocking: bool = False
    fabric: str = "standard"
    seed: int = 0
    max_cycles: int = 10_000_000
    policy_backend: str = POLICY_BACKEND_AUTO
    fault_plan: Optional[str] = None
    n_harts: int = 1
    hart_victims: Tuple[str, ...] = ()
    attack_hart: int = 0
    stagger: int = 0
    fault_hart: Optional[int] = None
    lossy: bool = False
    defense: bool = False

    def __post_init__(self):
        # Single-field checks first, so a bad value always raises a plain
        # ConfigError, even when it also conflicts with another field.
        for name in (self.victim, *self.hart_victims):
            if name not in VICTIMS:
                raise ConfigError(f"unknown victim {name!r}")
        if self.backend not in (BACKEND_REFERENCE, BACKEND_COSIM):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.policy not in REFERENCE_POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.policy_backend not in _POLICY_BACKENDS:
            raise ConfigError(
                f"unknown policy backend {self.policy_backend!r} "
                f"(have: {_POLICY_BACKENDS})"
            )
        # Typed, reject-never-clamp: every check below — including
        # ``resolved_policy_backend`` — compares ``n_harts``, so a
        # non-int must not get that far.
        if type(self.n_harts) is not int or self.n_harts != 1:
            Topology(n_harts=self.n_harts)  # raises HartCountError
        if self.firmware not in ("irq", "polling"):
            raise ConfigError(f"unknown firmware variant {self.firmware!r}")
        if self.fabric not in ("standard", "optimized"):
            raise ConfigError(f"unknown fabric {self.fabric!r}")
        check_int("queue_depth", self.queue_depth, 1)
        check_int("stagger", self.stagger, 0)
        check_int("max_cycles", self.max_cycles, 1)
        check_int("seed", self.seed, 0)
        if self.fault_plan is not None and self.fault_plan not in FAULT_PLANS:
            raise ConfigError(
                f"unknown fault plan {self.fault_plan!r} "
                f"(have: {', '.join(sorted(FAULT_PLANS))})"
            )
        # Cross-field checks: every value above is valid on its own, so
        # what remains is a combination that forms no cell.
        if self.backend == BACKEND_COSIM and self.resolved_policy_backend is None:
            if self.policy == POLICY_NONE:
                raise AxisConflict(
                    "the cosim backend needs an enforcing policy; "
                    "policy 'none' needs backend='reference'"
                )
            raise AxisConflict(
                "the RV32 firmware implements only the shadow stack; "
                f"policy {self.policy!r} on the cosim backend needs "
                "policy_backend='host' (or 'auto')"
            )
        if self.fault_plan is not None:
            if self.backend != BACKEND_COSIM:
                raise AxisConflict(
                    "fault injection needs the cosim backend (the "
                    "reference backend has no transport to fault)"
                )
            if (FAULT_PLANS[self.fault_plan].needs_monitor
                    and self.resolved_policy_backend != POLICY_BACKEND_HOST):
                raise AxisConflict(
                    f"fault plan {self.fault_plan!r} injects monitor "
                    "faults, which need policy_backend='host' (the RV32 "
                    "firmware monitor cannot be injected into)"
                )
            if FAULT_PLANS[self.fault_plan].adversarial:
                if self.n_harts < 2:
                    raise AxisConflict(
                        f"fault plan {self.fault_plan!r} models a "
                        "compromised hart attacking its peers; it needs "
                        "a multi-hart cell (n_harts > 1)"
                    )
                if not self.defense:
                    raise AxisConflict(
                        f"fault plan {self.fault_plan!r} is adversarial; "
                        "the per-hart degradation contract needs "
                        "defense=True (the quarantining monitor)"
                    )
        if self.fault_hart is not None:
            if self.fault_plan is None:
                raise AxisConflict("fault_hart needs a fault_plan")
            if (type(self.fault_hart) is not int
                    or not 0 <= self.fault_hart < self.n_harts):
                raise UnknownHartError(self.fault_hart, self.n_harts)
        if self.defense and (self.backend != BACKEND_COSIM
                             or self.n_harts < 2):
            raise AxisConflict(
                "defense (the quarantining monitor) needs a multi-hart "
                "cosim cell — the doorbell arbiter hosts the quarantine "
                "latch"
            )
        if self.lossy:
            if self.backend != BACKEND_COSIM:
                raise AxisConflict(
                    "lossy queues need the cosim backend (the reference "
                    "backend has no queue to shed from)"
                )
            if self.blocking:
                raise AxisConflict(
                    "lossy and blocking are mutually exclusive (blocking "
                    "waits on the very check a lossy queue would shed)"
                )
        if not 0 <= self.attack_hart < self.n_harts:
            raise UnknownHartError(self.attack_hart, self.n_harts)
        if self.n_harts == 1:
            if self.hart_victims:
                raise AxisConflict(
                    "hart_victims needs a multi-hart cell (n_harts > 1)"
                )
            if self.stagger:
                raise AxisConflict(
                    "stagger needs a multi-hart cell (n_harts > 1)"
                )
            if self.fault_hart is not None:
                raise AxisConflict(
                    "fault_hart needs a multi-hart cell (n_harts > 1)"
                )
        else:
            if self.backend != BACKEND_COSIM:
                raise AxisConflict(
                    "multi-hart cells need the cosim backend (the "
                    "reference backend has no shared-monitor timeline)"
                )
            if self.policy_backend == POLICY_BACKEND_FIRMWARE:
                raise AxisConflict(
                    "the RV32 firmware keeps a single shadow context; "
                    "multi-hart cells need policy_backend='host' (or "
                    "'auto')"
                )
            if self.fault_plan is not None and self.fault_hart is None:
                raise AxisConflict(
                    "multi-hart fault injection needs fault_hart (an "
                    "unscoped plan would silently fault hart 0)"
                )
            if self.hart_victims and len(self.hart_victims) != self.n_harts - 1:
                raise AxisConflict(
                    f"{len(self.hart_victims)} hart_victims for "
                    f"{self.n_harts} harts (need n_harts - 1: one per "
                    "hart other than the attack hart)"
                )
            for name in (self.victim, *self.hart_victims):
                if VICTIMS[name].synthetic:
                    raise AxisConflict(
                        f"victim {name!r} is synthesized; multi-hart "
                        "cells use the hand-written corpus (the static "
                        "oracle is single-program)"
                    )

    @property
    def resolved_policy_backend(self) -> Optional[str]:
        """The mailbox agent this cell actually runs, or ``None`` when
        the combination is unresolvable (reference backend, a cosim
        cell with no enforcing policy, or the firmware asked to run a
        policy it does not implement)."""
        if self.backend != BACKEND_COSIM or self.policy == POLICY_NONE:
            return None
        if self.policy_backend == POLICY_BACKEND_AUTO:
            if self.n_harts > 1:
                # Only the policy host demultiplexes per-hart contexts.
                return POLICY_BACKEND_HOST
            return (POLICY_BACKEND_FIRMWARE
                    if self.policy == POLICY_SHADOW_STACK
                    else POLICY_BACKEND_HOST)
        if (self.policy_backend == POLICY_BACKEND_FIRMWARE
                and self.policy != POLICY_SHADOW_STACK):
            return None
        return self.policy_backend

    @property
    def name(self) -> str:
        """Stable human-readable identity (also the seed-derivation key)."""
        parts = [self.backend, self.victim, self.policy]
        if self.backend == BACKEND_COSIM:
            if self.resolved_policy_backend == POLICY_BACKEND_HOST:
                parts.append(POLICY_BACKEND_HOST)
            parts.append(self.firmware)
            parts.append(f"q{self.queue_depth}")
            if self.blocking:
                parts.append("blocking")
            if self.fabric != "standard":
                parts.append(self.fabric)
            if self.fault_plan is not None:
                parts.append(f"fault-{self.fault_plan}")
                if self.fault_hart is not None:
                    parts.append(f"fh{self.fault_hart}")
            if self.lossy:
                parts.append("lossy")
            if self.defense:
                parts.append("guard")
            if self.n_harts > 1:
                parts.append(f"n{self.n_harts}")
                parts.append("+".join(self.resolved_hart_victims))
                if self.attack_hart:
                    parts.append(f"ah{self.attack_hart}")
                if self.stagger:
                    parts.append(f"g{self.stagger}")
        if self.max_cycles != 10_000_000:
            parts.append(f"c{self.max_cycles}")
        if self.seed:
            parts.append(f"s{self.seed}")
        return "/".join(parts)

    def canonical(self) -> Dict[str, object]:
        """The fully-resolved spec as plain data — the cell's semantic
        identity.

        Knobs the backend ignores are normalised to ``None`` (mirroring
        the result-dict columns), and the ``auto`` policy backend and
        default ``hart_victims`` are resolved, so two :class:`Scenario`
        instances that would execute identically canonicalise to equal
        dicts.  This is the payload behind :func:`spec_key` — the
        content-addressed result store's scenario identity — so it must
        cover **every** field that can change a result.
        """
        cosim = self.backend == BACKEND_COSIM
        multihart = self.n_harts > 1
        return {
            "backend": self.backend,
            "victim": self.victim,
            "policy": self.policy,
            "policy_backend": self.resolved_policy_backend,
            "firmware": self.firmware if cosim else None,
            "queue_depth": self.queue_depth if cosim else None,
            "blocking": self.blocking if cosim else None,
            "fabric": self.fabric if cosim else None,
            "lossy": self.lossy if cosim else None,
            "fault_plan": self.fault_plan,
            "fault_hart": self.fault_hart,
            "defense": self.defense if multihart else None,
            "n_harts": self.n_harts,
            "hart_victims": (
                list(self.resolved_hart_victims) if multihart else None
            ),
            "attack_hart": self.attack_hart if multihart else None,
            "stagger": self.stagger if multihart else None,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
        }

    @property
    def expected_detected(self) -> bool:
        return expected_detection(self.victim, self.policy)

    @property
    def attack(self) -> Optional[str]:
        return VICTIMS[self.victim].attack

    @property
    def multihart(self) -> bool:
        """True for cells simulating more than one application hart."""
        return self.n_harts > 1

    @property
    def resolved_hart_victims(self) -> Tuple[str, ...]:
        """Victims of the non-attack harts (defaults filled in)."""
        if self.n_harts == 1:
            return ()
        if self.hart_victims:
            return tuple(self.hart_victims)
        return ("benign",) * (self.n_harts - 1)

    def victim_for_hart(self, hart_id: int) -> str:
        """The victim program hart ``hart_id`` runs."""
        if not 0 <= hart_id < self.n_harts:
            raise UnknownHartError(hart_id, self.n_harts)
        if hart_id == self.attack_hart:
            return self.victim
        peers = self.resolved_hart_victims
        return peers[hart_id if hart_id < self.attack_hart else hart_id - 1]


def derive_seed(campaign_seed: int, scenario: Scenario) -> int:
    """Deterministic per-scenario seed, stable across processes/shards.

    Built from a SHA-256 of the campaign seed and the scenario identity,
    so neither worker count nor completion order can perturb it.
    """
    if scenario.seed:
        return scenario.seed
    digest = hashlib.sha256(
        f"{campaign_seed}:{scenario.name}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


def spec_key(scenario: Scenario, campaign_seed: int = 0) -> str:
    """Canonical, stable content hash of a fully-resolved scenario.

    SHA-256 over the scenario's name, its :meth:`Scenario.canonical`
    spec (serialised with sorted keys, so Python dict ordering can
    never perturb it) and the **derived** per-scenario seed — the three
    inputs that determine a result.  The simulator engine is *not* part
    of the key: both engines are cycle-exact by contract (asserted
    by the equivalence suites and by the committed row digests, which
    every ``*-smoke`` row must match under both engines), so a result
    computed under any engine is valid for every other.

    This is the scenario half of the content-addressed result store's
    key; :func:`repro.service.store.code_fingerprint` supplies the
    code-version half.
    """
    payload = {
        "name": scenario.name,
        "spec": scenario.canonical(),
        "derived_seed": derive_seed(campaign_seed, scenario),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# Grid expansion
# --------------------------------------------------------------------------

def _axis_values(name: str, value: object) -> List[object]:
    """One axis of a grid block as a list of values (scalars promote)."""
    if name == "hart_victims":
        # A tuple/list of victim names is ONE axis value (the per-hart
        # assignment); sweep by passing a list of tuples.
        if isinstance(value, (list, tuple)):
            if value and all(isinstance(v, (list, tuple)) for v in value):
                return [tuple(v) for v in value]
            return [tuple(value)]
        raise ConfigError(
            "hart_victims axis takes a tuple of victim names "
            "(or a list of such tuples to sweep)"
        )
    return list(value) if isinstance(value, (list, tuple)) else [value]


def expand_grid(*blocks: Mapping[str, object],
                **axes: object) -> List[Scenario]:
    """Cartesian-product expansion of scenario parameter blocks.

    Each block maps :class:`Scenario` field names to the values to
    sweep (scalars are promoted to one-element axes); the keyword
    arguments form one more block after the positional ones.  Blocks
    expand in order, each as the product of its axes, the last axis
    varying fastest.

    :class:`Scenario` alone decides what a cell is.  A combination it
    rejects with :class:`~repro.errors.AxisConflict` — two values, each
    valid on its own, that cannot be combined (cosim with no enforcing
    policy, ``stagger`` on a single-hart cell, …) — is dropped, so grids
    can sweep backends, policies and hart counts together.  Every other
    error, such as a typo'd victim, policy or fault-plan name, raises:
    a bad value never silently shrinks a matrix.

    Cells sharing a name (``Scenario.name`` omits knobs its backend
    ignores) collapse to the first, across all blocks, but only when
    their :meth:`Scenario.canonical` specs are equal (they would execute
    identically); a *semantic* collision — same name, different resolved
    spec — raises a :class:`~repro.errors.ConfigError` listing the
    duplicates, because scenario names key artifacts and the result
    store's spec hashes must stay injective over a matrix::

        expand_grid(victim=["rop", "benign"],
                    policy=["shadow-stack", "coarse"],
                    queue_depth=[1, 8])
    """
    if axes:
        blocks += (axes,)
    scenarios: List[Scenario] = []
    seen: Dict[str, Dict[str, object]] = {}
    collisions: List[str] = []
    for block in blocks:
        names = list(block)
        value_lists = [_axis_values(n, v) for n, v in block.items()]
        for combo in itertools.product(*value_lists):
            try:
                scenario = Scenario(**dict(zip(names, combo)))
            except AxisConflict:
                continue
            canonical = scenario.canonical()
            prior = seen.get(scenario.name)
            if prior is not None:
                if prior != canonical and scenario.name not in collisions:
                    collisions.append(scenario.name)
                continue
            seen[scenario.name] = canonical
            scenarios.append(scenario)
    if collisions:
        raise ConfigError(
            "scenario-name collisions in grid (distinct resolved specs "
            f"share a name; store keys must be injective): {sorted(collisions)}"
        )
    return scenarios


# --------------------------------------------------------------------------
# Named matrices
# --------------------------------------------------------------------------

#: Seeds the synth matrices sweep.  Seed 0 would fall back to the
#: campaign-seed derivation (losing per-cell determinism in the name),
#: so sweeps start at 1.
SYNTH_SEEDS: Tuple[int, ...] = tuple(range(1, 8))

#: Fault-plan names by family (kept in sync with the registry by the
#: comprehension — an unknown name would fail Scenario validation).
TRANSPORT_FAULT_PLANS: Tuple[str, ...] = tuple(sorted(
    name for name, spec in FAULT_PLANS.items() if not spec.needs_monitor
))
MONITOR_FAULT_PLANS: Tuple[str, ...] = tuple(sorted(
    name for name, spec in FAULT_PLANS.items()
    if spec.needs_monitor and not spec.adversarial
))
ADVERSARIAL_FAULT_PLANS: Tuple[str, ...] = tuple(sorted(
    name for name, spec in FAULT_PLANS.items() if spec.adversarial
))

# Shorthands shared by the matrix blocks below.
_SEEDED = tuple(sorted(name for name, spec in VICTIMS.items() if spec.seeded))
_CROSS_SECTION = (POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE, POLICY_COARSE,
                  POLICY_COMPOSITE)
_HOST = dict(backend=BACKEND_COSIM, policy_backend=POLICY_BACKEND_HOST)
_TABLE2_BLOCKING = dict(queue_depth=1, blocking=True)


def _guarded(n_harts: int, **axes: object) -> Dict[str, object]:
    """A cross-hart cell at ``n_harts``: ``rop`` on hart 0, chatty
    deep-recursion peers, the defense layer mounted."""
    return dict(victim="rop", **_HOST, n_harts=n_harts,
                hart_victims=("deep-recursion",) * (n_harts - 1),
                defense=True, **axes)


#: The policy-host campaign: the complete victim × enforcing-policy
#: product with every policy mounted as a mailbox agent (shadow-stack on
#: the host too, for differential coverage against the firmware cells of
#: the other matrices), plus the Table II blocking configuration for the
#: return-edge policies.
_POLICYHOST: Tuple[dict, ...] = (
    dict(victim=sorted(VICTIMS), policy=ENFORCING_POLICIES, **_HOST),
    dict(victim=["benign", "rop"],
         policy=[POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN], **_HOST,
         **_TABLE2_BLOCKING),
)

#: Every named matrix, as the grid blocks :func:`expand_grid` expands in
#: order.  To add a matrix, add an entry here: each block maps
#: :class:`Scenario` fields to one value or a list (or tuple) of values,
#: the last axis varying fastest; a ``hart_victims`` value is a tuple of
#: names, so sweep it with a list of tuples.  Combinations ``Scenario``
#: rejects as an axis conflict drop, and a name repeated across blocks
#: keeps its first cell, so blocks may overlap.  Then regenerate
#: ``tests/campaign/cell_digests.json``, which pins every matrix's cells
#: in order: ``PYTHONPATH=src python tests/campaign/test_row_digests.py``.
MATRICES: Dict[str, Tuple[dict, ...]] = {
    # The standard campaign: every victim × the reference policies,
    # plus a cosim sweep over firmware variants and queue depths.
    "default": (
        dict(victim=sorted(VICTIMS), policy=_CROSS_SECTION,
             backend=BACKEND_REFERENCE),
        dict(victim=["benign", "rop", "ret-to-callsite", "jop"],
             backend=BACKEND_COSIM, firmware=["irq", "polling"]),
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM,
             **_TABLE2_BLOCKING),
    ),
    # CI: both backends, attacks and benign victims, in a few seconds;
    # the last block runs two policies the firmware does not implement
    # cycle-accurately as mailbox agents.
    "smoke": (
        dict(victim=["benign", "rop", "ret-to-callsite", "jop", "call-hijack"],
             policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE,
                     POLICY_COMPOSITE],
             backend=BACKEND_REFERENCE),
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM),
        dict(victim=["benign", "rop"],
             policy=[POLICY_COMPOSITE, POLICY_CRYPTO_RETURN], **_HOST),
    ),
    # The scale-out campaign: the reference victim × policy product,
    # seed-swept program shapes for every seeded victim (attack
    # placement and recursion depth vary per seed, deterministically),
    # cosim firmware variants × queue depths over a mixed benign/attack
    # set, Table II blocking, the optimized fabric, seed-swept cosim
    # runs, and the policy-host product.
    "full": (
        dict(victim=sorted(VICTIMS), policy=REFERENCE_POLICIES,
             backend=BACKEND_REFERENCE),
        dict(victim=_SEEDED,
             policy=[POLICY_SHADOW_STACK, POLICY_COARSE, POLICY_COMPOSITE],
             backend=BACKEND_REFERENCE, seed=[101, 202, 303]),
        dict(victim=["benign", "deep-recursion", "rop", "ret-to-callsite",
                     "jop"],
             backend=BACKEND_COSIM, firmware=["irq", "polling"],
             queue_depth=[1, 4, 8]),
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM,
             **_TABLE2_BLOCKING),
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM,
             fabric="optimized"),
        dict(victim=_SEEDED, backend=BACKEND_COSIM, queue_depth=[2, 8],
             seed=[11, 22]),
        *_POLICYHOST,
    ),
    "policyhost": _POLICYHOST,
    # Scenario synthesis: every synthesized family × every policy × a
    # seed sweep, the static oracle supplying each expected verdict; a
    # cosim slice re-checks the same programs on the policy host and on
    # the RV32 firmware, which must agree with the oracle too.
    "synth": (
        dict(victim=SYNTH_VICTIMS, policy=REFERENCE_POLICIES,
             backend=BACKEND_REFERENCE, seed=SYNTH_SEEDS),
        dict(victim=SYNTH_VICTIMS,
             policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE], **_HOST,
             seed=[1, 2]),
        dict(victim=SYNTH_VICTIMS, backend=BACKEND_COSIM, seed=3),
    ),
    # CI tier of synth: a policy cross section on the reference backend
    # and one cosim cell per mailbox agent, small enough to run serially.
    "synth-smoke": (
        dict(victim=SYNTH_VICTIMS, policy=_CROSS_SECTION,
             backend=BACKEND_REFERENCE, seed=[1, 2]),
        dict(victim=["synth-rop", "synth-benign"], backend=BACKEND_COSIM,
             seed=1),
        dict(victim=["synth-jop", "synth-ret-to-callsite"],
             policy=POLICY_COMPOSITE, **_HOST, seed=1),
    ),
    # Feature-grown victims (bounded recursion and indirect tail calls
    # on every synthesis family) × every policy × a seed sweep, pinning
    # the generator features that `python -m repro.coverage run` explores
    # beyond.  Recursion stresses the shadow-stack depth machinery, so a
    # slice is re-checked cycle-accurately on both mailbox agents.
    "coverage": (
        dict(victim=COVERAGE_VICTIMS, policy=REFERENCE_POLICIES,
             backend=BACKEND_REFERENCE, seed=SYNTH_SEEDS),
        dict(victim=["cov-rop", "cov-benign"], backend=BACKEND_COSIM,
             seed=1),
        dict(victim=["cov-jop", "cov-ret-to-callsite"],
             policy=POLICY_COMPOSITE, **_HOST, seed=1),
    ),
    # CI tier of coverage: two seeds per feature-grown victim against
    # the policy cross section, reference backend only.
    "coverage-smoke": (
        dict(victim=COVERAGE_VICTIMS, policy=_CROSS_SECTION,
             backend=BACKEND_REFERENCE, seed=[1, 2]),
    ),
    # Fault injection, each cell graded against its fault-free baseline
    # by the fault oracle and the per-policy degradation contract:
    # transport faults on the RV32 firmware (they are agent-agnostic),
    # the full non-adversarial registry on the policy host, and a
    # stalled monitor at depth 1/2 that makes the writer outpace it.
    "faults": (
        dict(victim=["benign", "rop", "ret-to-callsite", "jop"],
             backend=BACKEND_COSIM, fault_plan=TRANSPORT_FAULT_PLANS),
        dict(victim=["benign", "rop", "jop", "call-hijack"],
             policy=ENFORCING_POLICIES, **_HOST,
             fault_plan=TRANSPORT_FAULT_PLANS + MONITOR_FAULT_PLANS),
        dict(victim=["deep-recursion", "rop"],
             policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE], **_HOST,
             queue_depth=[1, 2], fault_plan="stall-burst"),
    ),
    # CI tier of faults: one cell per fault family on each agent, plus
    # one queue-stress cell.
    "faults-smoke": (
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM,
             fault_plan=["drop-first", "dup-first", "corrupt-target"]),
        dict(victim=["benign", "rop"],
             policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE], **_HOST,
             fault_plan=["stall-late", "reset-early"]),
        dict(victim="deep-recursion", **_HOST, queue_depth=2,
             fault_plan="stall-burst"),
    ),
    # One RoT monitor protecting N harts through the shared mailbox: the
    # detection product at N = 2, 4 with benign peers; a second attack
    # class in flight on the peer; the same attack launched from another
    # hart at an offset start (its identity cell repeats the product's);
    # and monitor starvation, where N−1 call-heavy peers keep the
    # doorbell arbiter saturated.
    "multihart": (
        dict(n_harts=[2, 4],
             victim=["benign", "rop", "jop", "ret-to-callsite"],
             policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
             backend=BACKEND_COSIM),
        dict(victim="rop", policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
             backend=BACKEND_COSIM, n_harts=2,
             hart_victims=[("jop",), ("ret-to-callsite",)]),
        dict(victim="rop", backend=BACKEND_COSIM, n_harts=4,
             attack_hart=[0, 2], stagger=[0, 750]),
        # Pairs whose peer count does not match n_harts conflict.
        dict(n_harts=[4, 8],
             hart_victims=[("deep-recursion",) * 3, ("deep-recursion",) * 7],
             victim="rop", policy=[POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN],
             backend=BACKEND_COSIM),
    ),
    # CI tier of multihart: attacks with benign and chatty peers at
    # N = 2, 4, plus one staggered cell.
    "multihart-smoke": (
        dict(victim=["benign", "rop"], backend=BACKEND_COSIM, n_harts=[2, 4]),
        dict(victim="rop", policy=POLICY_COMPOSITE, backend=BACKEND_COSIM,
             n_harts=2, hart_victims=("jop",)),
        dict(victim="rop", backend=BACKEND_COSIM, n_harts=4,
             hart_victims=("deep-recursion",) * 3, stagger=750),
    ),
    # A compromised hart attacks its peers through the shared CFI
    # transport under the monitor's defense layer.  Hart 0's real attack
    # is the benign-unaffected contract's probe; guarded no-adversary
    # cells anchor the per-hart baseline (the defense itself must not
    # perturb a clean run), and an N = 4 fault-hart sweep moves the
    # compromised hart around the arbiter's rotation.
    "xhart": (
        _guarded(2, policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE]),
        _guarded(2, policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
                 fault_plan=ADVERSARIAL_FAULT_PLANS, fault_hart=1),
        _guarded(4, policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE]),
        _guarded(4, policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
                 fault_plan=ADVERSARIAL_FAULT_PLANS, fault_hart=1),
        _guarded(4, fault_plan=ADVERSARIAL_FAULT_PLANS, fault_hart=[2, 3]),
    ),
    # CI tier of xhart: N = 2, every adversarial plan plus the guarded
    # baseline.
    "xhart-smoke": (
        _guarded(2),
        _guarded(2, fault_plan=ADVERSARIAL_FAULT_PLANS, fault_hart=1),
    ),
}


def resolve_matrix(name: str) -> List[Scenario]:
    """Expand a named matrix; raises :class:`ConfigError` when unknown."""
    try:
        blocks = MATRICES[name]
    except KeyError:
        raise ConfigError(
            f"unknown matrix {name!r} (have: {', '.join(sorted(MATRICES))})"
        ) from None
    return expand_grid(*blocks)
