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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.programs import (
    benign_program,
    call_hijack_program,
    deep_recursion_program,
    indirect_jump_program,
    jop_program,
    return_to_callsite_program,
    rop_program,
)
from repro.errors import ConfigError, UnknownHartError
from repro.faults.plan import FAULT_PLANS
from repro.isa.asm import Program
from repro.system.addresses import AddressMap
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

#: Mailbox-agent axis of a cosim scenario (mirrors
#: :data:`repro.system.sim.POLICY_BACKENDS`; ``auto`` resolves to the
#: firmware for its own policy and to the policy host for every other).
POLICY_BACKEND_AUTO = "auto"
POLICY_BACKEND_FIRMWARE = "firmware"
POLICY_BACKEND_HOST = "host"

_POLICY_BACKENDS = (POLICY_BACKEND_AUTO, POLICY_BACKEND_FIRMWARE,
                    POLICY_BACKEND_HOST)


@dataclass(frozen=True)
class Scenario:
    """One fully-specified campaign cell.  Plain data; picklable.

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
        if self.victim not in VICTIMS:
            raise ConfigError(f"unknown victim {self.victim!r}")
        if self.backend not in (BACKEND_REFERENCE, BACKEND_COSIM):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.policy not in REFERENCE_POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.policy_backend not in _POLICY_BACKENDS:
            raise ConfigError(
                f"unknown policy backend {self.policy_backend!r} "
                f"(have: {_POLICY_BACKENDS})"
            )
        # Multi-hart count first (typed, reject-never-clamp): everything
        # below — including ``resolved_policy_backend`` — compares
        # ``n_harts``, so a non-int must not get that far.
        if type(self.n_harts) is not int or self.n_harts != 1:
            Topology(n_harts=self.n_harts)  # raises HartCountError
        if self.backend == BACKEND_COSIM and self.resolved_policy_backend is None:
            if self.policy == POLICY_NONE:
                raise ConfigError(
                    "the cosim backend needs an enforcing policy; "
                    "policy 'none' needs backend='reference'"
                )
            raise ConfigError(
                "the RV32 firmware implements only the shadow stack; "
                f"policy {self.policy!r} on the cosim backend needs "
                "policy_backend='host' (or 'auto')"
            )
        if self.firmware not in ("irq", "polling"):
            raise ConfigError(f"unknown firmware variant {self.firmware!r}")
        if self.fabric not in ("standard", "optimized"):
            raise ConfigError(f"unknown fabric {self.fabric!r}")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.fault_plan is not None:
            if self.fault_plan not in FAULT_PLANS:
                raise ConfigError(
                    f"unknown fault plan {self.fault_plan!r} "
                    f"(have: {', '.join(sorted(FAULT_PLANS))})"
                )
            if self.backend != BACKEND_COSIM:
                raise ConfigError(
                    "fault injection needs the cosim backend (the "
                    "reference backend has no transport to fault)"
                )
            if (FAULT_PLANS[self.fault_plan].needs_monitor
                    and self.resolved_policy_backend != POLICY_BACKEND_HOST):
                raise ConfigError(
                    f"fault plan {self.fault_plan!r} injects monitor "
                    "faults, which need policy_backend='host' (the RV32 "
                    "firmware monitor cannot be injected into)"
                )
            if FAULT_PLANS[self.fault_plan].adversarial:
                if self.n_harts < 2:
                    raise ConfigError(
                        f"fault plan {self.fault_plan!r} models a "
                        "compromised hart attacking its peers; it needs "
                        "a multi-hart cell (n_harts > 1)"
                    )
                if not self.defense:
                    raise ConfigError(
                        f"fault plan {self.fault_plan!r} is adversarial; "
                        "the per-hart degradation contract needs "
                        "defense=True (the quarantining monitor)"
                    )
        if self.fault_hart is not None:
            if self.fault_plan is None:
                raise ConfigError("fault_hart needs a fault_plan")
            if (type(self.fault_hart) is not int
                    or not 0 <= self.fault_hart < self.n_harts):
                raise UnknownHartError(self.fault_hart, self.n_harts)
        if self.defense and (self.backend != BACKEND_COSIM
                             or self.n_harts < 2):
            raise ConfigError(
                "defense (the quarantining monitor) needs a multi-hart "
                "cosim cell — the doorbell arbiter hosts the quarantine "
                "latch"
            )
        if self.lossy:
            if self.backend != BACKEND_COSIM:
                raise ConfigError(
                    "lossy queues need the cosim backend (the reference "
                    "backend has no queue to shed from)"
                )
            if self.blocking:
                raise ConfigError(
                    "lossy and blocking are mutually exclusive (blocking "
                    "waits on the very check a lossy queue would shed)"
                )
        # Remaining multi-hart axes (the hart count was checked above).
        if not 0 <= self.attack_hart < self.n_harts:
            raise UnknownHartError(self.attack_hart, self.n_harts)
        if self.stagger < 0:
            raise ConfigError("stagger must be >= 0")
        if self.n_harts == 1:
            if self.hart_victims:
                raise ConfigError(
                    "hart_victims needs a multi-hart cell (n_harts > 1)"
                )
            if self.stagger:
                raise ConfigError(
                    "stagger needs a multi-hart cell (n_harts > 1)"
                )
            if self.fault_hart is not None:
                raise ConfigError(
                    "fault_hart needs a multi-hart cell (n_harts > 1)"
                )
        else:
            if self.backend != BACKEND_COSIM:
                raise ConfigError(
                    "multi-hart cells need the cosim backend (the "
                    "reference backend has no shared-monitor timeline)"
                )
            if self.policy_backend == POLICY_BACKEND_FIRMWARE:
                raise ConfigError(
                    "the RV32 firmware keeps a single shadow context; "
                    "multi-hart cells need policy_backend='host' (or "
                    "'auto')"
                )
            if self.fault_plan is not None and self.fault_hart is None:
                raise ConfigError(
                    "multi-hart fault injection needs fault_hart (an "
                    "unscoped plan would silently fault hart 0)"
                )
            if self.hart_victims and len(self.hart_victims) != self.n_harts - 1:
                raise ConfigError(
                    f"{len(self.hart_victims)} hart_victims for "
                    f"{self.n_harts} harts (need n_harts - 1: one per "
                    "hart other than the attack hart)"
                )
            for name in (self.victim,) + tuple(self.hart_victims):
                if name not in VICTIMS:
                    raise ConfigError(f"unknown victim {name!r}")
                if VICTIMS[name].synthetic:
                    raise ConfigError(
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
    by the equivalence suites and ``bench_speed --smoke``), so a result
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

def expand_grid(**axes: Sequence[object]) -> List[Scenario]:
    """Cartesian-product expansion of scenario parameter axes.

    Each keyword is a :class:`Scenario` field name mapped to the values
    to sweep; scalars are promoted to one-element axes.  Invalid
    combinations (cosim with no enforcing policy, or the firmware
    backend asked for a policy it does not implement) and redundant
    cells (reference-backend scenarios that differ only in cosim-only
    knobs such as ``firmware`` or ``queue_depth``) are dropped, so
    grids can sweep policies, backends and policy backends together; a
    bad field *value* (a typo'd victim or policy name) still raises.
    Two cells sharing a name may only collapse when their
    :meth:`Scenario.canonical` specs are equal (they would execute
    identically); a *semantic* collision — same name, different
    resolved spec — raises a :class:`~repro.errors.ConfigError` listing
    the duplicates, because scenario names key artifacts and the result
    store's spec hashes must stay injective over a matrix::

        expand_grid(victim=["rop", "benign"],
                    policy=["shadow-stack", "coarse"],
                    queue_depth=[1, 8])
    """
    names = list(axes)

    def axis_values(name: str, value: object) -> List[object]:
        if name == "hart_victims":
            # A tuple/list of victim names is ONE axis value (the
            # per-hart assignment); sweep by passing a list of tuples.
            if isinstance(value, (list, tuple)):
                if value and all(isinstance(v, (list, tuple)) for v in value):
                    return [tuple(v) for v in value]
                return [tuple(value)]
            raise ConfigError(
                "hart_victims axis takes a tuple of victim names "
                "(or a list of such tuples to sweep)"
            )
        return list(value) if isinstance(value, (list, tuple)) else [value]

    value_lists = [axis_values(n, v) for n, v in axes.items()]
    scenarios: List[Scenario] = []
    seen: Dict[str, Dict[str, object]] = {}
    collisions: List[str] = []
    for combo in itertools.product(*value_lists):
        kwargs = dict(zip(names, combo))
        # Only the known *cross-field* incompatibilities are skippable;
        # a bad field value (typo'd victim/policy name) must still
        # raise, or the matrix would silently shrink.
        fault_plan = kwargs.get("fault_plan")
        n_harts = kwargs.get("n_harts", 1)
        if isinstance(n_harts, int):
            hart_victims = kwargs.get("hart_victims", ())
            attack_hart = kwargs.get("attack_hart", 0)
            if n_harts > 1:
                # Multi-hart cells only exist on the cosim backend with
                # a host mailbox agent; fault cells also need a scoped
                # fault hart.  Mixed sweeps drop the incompatible cells
                # rather than raising.
                if kwargs.get("backend") != BACKEND_COSIM:
                    continue
                if kwargs.get("policy_backend") == POLICY_BACKEND_FIRMWARE:
                    continue
                if fault_plan is not None and kwargs.get("fault_hart") is None:
                    continue
                if fault_plan is None and kwargs.get("fault_hart") is not None:
                    continue
                if hart_victims and len(hart_victims) != n_harts - 1:
                    continue
                if isinstance(attack_hart, int) and attack_hart >= n_harts:
                    continue
                fault_hart = kwargs.get("fault_hart")
                if isinstance(fault_hart, int) and fault_hart >= n_harts:
                    continue
            else:
                # Multi-hart-only knobs drop their single-hart cells.
                if hart_victims or kwargs.get("stagger") or attack_hart:
                    continue
                if kwargs.get("defense") or kwargs.get("fault_hart") is not None:
                    continue
                if (fault_plan is not None and fault_plan in FAULT_PLANS
                        and FAULT_PLANS[fault_plan].adversarial):
                    continue
        if kwargs.get("backend") == BACKEND_COSIM:
            policy = kwargs.get("policy", POLICY_SHADOW_STACK)
            policy_backend = kwargs.get("policy_backend", POLICY_BACKEND_AUTO)
            if policy == POLICY_NONE:
                continue
            if kwargs.get("lossy") and kwargs.get("blocking"):
                # Lossy sheds the very check blocking waits on.
                continue
            if (policy_backend == POLICY_BACKEND_FIRMWARE
                    and policy != POLICY_SHADOW_STACK):
                continue
            if (fault_plan is not None
                    and fault_plan in FAULT_PLANS
                    and FAULT_PLANS[fault_plan].needs_monitor):
                # Monitor faults need the policy-host agent; a sweep
                # mixing fault families over both agents drops the
                # firmware-resolved cells rather than raising.
                resolved = policy_backend
                if policy_backend == POLICY_BACKEND_AUTO:
                    resolved = (POLICY_BACKEND_FIRMWARE
                                if policy == POLICY_SHADOW_STACK
                                else POLICY_BACKEND_HOST)
                if resolved != POLICY_BACKEND_HOST:
                    continue
        elif (fault_plan is not None or kwargs.get("lossy")
                or kwargs.get("defense")):
            # Fault plans, lossy queues and the defense layer are
            # cosim-only; mixed-backend sweeps drop the reference cells.
            continue
        scenario = Scenario(**kwargs)
        # Scenario.name omits knobs its backend ignores, so equivalent
        # cells from a mixed-backend sweep collapse to the first one —
        # but only *equivalent* ones: a name shared by two semantically
        # different cells would silently drop one and alias its store
        # key, so that is collected and raised below.
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

def default_matrix() -> List[Scenario]:
    """The standard campaign: every victim × every reference policy,
    plus a cosim sweep over firmware variants and queue depths."""
    scenarios = expand_grid(
        victim=sorted(VICTIMS),
        policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE,
                POLICY_COARSE, POLICY_COMPOSITE],
        backend=BACKEND_REFERENCE,
    )
    scenarios += expand_grid(
        victim=["benign", "rop", "ret-to-callsite", "jop"],
        backend=BACKEND_COSIM,
        firmware=["irq", "polling"],
    )
    scenarios += expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
        queue_depth=1,
        blocking=True,
    )
    return scenarios


def smoke_matrix() -> List[Scenario]:
    """A small matrix for CI: covers both backends, attacks and benign
    victims, in a few seconds."""
    scenarios = expand_grid(
        victim=["benign", "rop", "ret-to-callsite", "jop", "call-hijack"],
        policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE, POLICY_COMPOSITE],
        backend=BACKEND_REFERENCE,
    )
    scenarios += expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
    )
    # Policy-host slice: two policies the firmware does not implement,
    # running cycle-accurately as mailbox agents.
    scenarios += expand_grid(
        victim=["benign", "rop"],
        policy=[POLICY_COMPOSITE, POLICY_CRYPTO_RETURN],
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
    )
    return scenarios


def policyhost_matrix() -> List[Scenario]:
    """The policy-host campaign: the complete victim × enforcing-policy
    product on the cosim backend with every policy mounted as a mailbox
    agent (shadow-stack-on-host included, for differential coverage
    against the firmware cells of the other matrices), plus the
    Table II blocking configuration for the return-edge policies."""
    scenarios = expand_grid(
        victim=sorted(VICTIMS),
        policy=list(ENFORCING_POLICIES),
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
    )
    scenarios += expand_grid(
        victim=["benign", "rop"],
        policy=[POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN],
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        queue_depth=1,
        blocking=True,
    )
    return scenarios


def full_matrix() -> List[Scenario]:
    """The scale-out campaign: queue depths × firmware variants ×
    policies × seed-swept attack placement (ROADMAP campaign scale-out
    item).  Declarative registry entries only — the runner's shard
    cache keeps the per-scenario build cost amortised."""
    seeded = sorted(name for name, spec in VICTIMS.items() if spec.seeded)
    # Reference backend: the complete victim × policy product…
    scenarios = expand_grid(
        victim=sorted(VICTIMS),
        policy=list(REFERENCE_POLICIES),
        backend=BACKEND_REFERENCE,
    )
    # …plus seed-swept program shapes for every seeded victim (attack
    # placement / recursion depth vary per seed, deterministically).
    scenarios += expand_grid(
        victim=seeded,
        policy=[POLICY_SHADOW_STACK, POLICY_COARSE, POLICY_COMPOSITE],
        backend=BACKEND_REFERENCE,
        seed=[101, 202, 303],
    )
    # Cosim backend: firmware variants × queue depths over a mixed
    # benign/attack set…
    scenarios += expand_grid(
        victim=["benign", "deep-recursion", "rop", "ret-to-callsite", "jop"],
        backend=BACKEND_COSIM,
        firmware=["irq", "polling"],
        queue_depth=[1, 4, 8],
    )
    # …the Table II blocking configuration…
    scenarios += expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
        queue_depth=1,
        blocking=True,
    )
    # …the optimized fabric…
    scenarios += expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
        fabric="optimized",
    )
    # …seed-swept cosim runs of the seeded victims…
    scenarios += expand_grid(
        victim=seeded,
        backend=BACKEND_COSIM,
        queue_depth=[2, 8],
        seed=[11, 22],
    )
    # …and the policy-host product: every victim × every enforcing
    # policy as a cycle-accurate mailbox agent.
    scenarios += policyhost_matrix()
    return scenarios


#: Seeds the synth matrices sweep.  Seed 0 would fall back to the
#: campaign-seed derivation (losing per-cell determinism in the name),
#: so sweeps start at 1.
SYNTH_SEEDS: Tuple[int, ...] = tuple(range(1, 8))


def synth_matrix() -> List[Scenario]:
    """The scenario-synthesis campaign: every synthesized family ×
    every policy × a seed sweep, with the static oracle supplying the
    expected verdict per generated program.

    The reference block alone is families × policies × seeds (well past
    the 200-scenario mark); a cosim slice re-checks a sample of the
    same generated programs cycle-accurately on both mailbox agents
    (RV32 firmware and policy host)."""
    scenarios = expand_grid(
        victim=list(SYNTH_VICTIMS),
        policy=list(REFERENCE_POLICIES),
        backend=BACKEND_REFERENCE,
        seed=list(SYNTH_SEEDS),
    )
    scenarios += expand_grid(
        victim=list(SYNTH_VICTIMS),
        policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        seed=[1, 2],
    )
    # Firmware-agent cells: the RV32 shadow-stack firmware must agree
    # with the oracle on generated programs too.
    scenarios += expand_grid(
        victim=list(SYNTH_VICTIMS),
        backend=BACKEND_COSIM,
        seed=[3],
    )
    return scenarios


def synth_smoke_matrix() -> List[Scenario]:
    """CI tier of the synthesis campaign: fixed seeds, a policy cross
    section on the reference backend, and one cosim cell per mailbox
    agent — small enough for the serial runner."""
    scenarios = expand_grid(
        victim=list(SYNTH_VICTIMS),
        policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE, POLICY_COARSE,
                POLICY_COMPOSITE],
        backend=BACKEND_REFERENCE,
        seed=[1, 2],
    )
    scenarios += expand_grid(
        victim=["synth-rop", "synth-benign"],
        backend=BACKEND_COSIM,
        seed=[1],
    )
    scenarios += expand_grid(
        victim=["synth-jop", "synth-ret-to-callsite"],
        policy=POLICY_COMPOSITE,
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        seed=[1],
    )
    return scenarios


def coverage_matrix() -> List[Scenario]:
    """The coverage campaign: feature-grown victims (bounded recursion
    + indirect tail calls layered onto every synthesis family) × every
    reference policy × a seed sweep, plus a cosim cross-check slice.

    Complements ``python -m repro.coverage run`` (the guided fuzz loop
    writes the same artifact schema): this matrix pins the *generator
    features* under the standard campaign machinery, the fuzz loop
    explores *mutation space* beyond it."""
    scenarios = expand_grid(
        victim=list(COVERAGE_VICTIMS),
        policy=list(REFERENCE_POLICIES),
        backend=BACKEND_REFERENCE,
        seed=list(SYNTH_SEEDS),
    )
    # Recursion stresses exactly the shadow-stack depth machinery, so
    # re-check a slice cycle-accurately on both mailbox agents.
    scenarios += expand_grid(
        victim=["cov-rop", "cov-benign"],
        backend=BACKEND_COSIM,
        seed=[1],
    )
    scenarios += expand_grid(
        victim=["cov-jop", "cov-ret-to-callsite"],
        policy=POLICY_COMPOSITE,
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        seed=[1],
    )
    return scenarios


def coverage_smoke_matrix() -> List[Scenario]:
    """CI tier of the coverage campaign: two seeds per feature-grown
    victim against the policy cross section, reference backend only."""
    return expand_grid(
        victim=list(COVERAGE_VICTIMS),
        policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE, POLICY_COARSE,
                POLICY_COMPOSITE],
        backend=BACKEND_REFERENCE,
        seed=[1, 2],
    )


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


def faults_matrix() -> List[Scenario]:
    """The fault-injection campaign: fault families × policies ×
    victims, each cell checked against its fault-free baseline by the
    fault oracle and the per-policy degradation contract.

    Three blocks: transport faults against the RV32 firmware agent
    (drop/dup/corrupt are agent-agnostic), the full fault-plan registry
    against every enforcing policy on the policy host, and
    queue-overflow stress (monitor stall bursts) at shallow depths."""
    scenarios = expand_grid(
        victim=["benign", "rop", "ret-to-callsite", "jop"],
        backend=BACKEND_COSIM,
        fault_plan=list(TRANSPORT_FAULT_PLANS),
    )
    scenarios += expand_grid(
        victim=["benign", "rop", "jop", "call-hijack"],
        policy=list(ENFORCING_POLICIES),
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        fault_plan=list(TRANSPORT_FAULT_PLANS) + list(MONITOR_FAULT_PLANS),
    )
    # Queue-overflow stress: a stalled monitor at depth 1/2 makes the
    # writer outpace it, exercising the back-pressure paths under fault.
    scenarios += expand_grid(
        victim=["deep-recursion", "rop"],
        policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        queue_depth=[1, 2],
        fault_plan="stall-burst",
    )
    return scenarios


def faults_smoke_matrix() -> List[Scenario]:
    """CI tier of the fault campaign: one cell per fault family on each
    agent, plus one queue-stress cell — small enough for the serial
    runner."""
    scenarios = expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
        fault_plan=["drop-first", "dup-first", "corrupt-target"],
    )
    scenarios += expand_grid(
        victim=["benign", "rop"],
        policy=[POLICY_SHADOW_STACK, POLICY_FORWARD_EDGE],
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        fault_plan=["stall-late", "reset-early"],
    )
    scenarios += expand_grid(
        victim="deep-recursion",
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        queue_depth=2,
        fault_plan="stall-burst",
    )
    return scenarios


def multihart_matrix() -> List[Scenario]:
    """The many-hart campaign: one RoT monitor protecting N application
    harts through the shared arbitrated mailbox.

    Four blocks: the detection product at N ∈ {2, 4} (attacks with
    benign peers, per policy), concurrent victims (two attack classes
    in flight at once, under the composite monitor), staggered attacks
    (the same attack fired from different harts at offset start times),
    and monitor starvation (one attack hart racing N−1 chatty
    deep-recursion peers that keep the doorbell arbiter saturated)."""
    scenarios: List[Scenario] = []
    for n in (2, 4):
        scenarios += expand_grid(
            victim=["benign", "rop", "jop", "ret-to-callsite"],
            policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
            backend=BACKEND_COSIM,
            n_harts=n,
        )
    # Concurrent victims: a second attack class on the peer hart.
    scenarios += expand_grid(
        victim="rop",
        policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
        backend=BACKEND_COSIM,
        n_harts=2,
        hart_victims=[("jop",), ("ret-to-callsite",)],
    )
    # Staggered attacks: same cell, different launch hart and offset.
    scenarios += expand_grid(
        victim="rop",
        backend=BACKEND_COSIM,
        n_harts=4,
        attack_hart=[0, 2],
        stagger=[0, 750],
    )
    # Monitor starvation: N−1 call-heavy peers contend for the mailbox.
    for n in (4, 8):
        scenarios += expand_grid(
            victim="rop",
            policy=[POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN],
            backend=BACKEND_COSIM,
            n_harts=n,
            hart_victims=("deep-recursion",) * (n - 1),
        )
    # The blocks overlap at their identity cells (e.g. the staggered
    # sweep's attack_hart=0/stagger=0 combination is the detection
    # product's rop cell); names pair artifacts and derive seeds, so
    # duplicates must collapse here.
    seen: set = set()
    unique: List[Scenario] = []
    for cell in scenarios:
        if cell.name not in seen:
            seen.add(cell.name)
            unique.append(cell)
    return unique


def multihart_smoke_matrix() -> List[Scenario]:
    """CI tier of the many-hart campaign: N ∈ {2, 4}, attacks with
    benign and chatty peers plus one staggered cell — small enough for
    the serial runner."""
    scenarios = expand_grid(
        victim=["benign", "rop"],
        backend=BACKEND_COSIM,
        n_harts=[2, 4],
    )
    scenarios += expand_grid(
        victim="rop",
        policy=POLICY_COMPOSITE,
        backend=BACKEND_COSIM,
        n_harts=2,
        hart_victims=("jop",),
    )
    scenarios += expand_grid(
        victim="rop",
        backend=BACKEND_COSIM,
        n_harts=4,
        hart_victims=("deep-recursion",) * 3,
        stagger=750,
    )
    return scenarios


def xhart_matrix() -> List[Scenario]:
    """The cross-hart adversarial campaign: a compromised hart attacks
    its peers through the shared CFI transport while the monitor's
    defense layer (quarantine, fail-safe, hold watchdog) is mounted.

    Each cell pairs a real attack victim on hart 0 (its detection is
    the benign-unaffected contract's probe) with chatty deep-recursion
    peers; the adversarial plan is scoped to :attr:`Scenario.fault_hart`.
    Guarded no-adversary cells anchor the per-hart baseline, and a
    fault-hart sweep at N=4 moves the compromised hart around the
    arbiter's rotation."""
    scenarios: List[Scenario] = []
    for n in (2, 4):
        common = dict(
            victim="rop",
            policy=[POLICY_SHADOW_STACK, POLICY_COMPOSITE],
            backend=BACKEND_COSIM,
            policy_backend=POLICY_BACKEND_HOST,
            n_harts=n,
            hart_victims=("deep-recursion",) * (n - 1),
            defense=True,
        )
        # Guarded no-adversary baselines (the defense layer itself must
        # not perturb a clean run's verdicts).
        scenarios += expand_grid(**common)
        scenarios += expand_grid(
            **common,
            fault_plan=list(ADVERSARIAL_FAULT_PLANS),
            fault_hart=1,
        )
    # The compromised hart's position must not matter: sweep it across
    # the N=4 arbiter rotation.
    scenarios += expand_grid(
        victim="rop",
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        n_harts=4,
        hart_victims=("deep-recursion",) * 3,
        fault_plan=list(ADVERSARIAL_FAULT_PLANS),
        fault_hart=[2, 3],
        defense=True,
    )
    return scenarios


def xhart_smoke_matrix() -> List[Scenario]:
    """CI tier of the cross-hart campaign: N=2, every adversarial plan
    plus the guarded baseline — small enough for the serial runner."""
    scenarios = expand_grid(
        victim="rop",
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        n_harts=2,
        hart_victims=("deep-recursion",),
        defense=True,
    )
    scenarios += expand_grid(
        victim="rop",
        backend=BACKEND_COSIM,
        policy_backend=POLICY_BACKEND_HOST,
        n_harts=2,
        hart_victims=("deep-recursion",),
        fault_plan=list(ADVERSARIAL_FAULT_PLANS),
        fault_hart=1,
        defense=True,
    )
    return scenarios


MATRICES: Dict[str, Callable[[], List[Scenario]]] = {
    "default": default_matrix,
    "smoke": smoke_matrix,
    "full": full_matrix,
    "policyhost": policyhost_matrix,
    "synth": synth_matrix,
    "synth-smoke": synth_smoke_matrix,
    "coverage": coverage_matrix,
    "coverage-smoke": coverage_smoke_matrix,
    "faults": faults_matrix,
    "faults-smoke": faults_smoke_matrix,
    "multihart": multihart_matrix,
    "multihart-smoke": multihart_smoke_matrix,
    "xhart": xhart_matrix,
    "xhart-smoke": xhart_smoke_matrix,
}


def resolve_matrix(name: str) -> List[Scenario]:
    """Look up a named matrix; raises :class:`ConfigError` when unknown."""
    try:
        factory = MATRICES[name]
    except KeyError:
        raise ConfigError(
            f"unknown matrix {name!r} (have: {', '.join(sorted(MATRICES))})"
        ) from None
    return factory()
