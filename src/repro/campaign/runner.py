"""Scenario execution: one process per shard, one verdict per scenario.

``run_scenario`` executes a single :class:`~repro.campaign.spec.Scenario`
on its backend and returns a plain-dict result (JSON-ready, picklable).
``run_campaign`` fans a scenario list out over a ``multiprocessing``
worker pool — scenarios are self-describing data, so each worker
rebuilds programs and policies from the registries by name — with a
serial in-process fallback (``jobs=1``) for debugging and determinism
checks.

Determinism: every scenario derives its seed from the campaign seed and
its own identity (:func:`~repro.campaign.spec.derive_seed`), and results
carry no wall-clock fields, so a parallel run and a serial run of the
same matrix aggregate to identical artifacts.

Shard-level caching: victim programs are pure functions of
``(victim, seed)`` and firmware images of their variant, so each worker
process memoises them (:class:`ShardCache`) — per-scenario setup stays
off the hot path when a shard executes many scenarios.  The cache never
changes results: entries are keyed on every input that feeds the build,
and :func:`configure_shard_cache` can disable it to prove it
(cold = warm = disabled, asserted by ``tests/campaign/test_cache.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.programs import GADGET_MARKER
from repro.attacks.rop import run_attack_scenario
from repro.campaign.spec import (
    BACKEND_COSIM,
    BACKEND_REFERENCE,
    POLICY_BACKEND_HOST,
    POLICY_COARSE,
    POLICY_COMPOSITE,
    POLICY_CRYPTO_RETURN,
    POLICY_FORWARD_EDGE,
    POLICY_NONE,
    POLICY_SHADOW_STACK,
    VICTIMS,
    Scenario,
    derive_seed,
    expected_detection,
)
from repro.core.commit_log import CommitLog
from repro.core.filter import CfiFilter
from repro.cva6.scoreboard import ScoreboardEntry
from repro.errors import (
    ConfigError,
    ScenarioTimeout,
    SimulationError,
    WorkerCrash,
)
from repro.firmware.policies import (
    COMPOSITE_MEMBERS,
    CheckResult,
    CoarseGrainedPolicy,
    CompositePolicy,
    CryptoReturnPolicy,
    ForwardEdgePolicy,
    ShadowStackPolicy,
)
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.isa.asm import Program
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.system.addresses import AddressMap

#: Result-dict schema version (bumped on breaking field changes).
RESULT_SCHEMA = "repro.campaign/v1"


# --------------------------------------------------------------------------
# Shard-level build cache
# --------------------------------------------------------------------------

class ShardCache:
    """Per-process memo of assembled victim programs and firmware images.

    Both artifacts are deterministic functions of their key — a victim
    builder consumes only the address map defaults and its seeded RNG,
    a firmware image only its variant — so memoising them cannot change
    any scenario result; it only keeps assembly and layout work off the
    per-scenario hot path.  Each ``multiprocessing`` worker owns an
    independent instance (module state is per-process), which is what
    makes this a *shard*-level cache.
    """

    def __init__(self):
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._programs: Dict[Tuple[str, int], Program] = {}
        self._firmware: Dict[str, bytes] = {}
        self._memo: Dict[Tuple, object] = {}

    def clear(self) -> None:
        """Drop every cached artifact (counters included)."""
        self._programs.clear()
        self._firmware.clear()
        self._memo.clear()
        self.hits = 0
        self.misses = 0

    def memo(self, key: Tuple, compute: Callable[[], object]):
        """Generic deterministic memo (fault baselines, oracle streams).

        ``key`` must cover every input that feeds ``compute`` — same
        contract as the program/firmware memos, same cold = warm = off
        guarantee.
        """
        if not self.enabled:
            return compute()
        if key in self._memo:
            self.hits += 1
            return self._memo[key]
        self.misses += 1
        value = compute()
        self._memo[key] = value
        return value

    def program(self, victim: str, seed: int,
                addresses: Optional[AddressMap] = None) -> Program:
        """The victim's assembled image for ``seed`` (memoised).

        ``addresses`` relocates the build (multi-hart cells lay each
        hart's program in its own DRAM segment); the memo key carries
        the placement base, so differently-placed builds never alias.
        """
        amap = addresses or AddressMap()
        if not self.enabled:
            return VICTIMS[victim].builder(amap, random.Random(seed))
        key = (victim, seed, amap.dram_base)
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            program = VICTIMS[victim].builder(amap, random.Random(seed))
            self._programs[key] = program
        else:
            self.hits += 1
        return program

    def firmware(self, variant: str) -> bytes:
        """The shadow-stack firmware image for ``variant`` (memoised)."""
        if not self.enabled:
            return _build_firmware(variant)
        image = self._firmware.get(variant)
        if image is None:
            self.misses += 1
            image = _build_firmware(variant)
            self._firmware[variant] = image
        else:
            self.hits += 1
        return image


def _build_firmware(variant: str) -> bytes:
    from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware

    return shadow_stack_firmware(variant, FirmwareLayout(AddressMap())).data


#: The process-wide shard cache (one per worker process).
SHARD_CACHE = ShardCache()


def configure_shard_cache(enabled: bool) -> None:
    """Enable/disable the shard cache (clears it either way)."""
    SHARD_CACHE.enabled = enabled
    SHARD_CACHE.clear()


def _resolve_symbols(program: Program, names: Sequence[str]) -> set:
    """Resolve label-set names against the victim's symbol table.

    Unknown names raise: a typo'd registry entry must fail loudly, not
    silently shrink a policy's target set into false positives.
    """
    missing = [name for name in names if name not in program.symbols]
    if missing:
        raise ConfigError(f"label set names unknown symbols: {missing}")
    return {program.symbols[name] for name in names}


def build_policy(
    policy: str,
    program: Program,
    entry_points: Sequence[str],
    function_entries: Sequence[str],
):
    """Instantiate a policy by registry name, with its label sets
    resolved against ``program``'s symbol table.

    ``entry_points`` feeds the fine-grained forward-edge set,
    ``function_entries`` the coarse function-entry set.  Shared by the
    campaign runner and :mod:`repro.synth.verify` (which replays
    minimized reproducers outside any scenario).
    """
    if policy == POLICY_NONE:
        return None
    if policy == POLICY_SHADOW_STACK:
        return ShadowStackPolicy()
    if policy == POLICY_FORWARD_EDGE:
        return ForwardEdgePolicy(_resolve_symbols(program, entry_points))
    if policy == POLICY_COARSE:
        return CoarseGrainedPolicy(
            valid_entries=_resolve_symbols(program, function_entries)
        )
    if policy == POLICY_COMPOSITE:
        members = []
        for member in COMPOSITE_MEMBERS:
            if member is ForwardEdgePolicy:
                members.append(member(_resolve_symbols(program, entry_points)))
            elif member is CoarseGrainedPolicy:
                members.append(member(
                    valid_entries=_resolve_symbols(program, function_entries)
                ))
            else:
                members.append(member())
        return CompositePolicy(members)
    if policy == POLICY_CRYPTO_RETURN:
        return CryptoReturnPolicy()
    raise ConfigError(f"unknown policy {policy!r}")


def _victim_bundle(scenario: Scenario, seed: int):
    """The :class:`repro.synth.SynthBundle` behind a synthetic scenario
    (``None`` for hand-written victims) — the per-program source of
    label sets and of the oracle's expected verdict."""
    spec = VICTIMS[scenario.victim]
    if not spec.synthetic:
        return None
    from repro.synth import bundle_for_seed

    return bundle_for_seed(spec.synth_family, seed, AddressMap().dram_base,
                           features=spec.synth_features)


#: Memoised per-victim coverage shapes: one scenario's program is run
#: under every policy, but its shape only needs extracting once.
_SHAPES: Dict[Tuple[str, int], object] = {}
_SHAPE_CACHE_LIMIT = 1024


def _scenario_shape(victim: str, seed: int, bundle):
    """The (memoised) coverage shape of a synthetic scenario's program."""
    key = (victim, seed)
    cached = _SHAPES.get(key)
    if cached is None:
        from repro.coverage.shape import shape_vector

        if len(_SHAPES) >= _SHAPE_CACHE_LIMIT:
            _SHAPES.clear()
        cached = _SHAPES[key] = shape_vector(bundle.model,
                                             program=bundle.program)
    return cached


def _build_policy(scenario: Scenario, program: Program, bundle=None):
    """Policy for a scenario: label sets come from the victim registry,
    or from the synth bundle for generated victims."""
    victim = VICTIMS[scenario.victim]
    if bundle is not None:
        entry_points = bundle.entry_points
        function_entries = bundle.function_entries
    else:
        entry_points = victim.entry_points
        function_entries = victim.function_entries
    return build_policy(scenario.policy, program, entry_points,
                        function_entries)


def capture_commit_logs(program: Program, addresses: AddressMap,
                        max_steps: int = 400_000):
    """Run ``program`` on a bare CVA6 ISS and capture the CFI stream.

    Returns ``(logs, hart)``: the commit logs the CFI filter would have
    selected (same :class:`~repro.core.filter.CfiFilter` code path as
    the hardware model) and the halted hart for architectural state.

    Execution is batched: the hart free-runs through
    :meth:`~repro.hart.core.Hart.run_n` windows that stop exactly at
    CFI-relevant instructions, which are then stepped individually and
    offered to the filter — only the selected stream ever pays the
    per-step bookkeeping.  Architectural state, ``cycle``/``instret``
    and the captured log stream are identical to a pure step loop
    (asserted by ``tests/campaign/test_cache.py``).
    """
    bus = MemoryMap("host")
    bus.add(addresses.dram_base, Ram(addresses.dram_size), name="dram")
    bus.write_bytes(program.base, program.data)
    hart = Hart(MapPort(bus), Cva6Timing(), xlen=64, reset_pc=program.base)
    cfi_filter = CfiFilter()
    logs: List[CommitLog] = []

    window_lo = addresses.dram_base
    window_hi = addresses.dram_base + addresses.dram_size
    remaining = max_steps
    while remaining > 0 and not hart.halted:
        retired, _spent, _term = hart.run_n(
            1 << 60, window_lo, window_hi,
            stop_before_cfi=True, max_insns=remaining,
        )
        remaining -= retired
        if hart.halted or remaining <= 0:
            break
        result = hart.step()
        remaining -= 1
        entry = ScoreboardEntry.from_step(result)
        log = cfi_filter.examine(entry)
        if log is not None:
            logs.append(log)
        if hart.halted:
            break
    if not hart.halted:
        raise SimulationError(
            f"{hart.name}: capture exceeded {max_steps} steps"
        )
    return logs, hart


def _run_reference(scenario: Scenario, seed: int,
                   bundle=None) -> Dict[str, object]:
    """Trace-check backend: bare-hart execution + Python policy."""
    addresses = AddressMap()
    program = SHARD_CACHE.program(scenario.victim, seed)
    # max_cycles doubles as the step bound here (steps <= cycles), so
    # the knob — and the scenario-name suffix it carries — means the
    # same thing on both backends.
    logs, hart = capture_commit_logs(program, addresses,
                                     max_steps=scenario.max_cycles)

    policy = _build_policy(scenario, program, bundle=bundle)
    detected = False
    violation_kind: Optional[str] = None
    events_checked = 0
    if policy is not None:
        for log in logs:
            events_checked += 1
            if policy.check(log) is CheckResult.VIOLATION:
                detected = True
                violation_kind = log.kind.value
                break

    return {
        "cycles": hart.cycle,
        "host_instructions": hart.instret,
        "cf_events": len(logs),
        "events_checked": events_checked,
        "detected": detected,
        "violation_kind": violation_kind,
        "detection_latency": None,
        "stall_cycles": 0,
        "overhead_percent": 0.0,
        "gadget_executed": hart.regs.read(10) == GADGET_MARKER,
    }


def _fault_baseline(scenario: Scenario, seed: int,
                    sim_mode: Optional[str], bundle) -> Dict[str, object]:
    """The fault-free sibling run a fault scenario degrades against.

    Runs the same scenario with the plan detached, under the *fault*
    scenario's derived seed (the victim image must match byte for byte),
    memoised per shard so a fault sweep pays each baseline once.
    """
    base = dataclasses.replace(scenario, fault_plan=None)
    return SHARD_CACHE.memo(
        ("fault-baseline", base.name, seed, sim_mode),
        lambda: _run_cosim(base, seed, sim_mode=sim_mode, bundle=bundle),
    )


def _fault_oracle_logs(scenario: Scenario, seed: int):
    """The victim's fault-free CFI event stream, for the fault oracle."""
    def compute():
        program = SHARD_CACHE.program(scenario.victim, seed)
        logs, _hart = capture_commit_logs(program, AddressMap(),
                                          max_steps=scenario.max_cycles)
        return logs

    return SHARD_CACHE.memo(
        ("fault-logs", scenario.victim, seed, scenario.max_cycles), compute
    )


def _run_cosim(scenario: Scenario, seed: int,
               sim_mode: Optional[str] = None,
               bundle=None) -> Dict[str, object]:
    """Full-platform backend: firmware or policy host serves the mailbox.

    Delegates the build/boot/run/verdict sequence to
    :func:`repro.attacks.rop.run_attack_scenario` so the campaign
    exercises exactly the single-run path the rest of the repo uses.
    The scenario's resolved ``policy_backend`` selects the mailbox
    agent: the RV32 firmware image (shard-cached), or the scenario's
    policy mounted as a policy host (the calibrated response model is
    memoised per firmware config, so it too is a shard-level artifact).
    """
    program = SHARD_CACHE.program(scenario.victim, seed)
    policy_backend = scenario.resolved_policy_backend
    policy = None
    firmware_image = None
    if policy_backend == POLICY_BACKEND_HOST:
        policy = _build_policy(scenario, program, bundle=bundle)
    else:
        firmware_image = SHARD_CACHE.firmware(scenario.firmware)
    plan = None
    if scenario.fault_plan is not None:
        from repro.faults.plan import build_plan

        plan = build_plan(scenario.fault_plan, seed)
    outcome = run_attack_scenario(
        program,
        firmware_variant=scenario.firmware,
        queue_depth=scenario.queue_depth,
        blocking=scenario.blocking,
        fabric=scenario.fabric,
        max_cycles=scenario.max_cycles,
        firmware_image=firmware_image,
        sim_mode=sim_mode,
        policy_backend=policy_backend,
        policy=policy,
        fault_plan=plan,
        lossy=scenario.lossy,
    )
    report = outcome.report
    busy = report.cycles - report.host_stall_cycles
    result: Dict[str, object] = {
        "cycles": report.cycles,
        "host_instructions": report.host_instructions,
        "cf_events": report.cfi.get("selected", 0),
        "events_checked": report.cfi.get("checks_completed", 0),
        "detected": outcome.detected,
        "violation_kind": outcome.violation.kind if outcome.violation else None,
        "detection_latency": report.detection_latency,
        "stall_cycles": report.host_stall_cycles,
        "overhead_percent": (
            round(100.0 * report.host_stall_cycles / busy, 3) if busy else 0.0
        ),
        "gadget_executed": outcome.gadget_executed,
    }
    if plan is not None:
        from repro.faults.contract import evaluate_contract
        from repro.faults.oracle import predict_verdict

        baseline = _fault_baseline(scenario, seed, sim_mode, bundle)
        # The oracle replays the delivered stream through a *fresh*
        # policy instance — the one mounted above has live run state.
        oracle_policy = _build_policy(scenario, program, bundle=bundle)
        if oracle_policy is None:
            # Firmware agent: the RV32 image implements the shadow
            # stack, so that is the policy the oracle must model.
            oracle_policy = ShadowStackPolicy()
        prediction = predict_verdict(_fault_oracle_logs(scenario, seed),
                                     plan, oracle_policy)
        monitor_state = getattr(oracle_policy, "monitor_state", "stateful")
        degradation, contract_ok = evaluate_contract(
            monitor_state,
            plan,
            bool(baseline["detected"]),
            bool(result["detected"]),
            baseline["detection_latency"],
            result["detection_latency"],
        )
        result.update({
            "fault_stats": report.faults,
            "predicted_detected": prediction.detected,
            "degradation": degradation,
            "contract_ok": contract_ok,
            "baseline_detected": baseline["detected"],
            "baseline_detection_latency": baseline["detection_latency"],
        })
    return result


def _multihart_baseline(scenario: Scenario, seed: int,
                        sim_mode: Optional[str]) -> Dict[str, object]:
    """The adversary-free sibling a cross-hart fault cell degrades
    against: same topology, same per-hart seeds, same defense/lossy
    knobs, plan detached.  Memoised per shard."""
    base = dataclasses.replace(scenario, fault_plan=None, fault_hart=None)
    return SHARD_CACHE.memo(
        ("xhart-baseline", base.name, seed, sim_mode),
        lambda: _run_multihart(base, seed, sim_mode=sim_mode),
    )


def _run_multihart(scenario: Scenario, seed: int,
                   sim_mode: Optional[str] = None) -> Dict[str, object]:
    """Many-hart cosim backend: N application harts, one RoT monitor.

    Each hart runs its own victim in its private DRAM segment; the
    scenario's policy is instantiated once per hart (label sets resolved
    against that hart's relocated program) and installed as the
    monitor's per-hart shadow contexts.  Violations are latched, not
    raised, so one hart's detection never aborts the peers — every hart
    gets its own verdict, latency and expectation check; the headline
    columns come from the attack hart.

    Cross-hart fault cells additionally attach the scenario's plan
    scoped to ``fault_hart`` and grade every hart against the per-hart
    degradation contract: the compromised hart must end the run
    quarantined, and every benign peer's verdict, violation kind and
    detection latency must be bit-identical to the adversary-free
    baseline run.
    """
    from repro.core.config import TitanCfiConfig
    from repro.policyhost.host import mount_policy_host
    from repro.system.sim import SystemSimulator
    from repro.system.soc import build_soc
    from repro.system.topology import Topology

    topo = Topology(n_harts=scenario.n_harts)
    amap = AddressMap()
    config = TitanCfiConfig(
        queue_depth=scenario.queue_depth,
        blocking=scenario.blocking,
        lossy=scenario.lossy,
        raise_on_violation=False,
    )
    soc = build_soc(cfi_config=config, fabric=scenario.fabric, topology=topo)

    hart_victims: List[str] = []
    hart_programs: List[Program] = []
    for hart_id in range(scenario.n_harts):
        victim_name = scenario.victim_for_hart(hart_id)
        hart_amap = topo.address_map(hart_id, amap)
        # Per-hart seed: peers running the same seeded victim still get
        # distinct program shapes, deterministically.
        program = SHARD_CACHE.program(victim_name, seed + hart_id,
                                      addresses=hart_amap)
        soc.load_host_program(program, hart_id=hart_id)
        hart_victims.append(victim_name)
        hart_programs.append(program)

    def policy_for(hart_id: int):
        spec = VICTIMS[hart_victims[hart_id]]
        return build_policy(scenario.policy, hart_programs[hart_id],
                            spec.entry_points, spec.function_entries)

    policy = policy_for(0)
    for hart_id in range(1, scenario.n_harts):
        policy.install_context(hart_id, policy_for(hart_id))
    mount_policy_host(soc, policy, variant=scenario.firmware,
                      defense=scenario.defense)

    plan = None
    if scenario.fault_plan is not None:
        from repro.faults import attach_faults
        from repro.faults.plan import build_plan

        plan = build_plan(scenario.fault_plan, seed).scoped(scenario.fault_hart)
        attach_faults(soc, plan)

    delays = None
    if scenario.stagger:
        delays = [hart_id * scenario.stagger
                  for hart_id in range(scenario.n_harts)]
    simulator = SystemSimulator(soc, mode=sim_mode, start_delays=delays)
    report = simulator.run(max_cycles=scenario.max_cycles)

    per_hart: List[Dict[str, object]] = []
    assert report.per_hart is not None
    for hart_id, entry in enumerate(report.per_hart):
        victim_name = hart_victims[hart_id]
        expected = expected_detection(victim_name, scenario.policy)
        detected = bool(entry["detected"])
        per_hart.append({
            "hart": hart_id,
            "victim": victim_name,
            "attack": VICTIMS[victim_name].attack,
            "detected": detected,
            "violation_kind": entry["violation_kind"],
            "detection_latency": entry["detection_latency"],
            "instructions": entry["instructions"],
            "stall_cycles": entry["stall_cycles"],
            "cf_events": entry["cfi"].get("selected", 0),
            "events_checked": entry["cfi"].get("checks_completed", 0),
            "dropped": entry["cfi"].get("dropped", 0),
            "quarantined": bool(entry.get("quarantined", False)),
            "expected_detected": expected,
            "expectation_met": detected == expected,
            "gadget_executed": (
                soc.harts[hart_id].regs.read(10) == GADGET_MARKER
            ),
        })

    adversarial = plan is not None and plan.adversarial
    baseline: Optional[Dict[str, object]] = None
    if adversarial:
        from repro.faults.contract import (
            ROLE_ATTACKER,
            ROLE_BENIGN,
            evaluate_hart_contract,
        )
        from repro.faults.oracle import predict_adversarial

        baseline = _multihart_baseline(scenario, seed, sim_mode)
        baseline_rows = baseline["per_hart"]
        for hart_id, row in enumerate(per_hart):
            role = (ROLE_ATTACKER if hart_id == scenario.fault_hart
                    else ROLE_BENIGN)
            base_row = baseline_rows[hart_id]
            label, contract_ok = evaluate_hart_contract(
                plan, role, base_row, row, bool(row["quarantined"])
            )
            if role == ROLE_ATTACKER:
                # The fault oracle owns the compromised hart's verdict
                # expectation (its stream is adversarial, not its
                # victim's).
                expected = predict_adversarial(
                    plan, bool(base_row["detected"])
                )
                row["expected_detected"] = expected
                row["expectation_met"] = row["detected"] == expected
            row.update({
                "role": role,
                "degradation": label,
                "contract_ok": contract_ok,
                "baseline_detected": base_row["detected"],
                "baseline_detection_latency": base_row["detection_latency"],
            })
    elif plan is not None:
        # Benign (transport/monitor) plan scoped to one hart of a
        # multi-hart cell: the faulted hart is graded exactly like a
        # single-hart fault run — oracle replay of its own fault-free
        # stream, degradation contract against its baseline row.  Peers
        # keep their table expectations (a shared-monitor fault may
        # legitimately shift their latencies, never their verdicts).
        from repro.faults.contract import evaluate_contract
        from repro.faults.oracle import predict_verdict

        baseline = _multihart_baseline(scenario, seed, sim_mode)
        fault_hart = scenario.fault_hart
        base_row = baseline["per_hart"][fault_hart]
        row = per_hart[fault_hart]
        hart_amap = topo.address_map(fault_hart, amap)

        def compute_logs():
            logs, _hart = capture_commit_logs(
                hart_programs[fault_hart], hart_amap,
                max_steps=scenario.max_cycles)
            return logs

        logs = SHARD_CACHE.memo(
            ("fault-logs", hart_victims[fault_hart], seed + fault_hart,
             hart_amap.dram_base, scenario.max_cycles),
            compute_logs,
        )
        oracle_policy = policy_for(fault_hart)
        monitor_state = getattr(oracle_policy, "monitor_state", "stateful")
        prediction = predict_verdict(logs, plan, oracle_policy)
        label, contract_ok = evaluate_contract(
            monitor_state,
            plan,
            bool(base_row["detected"]),
            bool(row["detected"]),
            base_row["detection_latency"],
            row["detection_latency"],
        )
        row["expected_detected"] = prediction.detected
        row["expectation_met"] = row["detected"] == prediction.detected
        row.update({
            "role": "faulted",
            "degradation": label,
            "contract_ok": contract_ok,
            "baseline_detected": base_row["detected"],
            "baseline_detection_latency": base_row["detection_latency"],
        })

    attack_row = per_hart[scenario.attack_hart]
    busy = report.cycles - report.host_stall_cycles
    result: Dict[str, object] = {
        "cycles": report.cycles,
        "host_instructions": report.host_instructions,
        "cf_events": report.cfi.get("selected", 0),
        "events_checked": report.cfi.get("checks_completed", 0),
        "detected": attack_row["detected"],
        "violation_kind": attack_row["violation_kind"],
        "detection_latency": attack_row["detection_latency"],
        "stall_cycles": report.host_stall_cycles,
        "overhead_percent": (
            round(100.0 * report.host_stall_cycles / busy, 3) if busy else 0.0
        ),
        "gadget_executed": attack_row["gadget_executed"],
        "per_hart": per_hart,
        "quarantined_harts": [
            row["hart"] for row in per_hart if row["quarantined"]
        ],
    }
    if plan is not None:
        assert baseline is not None
        faulted_row = per_hart[scenario.fault_hart]
        result.update({
            "fault_stats": report.faults,
            # The headline expectation follows the attack hart's row
            # (the oracle's, when the attack hart is the faulted one;
            # its victim's table verdict otherwise).
            "predicted_detected": attack_row["expected_detected"],
            "degradation": faulted_row["degradation"],
            "contract_ok": (
                all(row["contract_ok"] for row in per_hart) if adversarial
                else faulted_row["contract_ok"]
            ),
            "baseline_detected": baseline["detected"],
            "baseline_detection_latency": baseline["detection_latency"],
        })
    return result


def run_scenario(scenario: Scenario, campaign_seed: int = 0,
                 sim_mode: Optional[str] = None) -> Dict[str, object]:
    """Execute one scenario; returns its JSON-ready result dict.

    ``sim_mode`` selects the co-simulator engine (``"busy"`` or
    ``"batched"``; ``None`` = engine default) for the cosim backend —
    both are cycle-exact, so results are engine-independent; the knob
    exists so CI can assert exactly that.

    Expected verdicts: hand-written victims use the (attack × policy)
    ground-truth table; synthesized victims use the static oracle's
    per-program prediction (``expected_source`` records which).
    """
    seed = derive_seed(campaign_seed, scenario)
    bundle = _victim_bundle(scenario, seed)
    if scenario.backend == BACKEND_REFERENCE:
        outcome = _run_reference(scenario, seed, bundle=bundle)
    elif scenario.multihart:
        outcome = _run_multihart(scenario, seed, sim_mode=sim_mode)
    elif scenario.backend == BACKEND_COSIM:
        outcome = _run_cosim(scenario, seed, sim_mode=sim_mode,
                             bundle=bundle)
    else:
        raise ConfigError(f"unknown backend {scenario.backend!r}")

    if scenario.fault_plan is not None:
        # Under fault the fault-aware oracle owns the expectation: it
        # replays the delivered (post-fault) event stream statically.
        expected = bool(outcome["predicted_detected"])
        expected_source = "fault-oracle"
    elif bundle is not None:
        expected = bundle.expected[scenario.policy]
        expected_source = "oracle"
    else:
        expected = scenario.expected_detected
        expected_source = "table"
    detected = bool(outcome["detected"])
    result: Dict[str, object] = {
        "status": "ok",
        "fault_plan": scenario.fault_plan,
        "fault_hart": scenario.fault_hart,
        "lossy": scenario.lossy if scenario.backend == BACKEND_COSIM else None,
        "defense": scenario.defense if scenario.multihart else None,
        "degradation": None,
        "contract_ok": None,
        "baseline_detected": None,
        "baseline_detection_latency": None,
        "name": scenario.name,
        "backend": scenario.backend,
        "victim": scenario.victim,
        "attack": scenario.attack,
        "policy": scenario.policy,
        "policy_backend": scenario.resolved_policy_backend,
        "firmware": scenario.firmware if scenario.backend == BACKEND_COSIM else None,
        "queue_depth": (
            scenario.queue_depth if scenario.backend == BACKEND_COSIM else None
        ),
        "blocking": scenario.blocking if scenario.backend == BACKEND_COSIM else None,
        "fabric": scenario.fabric if scenario.backend == BACKEND_COSIM else None,
        "max_cycles": scenario.max_cycles,
        "seed": seed,
        # Marks results whose victim actually varies with the seed, so
        # artifact consumers know which rows a seed sweep perturbs.
        "seeded": VICTIMS[scenario.victim].seeded,
        "n_harts": scenario.n_harts,
        "attack_hart": scenario.attack_hart if scenario.multihart else None,
        "hart_victims": (
            list(scenario.resolved_hart_victims) if scenario.multihart else None
        ),
        "stagger": scenario.stagger if scenario.multihart else None,
        "per_hart": None,
        "expected_detected": expected,
        "expected_source": expected_source,
        "expectation_met": detected == expected,
    }
    result.update(outcome)
    if bundle is not None:
        # Synthetic victims carry their coverage shape so campaign
        # artifacts feed the same map the guided fuzz loop steers by.
        vector = _scenario_shape(scenario.victim, seed, bundle)
        result["coverage_points"] = len(vector.points)
        result["coverage_digest"] = vector.digest
        result["coverage"] = {
            "digest": vector.digest,
            "points": list(vector.points),
        }
    else:
        result["coverage_points"] = None
        result["coverage_digest"] = None
        result["coverage"] = None
    if scenario.multihart:
        # A multi-hart cell meets its expectation only when *every*
        # hart's verdict matches its own victim's ground truth.
        result["expectation_met"] = all(
            row["expectation_met"] for row in outcome["per_hart"]
        )
    return result


# --------------------------------------------------------------------------
# Sharded campaign driver (hardened: timeouts, crash quarantine, retries)
# --------------------------------------------------------------------------

#: Test hooks (set via the environment, read only inside shards/retries):
#: force a worker to die / hang / fail transiently on a named scenario,
#: so the hardening paths are exercised end to end without mocking.
ENV_CRASH_SCENARIO = "REPRO_CAMPAIGN_CRASH_SCENARIO"
ENV_HANG_SCENARIO = "REPRO_CAMPAIGN_HANG_SCENARIO"
ENV_FLAKY_SCENARIO = "REPRO_CAMPAIGN_FLAKY_SCENARIO"
ENV_FLAKY_DIR = "REPRO_CAMPAIGN_FLAKY_DIR"


def _flaky_hook(scenario: Scenario) -> None:
    """Raise on the named scenario's first attempts (retry-path test).

    Marker files under :data:`ENV_FLAKY_DIR` count attempts across
    worker processes, so the scenario fails until its retry budget has
    been spent at least once.
    """
    if os.environ.get(ENV_FLAKY_SCENARIO) != scenario.name:
        return
    marker_dir = os.environ.get(ENV_FLAKY_DIR)
    if not marker_dir:
        return
    attempts = len([p for p in os.listdir(marker_dir)
                    if p.startswith("attempt-")])
    with open(os.path.join(marker_dir, f"attempt-{attempts}"), "w"):
        pass
    if attempts < 1:
        raise SimulationError(f"flaky-hook failure for {scenario.name}")


def _failure_result(scenario: Scenario, campaign_seed: int, status: str,
                    detail: str) -> Dict[str, object]:
    """Placeholder result for a scenario that produced no verdict.

    Shaped like a normal result (same identity columns, zeroed counters,
    ``None`` verdict fields) so checkpoints, aggregation and CSV export
    handle it uniformly; ``status`` records why it is not ``"ok"``.
    """
    return {
        "status": status,
        "error": detail,
        "coverage_points": None,
        "coverage_digest": None,
        "coverage": None,
        "fault_plan": scenario.fault_plan,
        "fault_hart": scenario.fault_hart,
        "lossy": scenario.lossy if scenario.backend == BACKEND_COSIM else None,
        "defense": scenario.defense if scenario.multihart else None,
        "degradation": None,
        "contract_ok": None,
        "baseline_detected": None,
        "baseline_detection_latency": None,
        "name": scenario.name,
        "backend": scenario.backend,
        "victim": scenario.victim,
        "attack": scenario.attack,
        "policy": scenario.policy,
        "policy_backend": scenario.resolved_policy_backend,
        "firmware": scenario.firmware if scenario.backend == BACKEND_COSIM else None,
        "queue_depth": (
            scenario.queue_depth if scenario.backend == BACKEND_COSIM else None
        ),
        "blocking": scenario.blocking if scenario.backend == BACKEND_COSIM else None,
        "fabric": scenario.fabric if scenario.backend == BACKEND_COSIM else None,
        "max_cycles": scenario.max_cycles,
        "seed": derive_seed(campaign_seed, scenario),
        "seeded": VICTIMS[scenario.victim].seeded,
        "n_harts": scenario.n_harts,
        "attack_hart": scenario.attack_hart if scenario.multihart else None,
        "hart_victims": (
            list(scenario.resolved_hart_victims) if scenario.multihart else None
        ),
        "stagger": scenario.stagger if scenario.multihart else None,
        "per_hart": None,
        "expected_detected": None,
        "expected_source": None,
        "expectation_met": None,
        "cycles": 0,
        "host_instructions": 0,
        "cf_events": 0,
        "events_checked": 0,
        "detected": None,
        "violation_kind": None,
        "detection_latency": None,
        "stall_cycles": 0,
        "overhead_percent": 0.0,
        "gadget_executed": None,
    }


def _shard_main(conn, campaign_seed: int, sim_mode: Optional[str]) -> None:
    """Worker process loop: scenarios in over ``conn``, one reply each out.

    Replies go back over the worker's own pipe in task order, written
    synchronously (no feeder thread): once ``send`` returns, the row is
    in the pipe even if the process dies on its next scenario, so the
    parent can drain every reply before it blames anyone.  ``None``
    exits.
    """
    for scenario in iter(conn.recv, None):
        if os.environ.get(ENV_CRASH_SCENARIO) == scenario.name:
            os._exit(3)
        if os.environ.get(ENV_HANG_SCENARIO) == scenario.name:
            time.sleep(3600)
        try:
            _flaky_hook(scenario)
            reply = ("done", run_scenario(scenario, campaign_seed,
                                          sim_mode=sim_mode))
        except Exception as exc:  # noqa: BLE001 - shard boundary
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


def _run_serial(
    scenarios: Sequence[Scenario],
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """In-process execution with the same retry contract as the pool."""
    results: List[Dict[str, object]] = []
    for scenario in scenarios:
        attempt = 0
        while True:
            try:
                _flaky_hook(scenario)
                result = run_scenario(scenario, campaign_seed,
                                      sim_mode=sim_mode)
                break
            except Exception as exc:  # noqa: BLE001 - sweep must survive
                attempt += 1
                if attempt > retries:
                    result = _failure_result(
                        scenario, campaign_seed, "error",
                        f"{type(exc).__name__}: {exc}")
                    break
                if backoff > 0:
                    time.sleep(backoff * (2 ** (attempt - 1)))
        if stream is not None:
            stream(result)
        results.append(result)
    return results


def _run_pool(
    scenarios: Sequence[Scenario],
    jobs: int,
    campaign_seed: int,
    stream: Optional[Callable[[Dict[str, object]], None]],
    sim_mode: Optional[str],
    timeout: Optional[float],
    retries: int,
    backoff: float,
) -> List[Dict[str, object]]:
    """Hardened process pool: a pipe per worker, one scenario queued ahead.

    Each worker runs one scenario and, while more are pending than there
    are workers, holds the next one queued behind it, so it does not
    idle while the parent streams (and fsyncs) the row it just sent.
    Rows come back over the worker's own pipe in task order; one
    ``multiprocessing.connection.wait`` over every pipe and process
    sentinel drives the loop.  Failure modes:

    - worker death → its pipe is drained first, then the first scenario
      still unreported (the one it died on) is recorded as ``status:
      "crashed"`` (:class:`~repro.errors.WorkerCrash`) and quarantined;
    - wall-clock ``timeout`` on a running scenario → the worker is
      killed and drained the same way; that scenario, if still
      unreported, is recorded as ``status: "timeout"``
      (:class:`~repro.errors.ScenarioTimeout`);
    - in-shard exceptions → retried up to ``retries`` times with
      exponential ``backoff``, then recorded as ``status: "error"``.

    Scenarios queued behind a culprit go back to the front of the
    pending list with no attempt counted, and the worker is respawned.
    An exception raised by ``stream`` aborts the run; busy workers are
    killed on the way out.
    """
    if not scenarios:
        return []
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    total = len(scenarios)
    pending = deque(enumerate(scenarios))
    delayed: List[Tuple[float, int, Scenario]] = []  # (ready_at, idx, s)
    attempts: Dict[int, int] = {}
    results: List[Dict[str, object]] = []
    # Per worker: process, pipe, unreported (idx, scenario) tasks in
    # dispatch order, and when the head task started.
    workers: List[Dict[str, object]] = []

    def spawn() -> None:
        conn, child = ctx.Pipe()
        proc = ctx.Process(target=_shard_main, daemon=True,
                           args=(child, campaign_seed, sim_mode))
        proc.start()
        child.close()
        workers.append({"proc": proc, "conn": conn, "tasks": deque(), "since": 0.0})

    def record(result: Dict[str, object]) -> None:
        if stream is not None:
            stream(result)
        results.append(result)

    def reschedule(idx: int, scenario: Scenario, detail: str) -> None:
        attempts[idx] = attempts.get(idx, 0) + 1
        if attempts[idx] > retries:
            record(_failure_result(scenario, campaign_seed, "error", detail))
        else:
            ready = time.monotonic() + backoff * (2 ** (attempts[idx] - 1))
            delayed.append((ready, idx, scenario))

    def dispatch() -> None:
        depth = 2 if len(pending) > len(workers) else 1
        for worker in workers:
            tasks = worker["tasks"]
            while pending and len(tasks) < depth:
                try:
                    worker["conn"].send(pending[0][1])
                except OSError:  # died since the last wait; retire() reaps it
                    break
                if not tasks:
                    worker["since"] = time.monotonic()
                tasks.append(pending.popleft())

    def drain(worker) -> bool:
        """Take every row waiting in the worker's pipe; False at EOF."""
        while worker["conn"].poll():
            try:
                kind, payload = worker["conn"].recv()
            except (EOFError, OSError):  # exited (OSError: killed mid-send)
                return False
            idx, scenario = worker["tasks"].popleft()
            worker["since"] = time.monotonic()  # its queued task is running
            if kind == "done":
                record(payload)
            else:
                reschedule(idx, scenario, payload)
        return True

    def retire(worker, status: str) -> None:
        """Reap a dead or hung worker: drain, blame, requeue, respawn."""
        proc, tasks = worker["proc"], worker["tasks"]
        stuck = tasks[0] if tasks else None
        if status == "timeout":
            proc.kill()
        proc.join()
        drain(worker)
        worker["conn"].close()
        workers.remove(worker)
        # A row drained after a timeout means the slow scenario finished
        # after all; the queued one the kill interrupted is innocent.
        if tasks and (status == "crashed" or tasks[0] is stuck):
            _idx, scenario = tasks.popleft()
            error = (WorkerCrash(scenario.name, exitcode=proc.exitcode)
                     if status == "crashed"
                     else ScenarioTimeout(scenario.name, float(timeout)))
            record(_failure_result(scenario, campaign_seed, status, str(error)))
        pending.extendleft(reversed(tasks))
        if len(results) < total:
            spawn()

    for _ in range(min(jobs, total)):
        spawn()
    try:
        while len(results) < total:
            now = time.monotonic()
            due = sorted((e for e in delayed if e[0] <= now), key=lambda e: e[1])
            delayed[:] = [e for e in delayed if e[0] > now]
            pending.extend((idx, scenario) for _ready, idx, scenario in due)
            dispatch()
            wakeups = [e[0] for e in delayed] + [
                w["since"] + timeout for w in workers if timeout and w["tasks"]]
            ready = wait(
                [w["conn"] for w in workers] + [w["proc"].sentinel for w in workers],
                timeout=max(0.0, min(wakeups) - now) if wakeups else None)
            for worker in list(workers):
                if worker["proc"].sentinel in ready or (
                        worker["conn"] in ready and not drain(worker)):
                    retire(worker, "crashed")
                elif timeout and worker["tasks"] and (
                        time.monotonic() - worker["since"] > timeout):
                    retire(worker, "timeout")
    finally:
        for worker in workers:
            if worker["tasks"]:
                worker["proc"].kill()  # its scenarios in flight are abandoned
            else:
                try:
                    worker["conn"].send(None)
                except OSError:  # already gone
                    pass
        for worker in workers:
            worker["proc"].join()
            worker["conn"].close()
    return results


def run_campaign(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    campaign_seed: int = 0,
    stream: Optional[Callable[[Dict[str, object]], None]] = None,
    sim_mode: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.0,
) -> Dict[str, object]:
    """Run a scenario list, optionally sharded over worker processes.

    Args:
        scenarios: the matrix to execute.
        jobs: worker processes; 1 runs serially in-process (the
            debugging fallback — same results, same order).
        campaign_seed: root seed for per-scenario seed derivation.
        stream: optional callback invoked with each result as it
            completes (arrival order; use it to stream JSONL artifacts).
        sim_mode: co-simulator engine override for cosim scenarios
            (results are engine-independent; see :func:`run_scenario`).
        timeout: per-scenario wall-clock bound in seconds (``jobs > 1``
            only — a serial run has no second process to do the
            killing); over-budget scenarios record ``status: "timeout"``.
        retries: re-attempts for scenarios that raise inside the shard
            before they are recorded as ``status: "error"``.
        backoff: base delay in seconds before a retry, doubled per
            attempt.

    Returns:
        the campaign payload: sorted scenario results plus run metadata
        (wall-clock timing lives only here, never in per-scenario
        results, so serial and parallel aggregates compare equal).
        A sweep never dies with a worker: crashed / hung / failing
        scenarios are recorded with a non-``"ok"`` ``status`` and the
        rest of the matrix completes.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if backoff < 0:
        raise ConfigError("backoff must be >= 0")
    scenarios = list(scenarios)
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate scenario names in the matrix: {duplicates}")
    started = time.perf_counter()

    if jobs == 1:
        results = _run_serial(scenarios, campaign_seed, stream, sim_mode,
                              retries, backoff)
    else:
        results = _run_pool(scenarios, jobs, campaign_seed, stream,
                            sim_mode, timeout, retries, backoff)
    wall = time.perf_counter() - started

    results.sort(key=lambda r: r["name"])
    return {
        "schema": RESULT_SCHEMA,
        "campaign_seed": campaign_seed,
        "jobs": jobs,
        "scenario_count": len(results),
        "scenarios": results,
        "timing": {
            "wall_seconds": round(wall, 6),
            "scenarios_per_sec": round(len(results) / wall, 3) if wall else 0.0,
            "simulated_cycles": sum(r["cycles"] for r in results),
            "simulated_cycles_per_sec": (
                round(sum(r["cycles"] for r in results) / wall) if wall else 0
            ),
        },
    }
