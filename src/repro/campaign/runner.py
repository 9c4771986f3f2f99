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
so a cold (cleared) cache and a warm one produce identical rows
(asserted by ``tests/campaign/test_cache.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.programs import GADGET_MARKER
from repro.attacks.rop import build_platform
from repro.campaign.spec import (
    BACKEND_COSIM,
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
from repro.errors import (
    ConfigError,
    ScenarioTimeout,
    SimulationError,
    WorkerCrash,
    check_int,
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
from repro.system.sim import SystemSimulator
from repro.system.topology import Topology

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
        contract as the program/firmware memos, same cold = warm
        guarantee.
        """
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
    ``function_entries`` the coarse function-entry set.
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
        log = cfi_filter.examine(hart.step())
        remaining -= 1
        if log is not None:
            logs.append(log)
        if hart.halted:
            break
    if not hart.halted:
        raise SimulationError(
            f"{hart.name}: capture exceeded {max_steps} steps"
        )
    return logs, hart


def reference_outcomes(program: Program, entry_points: Sequence[str],
                       function_entries: Sequence[str],
                       policies: Sequence[str],
                       max_steps: int) -> Dict[str, Dict[str, object]]:
    """Trace-check backend: bare-hart execution + Python policies.

    Captures ``program``'s CFI stream once (the expensive part) and
    checks it under every policy in ``policies``, each built fresh with
    its label sets resolved against the program.  Returns ``{policy:
    verdict columns}``; the columns are in row order.
    """
    logs, hart = capture_commit_logs(program, AddressMap(),
                                     max_steps=max_steps)
    gadget = hart.regs.read(10) == GADGET_MARKER
    outcomes: Dict[str, Dict[str, object]] = {}
    for name in policies:
        policy = build_policy(name, program, entry_points, function_entries)
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
        outcomes[name] = {
            "cycles": hart.cycle,
            "host_instructions": hart.instret,
            "cf_events": len(logs),
            "events_checked": events_checked,
            "detected": detected,
            "violation_kind": violation_kind,
            "detection_latency": None,
            "stall_cycles": 0,
            "overhead_percent": 0.0,
            "gadget_executed": gadget,
        }
    return outcomes


def _run_cosim(scenario: Scenario, seed: int,
               sim_mode: Optional[str] = None,
               bundle=None) -> Dict[str, object]:
    """Full-platform backend: N >= 1 application harts, one RoT monitor.

    Hart ``h`` runs :meth:`Scenario.victim_for_hart` built for seed
    ``seed + h`` in its own DRAM segment, on a platform from
    :func:`repro.attacks.rop.build_platform`.  The mailbox agent is the
    shard-cached RV32 firmware image, or the scenario's policy mounted
    as a policy host with one shadow context per hart.  A multi-hart
    plan is scoped to ``fault_hart``; peers start ``h * stagger``
    cycles in.

    Every hart gets a graded row (verdict, latency, expectation); the
    headline columns come from the attack hart.  A fault plan is graded
    against the plan-free sibling run under the same seed, memoised per
    shard:

    - an adversarial plan grades every hart by the per-hart contract:
      the compromised hart must end quarantined and is held to the
      fault oracle's verdict, and every benign peer's verdict, violation
      kind and latency must match its baseline row bit for bit;
    - any other plan grades the faulted hart (``fault_hart``, or the
      lone hart) by oracle replay of its fault-free event stream and
      the degradation contract.  Peers keep their table expectations: a
      shared-monitor fault may shift their latencies, never their
      verdicts.
    """
    topo = Topology(n_harts=scenario.n_harts)
    harts = range(scenario.n_harts)
    victims = [scenario.victim_for_hart(h) for h in harts]
    # Per-hart seed: peers running the same seeded victim still get
    # distinct program shapes, deterministically.  A bundle brings the
    # lone hart's program (see simulate).
    programs = [bundle.program] if bundle is not None else [
        SHARD_CACHE.program(victims[h], seed + h,
                            addresses=topo.address_map(h))
        for h in harts]

    def policy_for(h: int):
        labels = VICTIMS[victims[h]] if bundle is None else bundle
        return build_policy(scenario.policy, programs[h], labels.entry_points,
                            labels.function_entries)

    policy = firmware_image = None
    if scenario.resolved_policy_backend == POLICY_BACKEND_HOST:
        policy = policy_for(0)
        for h in harts[1:]:
            policy.install_context(h, policy_for(h))
    else:
        firmware_image = SHARD_CACHE.firmware(scenario.firmware)
    plan = None
    if scenario.fault_plan is not None:
        from repro.faults.plan import build_plan

        plan = build_plan(scenario.fault_plan, seed)
        if scenario.fault_hart is not None:
            plan = plan.scoped(scenario.fault_hart)
    soc = build_platform(
        programs, firmware_variant=scenario.firmware,
        queue_depth=scenario.queue_depth, blocking=scenario.blocking,
        lossy=scenario.lossy, fabric=scenario.fabric,
        firmware_image=firmware_image, policy=policy,
        defense=scenario.defense, fault_plan=plan,
    )
    report = SystemSimulator(
        soc, mode=sim_mode, start_delays=[h * scenario.stagger for h in harts]
    ).run(max_cycles=scenario.max_cycles)

    per_hart: List[Dict[str, object]] = []
    for h, entry in enumerate(report.per_hart):
        expected = expected_detection(victims[h], scenario.policy)
        per_hart.append({
            "hart": h,
            "victim": victims[h],
            "attack": VICTIMS[victims[h]].attack,
            "detected": entry["detected"],
            "violation_kind": entry["violation_kind"],
            "detection_latency": entry["detection_latency"],
            "instructions": entry["instructions"],
            "stall_cycles": entry["stall_cycles"],
            "cf_events": entry["cfi"].get("selected", 0),
            "events_checked": entry["cfi"].get("checks_completed", 0),
            "dropped": entry["cfi"].get("dropped", 0),
            "quarantined": entry["quarantined"],
            "expected_detected": expected,
            "expectation_met": entry["detected"] == expected,
            "gadget_executed": soc.harts[h].regs.read(10) == GADGET_MARKER,
        })

    if plan is not None:
        from repro.faults.contract import (
            ROLE_ATTACKER,
            ROLE_BENIGN,
            evaluate_contract,
            evaluate_hart_contract,
        )
        from repro.faults.oracle import predict_adversarial, predict_verdict

        base = dataclasses.replace(scenario, fault_plan=None, fault_hart=None)
        # Memo keys name programs by their bytes, so an ad-hoc model
        # never aliases a registry build.
        base_rows = SHARD_CACHE.memo(
            ("fault-baseline", base.name, sim_mode,
             tuple(program.data for program in programs)),
            lambda: _run_cosim(base, seed, sim_mode=sim_mode,
                               bundle=bundle)["per_hart"],
        )
        fault_hart = scenario.fault_hart or 0
        for h, row in enumerate(per_hart):
            base_row = base_rows[h]
            if plan.adversarial:
                role = ROLE_ATTACKER if h == fault_hart else ROLE_BENIGN
                label, contract_ok = evaluate_hart_contract(
                    plan, role, base_row, row, row["quarantined"])
                # The fault oracle owns the compromised hart's
                # expectation (its stream is adversarial, not its
                # victim's).
                expected = (predict_adversarial(plan, base_row["detected"])
                            if role == ROLE_ATTACKER
                            else row["expected_detected"])
            elif h == fault_hart:
                role = "faulted"
                amap = topo.address_map(h)
                logs = SHARD_CACHE.memo(
                    ("fault-logs", programs[h].data, amap.dram_base,
                     scenario.max_cycles),
                    lambda: capture_commit_logs(
                        programs[h], amap, max_steps=scenario.max_cycles)[0],
                )
                # The oracle replays the stream through a *fresh*
                # policy instance: the mounted one has live run state.
                oracle_policy = policy_for(h)
                expected = predict_verdict(logs, plan, oracle_policy).detected
                label, contract_ok = evaluate_contract(
                    getattr(oracle_policy, "monitor_state", "stateful"),
                    plan, base_row["detected"], row["detected"],
                    base_row["detection_latency"], row["detection_latency"],
                )
            else:
                continue
            row.update({
                "expected_detected": expected,
                "expectation_met": row["detected"] == expected,
                "role": role,
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
        faulted_row = per_hart[fault_hart]
        base_row = base_rows[scenario.attack_hart]
        result.update({
            "fault_stats": report.faults,
            # The headline expectation follows the attack hart's row
            # (the oracle's, when the attack hart is the faulted one;
            # its victim's table verdict otherwise).
            "predicted_detected": attack_row["expected_detected"],
            "degradation": faulted_row["degradation"],
            # Rows left ungraded carry no contract.
            "contract_ok": all(
                row.get("contract_ok", True) for row in per_hart
            ),
            "baseline_detected": base_row["detected"],
            "baseline_detection_latency": base_row["detection_latency"],
        })
    return result


def simulate(scenario: Scenario, seed: int, bundle=None,
             sim_mode: Optional[str] = None) -> Dict[str, object]:
    """Run one cell on its backend; returns the row's verdict columns.

    The one code path that simulates and judges a program: campaign
    cells, and (through :mod:`repro.synth.verify`) triage, corpus replay
    and ``python -m repro.synth verify``.  ``bundle``, a
    :class:`repro.synth.SynthBundle` (the registry's, or
    :func:`repro.synth.model_bundle` of any model), supplies the lone
    hart's program and label sets in place of the registry build of
    ``scenario.victim``.  ``sim_mode`` is :func:`run_scenario`'s.
    """
    if bundle is not None and scenario.multihart:
        raise ConfigError("a program bundle runs on single-hart cells only")
    if scenario.backend == BACKEND_COSIM:
        outcome = _run_cosim(scenario, seed, sim_mode=sim_mode, bundle=bundle)
        if not scenario.multihart:
            # Single-hart rows keep their shape: no per-hart breakdown.
            del outcome["per_hart"], outcome["quarantined_harts"]
        return outcome
    # max_cycles doubles as the step bound here (steps <= cycles), so
    # the knob — and the scenario-name suffix it carries — means the
    # same thing on both backends.
    if bundle is None:
        program = SHARD_CACHE.program(scenario.victim, seed)
        labels = VICTIMS[scenario.victim]
    else:
        program, labels = bundle.program, bundle
    return reference_outcomes(program, labels.entry_points,
                              labels.function_entries, (scenario.policy,),
                              scenario.max_cycles)[scenario.policy]


def _identity_columns(scenario: Scenario, seed: int) -> Dict[str, object]:
    """The columns naming a cell, shared by every row shape (knobs the
    backend ignores are ``None``), plus the fault-grading and per-hart
    placeholders that a run fills in place."""
    cosim = scenario.backend == BACKEND_COSIM
    multihart = scenario.multihart
    return {
        "fault_plan": scenario.fault_plan,
        "fault_hart": scenario.fault_hart,
        "lossy": scenario.lossy if cosim else None,
        "defense": scenario.defense if multihart else None,
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
        "firmware": scenario.firmware if cosim else None,
        "queue_depth": scenario.queue_depth if cosim else None,
        "blocking": scenario.blocking if cosim else None,
        "fabric": scenario.fabric if cosim else None,
        "max_cycles": scenario.max_cycles,
        "seed": seed,
        # Marks results whose victim actually varies with the seed, so
        # artifact consumers know which rows a seed sweep perturbs.
        "seeded": VICTIMS[scenario.victim].seeded,
        "n_harts": scenario.n_harts,
        "attack_hart": scenario.attack_hart if multihart else None,
        "hart_victims": (
            list(scenario.resolved_hart_victims) if multihart else None
        ),
        "stagger": scenario.stagger if multihart else None,
        "per_hart": None,
    }


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
    outcome = simulate(scenario, seed, bundle=bundle, sim_mode=sim_mode)
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
        **_identity_columns(scenario, seed),
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
        **_identity_columns(scenario, derive_seed(campaign_seed, scenario)),
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

    ``run_scenario`` is looked up through the module global, so a
    patch on it before the pool forks (the fault-injection tests, the
    benchmark's span probes) reaches every worker.
    """
    for scenario in iter(conn.recv, None):
        try:
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
    check_int("jobs", jobs, 1)
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
