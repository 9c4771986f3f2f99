"""Boot-epoch doorbells from the calibration tables, against the firmware.

A single-hart policy-host run whose first doorbell beats the RoT boot
sequence opens a *boot epoch*, which lasts until the first
steady-length gap between a completion and the next ring.  The host
answers the epoch's first ring at the model's boot head and every later
one from the busy curve of the firmware state the previous completion
left, with the check path keyed by a shadow-stack mirror of the
firmware (:meth:`repro.policyhost.host.PolicyHost._schedule`), so no
firmware rig is built while a campaign runs.

This suite holds the evidence that those answers are the firmware's.

* It records every boot-epoch ring (its cycle, its log and the host's
  answer) of every single-hart host-backed cosim cell of the
  ``*-smoke`` matrices and of ``policyhost`` at campaign seed 7, plus
  deep recursion under the shadow-stack and crypto-return policies on
  both firmware variants and both fabrics.  It then rings each run's
  chain on one fresh :class:`~repro.firmware.rig.FirmwareRig` at
  ``ring - drift``, where ``drift`` is the host's surcharge so far (the
  crypto-return policy's MAC cycles, any injected stall): the host's
  previous completion minus the rig's.  Every rig completion plus drift
  must equal the host's answer.
* It drives a :class:`~repro.policyhost.host.PolicyHost` directly, ring
  by ring, against a rig: the second ring at every offset up to the
  steady threshold after a first call and after an underflowing first
  return, directed chains through the offsets where the two firmware
  states differ, and seeded random chains on every configuration.
"""

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro.attacks.rop import run_attack_scenario
from repro.campaign.pool import run_campaign
from repro.campaign.spec import (
    BACKEND_COSIM,
    POLICY_CRYPTO_RETURN,
    POLICY_SHADOW_STACK,
    VICTIMS,
    Scenario,
    resolve_matrix,
)
from repro.core.commit_log import CommitLog
from repro.firmware.policies import (
    CheckResult,
    CoarseGrainedPolicy,
    CryptoReturnPolicy,
    ShadowStackPolicy,
)
from repro.firmware.rig import (
    PROBE_TARGET,
    FirmwareRig,
    call_log,
    probe_log,
    ret_log,
)
from repro.isa import opcodes as op
from repro.isa.encode import encode_i
from repro.policyhost import calibration
from repro.policyhost.calibration import HEAD, STEADY, calibrate
from repro.policyhost.host import PolicyHost
from repro.soc.mailbox import CfiMailbox
from repro.system.addresses import AddressMap

MATRICES = ("smoke", "synth-smoke", "coverage-smoke", "faults-smoke",
            "multihart-smoke", "xhart-smoke", "policyhost")
CONFIGS = [(variant, fabric) for variant in ("irq", "polling")
           for fabric in ("standard", "optimized")]
CAMPAIGN_SEED = 7
DEEP = "deep-recursion"
#: Deep recursion rings back-to-back from boot; the crypto-return
#: policy surcharges every check, so its epochs run with drift.
EXTRA = [
    Scenario(victim=DEEP, policy=policy, backend=BACKEND_COSIM,
             firmware=variant, fabric=fabric, policy_backend="host")
    for policy in (POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN)
    for variant, fabric in CONFIGS
]

ADDRESSES = AddressMap()


@dataclass
class Epoch:
    """One run's boot epoch: per ring, its cycle, its log, the host's
    answer and the host's previous completion (``None`` on the first)."""

    cell: Scenario
    config: Tuple[str, str, int]
    rings: List[Tuple[int, CommitLog, int, Optional[int]]]


@dataclass
class Recorded:
    epochs: List[Epoch]
    #: Arguments of every FirmwareRig constructed during the runs.
    rigs: List[tuple]


@pytest.fixture(scope="module")
def recorded():
    """One serial campaign over :data:`MATRICES` and :data:`EXTRA`, from
    an empty model memo, recording every boot epoch and counting the
    firmware rigs built."""
    cells = {cell.name: cell for name in MATRICES
             for cell in resolve_matrix(name)}
    cells.update((cell.name, cell) for cell in EXTRA)
    epochs, rigs, open_runs = [], [], {}
    schedule = PolicyHost._schedule
    rig_init = FirmwareRig.__init__

    def recording(self, ring, log, path_key):
        prev_respond = self._prev_respond
        answer = schedule(self, ring, log, path_key)
        if self._mirror is not None:
            open_runs.setdefault(self, []).append(
                (ring, log, answer, prev_respond))
        return answer

    def counting(self, *args, **kwargs):
        rigs.append(args)
        rig_init(self, *args, **kwargs)

    def collect(row):
        # A fault cell also runs its plan-free baseline: two hosts.
        assert row["status"] == "ok", row
        for host, rings in open_runs.items():
            model = host.model
            epochs.append(Epoch(cells[row["name"]], (
                model.variant, model.fabric, model.wake_cycles), rings))
        open_runs.clear()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "_MODELS", {})
        patch.setattr(PolicyHost, "_schedule", recording)
        patch.setattr(FirmwareRig, "__init__", counting)
        run_campaign(list(cells.values()), jobs=1,
                     campaign_seed=CAMPAIGN_SEED, stream=collect)
    return Recorded(epochs, rigs)


def replay(epoch: Epoch):
    """The firmware's answers to ``epoch``'s rings, on one fresh rig,
    and the drift each ring was rung with."""
    rig = FirmwareRig(*epoch.config)
    drift = 0
    rig_respond = None
    answers, drifts = [], []
    for ring, log, _, prev_respond in epoch.rings:
        if prev_respond is not None:
            drift = prev_respond - rig_respond
        rig_respond = rig.response(ring - drift, log)
        answers.append(rig_respond + drift)
        drifts.append(drift)
    return answers, drifts


def test_a_campaign_builds_no_firmware_rig(recorded):
    """... and only single-hart cells open a boot epoch."""
    assert recorded.rigs == []
    assert len(recorded.epochs) > 100
    assert all(epoch.cell.n_harts == 1 for epoch in recorded.epochs)


@pytest.mark.parametrize("variant,fabric", CONFIGS)
def test_boot_epochs_match_the_firmware(recorded, variant, fabric):
    epochs = [epoch for epoch in recorded.epochs
              if epoch.config[:2] == (variant, fabric)]
    covered = set()
    for epoch in epochs:
        answers, drifts = replay(epoch)
        assert answers == [answer for _, _, answer, _ in epoch.rings], (
            epoch.cell.name)
        if epoch.cell.victim == DEEP:
            covered.add(epoch.cell.policy)
            if max(drifts) > 0:
                covered.add("drift")
    assert covered >= {POLICY_SHADOW_STACK, POLICY_CRYPTO_RETURN, "drift"}


# -- the host, ring by ring, against a rig -----------------------------------

JUMP = probe_log(encode_i(op.OP_JALR, 0, 0, 10, 0))   # jalr x0, 0(a0)
OTHER = probe_log(0x13)                               # addi x0, x0, 0
MISMATCH = ret_log(1, target=PROBE_TARGET)


class AllowAll:
    """A host policy that flags nothing: its verdicts differ from the
    firmware mirror's on every mismatching or underflowing return."""

    def check(self, log: CommitLog) -> CheckResult:
        return CheckResult.OK


def host_chain(config, chain, policy=None) -> List[int]:
    """Completion cycles of a :class:`PolicyHost` serving ``chain``: a
    list of ``(cycle, log)``, the first ring at its cycle and every later
    one that many cycles after the previous completion."""
    mailbox = CfiMailbox()
    host = PolicyHost(policy or ShadowStackPolicy(), mailbox,
                      calibrate(*config))
    completions: List[int] = []
    for cycle, log in chain:
        ring = cycle + (completions[-1] if completions else 0)
        while host.now < ring:
            host.tick()
        mailbox.deposit(log.pack())
        while not mailbox.completion_pending:
            host.tick()
        completions.append(host.now)
    return completions


def rig_chain(config, chain) -> List[int]:
    """The firmware's completion cycles for ``chain``, on a fresh rig."""
    rig = FirmwareRig(*config)
    completions: List[int] = []
    for cycle, log in chain:
        ring = cycle + (completions[-1] if completions else 0)
        completions.append(rig.response(ring, log))
    return completions


IRQ = [("irq", "standard"), ("irq", "optimized")]


@pytest.mark.parametrize("first", [call_log(1), ret_log(1)],
                         ids=["call", "underflow"])
@pytest.mark.parametrize("variant,fabric", CONFIGS)
def test_second_ring_after_the_boot_head(variant, fabric, first):
    """Every offset up to the steady threshold, on fresh rigs: the
    boot epoch's second ring is the one the boot head's state keys."""
    model = calibrate(variant, fabric)
    for offset in range(model.steady_threshold):
        chain = [(0, first), (offset, call_log(1))]
        assert host_chain((variant, fabric), chain) == rig_chain(
            (variant, fabric), chain), offset


def test_a_ring_at_the_head_states_sleep_point_pays_the_wake():
    """irq/standard: a first call at cycle 0 completes at the boot head,
    222, and leaves the ISR returning straight to its ``wfi``; a call
    rung 70 cycles later finds the firmware asleep and completes at 479.
    The steady curve answers 435 there."""
    model = calibrate("irq", "standard")
    chain = [(0, call_log(1)), (70, call_log(1))]
    assert rig_chain(("irq", "standard"), chain) == [222, 479]
    assert host_chain(("irq", "standard"), chain) == [222, 479]
    ring = 222 + 70
    assert model.steady_response(ring, 222, STEADY, ("call-jal-ra", "ok")) == 435
    assert model.steady_response(ring, 222, HEAD, ("call-jal-ra", "ok")) == 479


def test_a_ring_after_a_steady_underflow_catches_the_idle_loop():
    """irq/standard, from sleep: a call, its return, an underflowing
    return, then a call 71 cycles after that completion, which the IRQ
    firmware takes at its ``wfi`` without sleeping (a curve keyed by the
    underflow's verdict answered 1,726)."""
    chain = [(300, call_log(1)), (300, ret_log(1)), (300, ret_log(1)),
             (71, call_log(1))]
    assert rig_chain(("irq", "standard"), chain) == [487, 984, 1468, 1681]
    assert host_chain(("irq", "standard"), chain) == [487, 984, 1468, 1681]


@pytest.mark.parametrize("variant,fabric", IRQ)
@pytest.mark.parametrize("policy", [ShadowStackPolicy, AllowAll])
def test_the_state_follows_the_ring_times_not_the_verdicts(
        variant, fabric, policy):
    """Directed chains through every offset where the two states' curves
    differ: after a first call, a mismatching return and an underflow
    mid-epoch, and after a steady completion, under a host policy that
    agrees with the firmware mirror and one that flags nothing."""
    model = calibrate(variant, fabric)
    config = (variant, fabric)
    split = sorted(model._heads[STEADY])
    assert split  # the offsets of the idle loop's jump
    for offset in split:
        for chain in (
            # head state, kept by a mismatch in the ISR epilogue
            [(0, call_log(1)), (10, MISMATCH), (offset, call_log(1))],
            # head state, kept by an underflow in the epilogue
            [(0, call_log(1)), (0, ret_log(1)), (3, ret_log(1)),
             (offset, call_log(1))],
            # steady state, a mismatch completion rung from sleep
            [(model.boot_tail_start, call_log(1)), (200, MISMATCH),
             (offset, call_log(1))],
            # a steady ring that catches the idle loop's jump enters the
            # head state
            [(model.boot_tail_start, call_log(1)), (offset, MISMATCH),
             (offset, call_log(1)), (offset, call_log(1))],
        ):
            assert host_chain(config, chain, policy()) == rig_chain(
                config, chain), (offset, chain)


def _random_chain(rng: random.Random, model, epoch: bool):
    """A chain of up to 30 rings: calls, matching and mismatching
    returns, jumps and non-transfers, a third of the offsets within two
    cycles of a state-splitting offset.  ``epoch`` chains start before
    the boot tail and keep every gap below the steady threshold."""
    first = (rng.randrange(model.boot_tail_start) if epoch
             else model.boot_tail_start + rng.randrange(100))
    split = sorted(model._heads[STEADY]) or [0]
    horizon = model.steady_threshold if epoch else 2 * model.steady_threshold
    chain = []
    for index in range(rng.randrange(2, 30)):
        log = rng.choice([call_log(1), call_log(5), call_log(1, jal=False),
                          ret_log(1), ret_log(5), MISMATCH, JUMP, OTHER])
        if rng.random() < 0.3:
            offset = max(0, rng.choice(split) + rng.randrange(-2, 3))
        else:
            offset = rng.randrange(horizon)
        chain.append((first if index == 0 else offset, log))
    return chain


@pytest.mark.parametrize("variant,fabric", CONFIGS)
def test_random_chains_match_the_firmware(variant, fabric):
    """Outside an epoch the host policy keys the check paths, so those
    chains run under the firmware's own policy; epoch chains also run
    under a policy whose verdicts differ."""
    rng = random.Random(f"{variant}/{fabric}")
    model = calibrate(variant, fabric)
    config = (variant, fabric)
    for index in range(45):
        epoch = index % 3 != 0
        chain = _random_chain(rng, model, epoch)
        policy = (CoarseGrainedPolicy if epoch and index % 2 else
                  ShadowStackPolicy)
        assert host_chain(config, chain, policy()) == rig_chain(
            config, chain), chain


# -- cycle-exactness across runs and engines ---------------------------------

@pytest.fixture
def fresh_models(monkeypatch):
    """An empty model memo, so the next run calibrates anew."""
    monkeypatch.setattr(calibration, "_MODELS", {})


def _run(victim, policy_factory, seed=1, sim_mode=None, variant="irq"):
    program = VICTIMS[victim].builder(ADDRESSES, random.Random(seed))
    outcome = run_attack_scenario(
        program, firmware_variant=variant, sim_mode=sim_mode,
        policy_backend="host", policy=policy_factory(),
    )
    report = outcome.report
    return {
        "cycles": report.cycles,
        "detected": outcome.detected,
        "latency": report.detection_latency,
        "checks": report.cfi.get("checks_completed"),
        "stalls": report.host_stall_cycles,
    }


@pytest.mark.usefixtures("fresh_models")
class TestCycleExactness:
    """A fresh model and a memoised one give the same run, on both
    engines: the boot epoch keeps its state in the host, never in the
    model."""

    @pytest.mark.parametrize("victim,policy", [
        ("deep-recursion", ShadowStackPolicy),   # back-to-back doorbells
        ("rop", ShadowStackPolicy),
        ("benign", CryptoReturnPolicy),          # surcharge → drift
    ])
    def test_differential_cold_warm(self, victim, policy):
        cold = _run(victim, policy)
        warm = _run(victim, policy)
        assert cold == warm

    def test_differential_across_engines(self, monkeypatch):
        """A busy cold run, a batched warm run and a batched cold run
        agree."""
        runs = {
            mode: _run("deep-recursion", ShadowStackPolicy, sim_mode=mode)
            for mode in ("busy", "batched")
        }
        assert runs["busy"] == runs["batched"]
        monkeypatch.setattr(calibration, "_MODELS", {})
        assert _run("deep-recursion", ShadowStackPolicy,
                    sim_mode="batched") == runs["busy"]

    def test_differential_polling_variant(self):
        cold = _run("benign", ShadowStackPolicy, variant="polling")
        warm = _run("benign", ShadowStackPolicy, variant="polling")
        assert cold == warm
