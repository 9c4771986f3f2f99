"""The calibrated boot-chain table: cycle-exactness and rig retirement.

A policy-host run whose doorbells stay back-to-back lives in the
boot-epoch shadow session for its whole life; before the chain table,
that meant an Ibex-speed replay rig per run.  The table memoises every
(ring chain → completion) answer per calibrated model, so repeated
chains are served without building a rig at all — and the differential
tests here prove the table changes *nothing* about simulated time.  A
fresh model's table is empty, so its first run is cold: every ring goes
to the firmware rig.
"""

import random

import pytest

from repro.attacks.rop import run_attack_scenario
from repro.campaign.spec import VICTIMS
from repro.firmware.policies import (
    CompositePolicy,
    CryptoReturnPolicy,
    ShadowStackPolicy,
)
from repro.policyhost import calibrate, calibration
from repro.system.addresses import AddressMap

ADDRESSES = AddressMap()


@pytest.fixture(autouse=True)
def fresh_models(monkeypatch):
    """Each test starts from an empty model memo, so every model it
    calibrates starts with an empty chain table."""
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


class TestCycleExactness:
    """cold == warm, for every simulated number."""

    @pytest.mark.parametrize("victim,policy", [
        ("deep-recursion", ShadowStackPolicy),   # back-to-back doorbells
        ("rop", ShadowStackPolicy),
        ("benign", CryptoReturnPolicy),          # surcharge → drift path
    ])
    def test_differential_cold_warm(self, victim, policy):
        cold = _run(victim, policy)
        warm = _run(victim, policy)
        assert cold == warm

    def test_differential_across_engines(self, monkeypatch):
        """The table must be invisible to both engines alike: a busy
        cold run, a batched warm run and a batched cold run agree."""
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


class TestRigRetirement:
    def test_warm_run_builds_no_rig(self):
        """The headroom claim itself: a repeated back-to-back-doorbell
        run is answered entirely from the table — the replay rig is
        never constructed."""
        model = calibrate()
        before = model.shadow_rig_builds
        _run("deep-recursion", ShadowStackPolicy)
        assert model.shadow_rig_builds == before + 1  # cold: one rig
        _run("deep-recursion", ShadowStackPolicy)
        assert model.shadow_rig_builds == before + 1  # warm: none

    def test_prefix_sharing_across_policies(self):
        """Two policies whose early rings coincide share the chain
        prefix; the second run only needs a rig if it diverges."""
        model = calibrate()
        _run("benign", ShadowStackPolicy)
        before = model.shadow_rig_builds
        # The composite policy rings the identical chain (the forward
        # edge member adds no surcharge), so the table answers it all.
        _run("benign", lambda: CompositePolicy(
            [ShadowStackPolicy()]))
        assert model.shadow_rig_builds == before
