#!/usr/bin/env python3
"""Cross-hart adversarial faults against the shared RoT monitor.

A compromised application hart on a many-hart SoC does not have to
attack its *own* control flow — it can attack the monitor's transport:
spoof another hart's stream, flood the shared doorbell, or squat on
the arbiter grant.  This demo shows the monitor's defense layer
absorbing all three:

1. **Baseline** — N=2, a ROP attack on hart 0 next to a benign
   deep-recursion peer on hart 1, defense armed, no adversary.
2. **Attacks** — the same cell with hart 1 running each adversarial
   fault plan.  Every attack ends with hart 1 quarantined (its queue
   flipped to lossy drop-oldest so the core sheds load instead of
   wedging the SoC) while hart 0's verdict and detection latency stay
   bit-identical to the baseline — the hard contract.
3. **Graceful degradation** — the quarantined hart keeps running and
   its drop counter absorbs the pressure; the benign hart drops
   nothing.

Run:  PYTHONPATH=src python examples/xhart_attack_demo.py
"""

import random

from repro.campaign.spec import VICTIMS
from repro.core.config import TitanCfiConfig
from repro.faults.inject import attach_faults
from repro.faults.plan import build_plan
from repro.firmware.policies import ShadowStackPolicy
from repro.policyhost import mount_policy_host
from repro.system import SystemSimulator, Topology, build_soc

SEED = 1234
PLANS = ("xhart-spoof", "xhart-flood", "xhart-hold")


def build(fault_plan=None):
    """N=2: rop on hart 0, deep-recursion peer on hart 1, one shared
    monitor with the defense layer armed.  The adversarial plan (if
    any) is scoped to hart 1 — hart 0 is the innocent bystander."""
    topo = Topology(n_harts=2)
    soc = build_soc(
        cfi_config=TitanCfiConfig(raise_on_violation=False), topology=topo
    )
    for hart_id, victim in enumerate(("rop", "deep-recursion")):
        amap = topo.address_map(hart_id, soc.addresses)
        program = VICTIMS[victim].builder(amap, random.Random(SEED + hart_id))
        soc.load_host_program(program, hart_id=hart_id)
    mount_policy_host(soc, ShadowStackPolicy(), defense=True)
    if fault_plan is not None:
        attach_faults(soc, build_plan(fault_plan, SEED).scoped(1))
    return soc


def describe(row):
    verdict = "VIOLATION" if row["detected"] else "clean"
    latency = (f", latency {row['detection_latency']}"
               if row["detected"] else "")
    tag = " [QUARANTINED]" if row["quarantined"] else ""
    return f"{verdict}{latency}{tag}"


def main() -> None:
    # 1. Baseline: no adversary, defense armed but silent.
    soc = build()
    baseline = SystemSimulator(soc).run()
    print("baseline (no adversary):")
    for row in baseline.per_hart:
        print(f"  hart {row['hart']}: {describe(row)}")
    assert not any(row["quarantined"] for row in baseline.per_hart)

    # 2. Each adversarial plan, scoped to hart 1.
    for plan in PLANS:
        soc = build(fault_plan=plan)
        report = SystemSimulator(soc).run()
        summary = soc.policy_host.defense.summary()
        print(f"\n{plan} from hart 1:")
        for row in report.per_hart:
            print(f"  hart {row['hart']}: {describe(row)}")
        print(f"  defense: strikes {summary['strikes']}, "
              f"spoofs detected {summary['spoofs_detected']}, "
              f"floods quarantined {summary['floods_quarantined']}, "
              f"holds released {summary['holds_released']}")

        # The attacker ends quarantined; the arbiter agrees.
        attacker = report.per_hart[1]
        assert attacker["quarantined"], plan
        assert soc.doorbell_arbiter.quarantined(1), plan

        # The hard contract: the benign hart's verdict and latency are
        # bit-identical to the no-adversary baseline.
        benign, base = report.per_hart[0], baseline.per_hart[0]
        for field in ("detected", "violation_kind", "detection_latency"):
            assert benign[field] == base[field], (plan, field)

        # 3. Graceful degradation: the quarantined hart sheds load
        # through its drop-oldest queue; the benign hart drops nothing.
        if attacker["cfi"]["dropped"]:
            print(f"  quarantined hart shed {attacker['cfi']['dropped']} "
                  f"events (benign hart shed {benign['cfi']['dropped']})")
        assert benign["cfi"]["dropped"] == 0, plan

    print("\nall attacks quarantined; benign hart bit-identical throughout")


if __name__ == "__main__":
    main()
