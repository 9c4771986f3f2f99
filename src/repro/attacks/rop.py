"""Attack-scenario driver: run victims on the full co-simulated SoC.

:func:`build_platform` is the one platform builder: it stamps out a
topology with one application hart per victim program, mounts the
mailbox agent (the real shadow-stack firmware on the RoT's Ibex, or a
policy host), attaches any fault plan and loads every hart's program.
The campaign runner builds every co-sim cell through it, one hart or
eight.

:func:`run_attack_scenario` runs one program on a one-hart platform and
reports whether TitanCFI detected the attack and whether the gadget's
side effects were architecturally visible (they are with a deep queue —
detection is asynchronous; with ``blocking=True`` the gadget never
retires, paper Table II's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.attacks.programs import GADGET_MARKER
from repro.core.config import TitanCfiConfig
from repro.errors import CfiViolation, ConfigError
from repro.firmware.policies import Policy
from repro.firmware.shadow_stack import FirmwareLayout, shadow_stack_firmware
from repro.isa.asm import Program
from repro.system.sim import (
    POLICY_BACKEND_FIRMWARE,
    POLICY_BACKEND_HOST,
    POLICY_BACKENDS,
    SimulationReport,
    SystemSimulator,
)
from repro.system.soc import TitanCfiSoc, build_soc
from repro.system.topology import Topology


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack run.

    Attributes:
        detected: TitanCFI flagged a violation.
        violation: the violation object (kind, pc, addresses).
        gadget_executed: the attacker payload's marker reached a0.
        report: the full simulation report.
    """

    detected: bool
    violation: Optional[CfiViolation]
    gadget_executed: bool
    report: SimulationReport


def build_platform(
    programs: Sequence[Program],
    firmware_variant: str = "irq",
    queue_depth: int = 8,
    blocking: bool = False,
    lossy: bool = False,
    fabric: str = "standard",
    firmware_image: Optional[bytes] = None,
    policy: Optional[Policy] = None,
    defense: bool = False,
    fault_plan=None,
) -> TitanCfiSoc:
    """Build a TitanCFI SoC that runs ``programs[h]`` on hart ``h``.

    A lone hart's violation ends the run; with peers each violation is
    latched instead, so every hart runs on to its own verdict.

    Args:
        programs: one host program per application hart, each placed
            in that hart's DRAM segment.
        firmware_variant: ``"irq"`` or ``"polling"`` (also selects the
            policy host's calibrated timing model).
        queue_depth: CFI queue depth (8 = Table III, 1 = Table II).
        blocking: stall per check (with depth 1, the Table II config).
        lossy: run the CFI queues in lossy (drop-oldest) mode instead of
            stalling commit on overflow.
        fabric: RoT interconnect profile.
        firmware_image: pre-assembled firmware image for
            ``firmware_variant`` (the campaign's shard cache passes
            this to keep assembly off the per-cell path); must match
            the default firmware layout.
        policy: mount this Python policy as a
            :class:`repro.policyhost.PolicyHost` in place of the
            firmware.  On several harts, install its per-hart contexts
            first.
        defense: mount the policy host's cross-hart defense layer.
        fault_plan: a :class:`repro.faults.FaultPlan` to attach
            (``None`` leaves every fault hook detached — the fault-free
            path is cycle-identical with the layer present).
    """
    config = TitanCfiConfig(queue_depth=queue_depth, blocking=blocking,
                            lossy=lossy,
                            raise_on_violation=len(programs) == 1)
    soc = build_soc(cfi_config=config, fabric=fabric,
                    topology=Topology(n_harts=len(programs)))
    if policy is not None:
        from repro.policyhost.host import mount_policy_host

        mount_policy_host(soc, policy, variant=firmware_variant,
                          defense=defense)
    else:
        if firmware_image is None:
            firmware_image = shadow_stack_firmware(
                firmware_variant, FirmwareLayout(soc.addresses)
            ).data
        soc.load_firmware(firmware_image)
    if fault_plan is not None:
        from repro.faults.inject import attach_faults

        attach_faults(soc, fault_plan)
    for hart_id, program in enumerate(programs):
        soc.load_host_program(program, hart_id=hart_id)
    return soc


def run_attack_scenario(
    program: Program,
    firmware_variant: str = "irq",
    queue_depth: int = 8,
    blocking: bool = False,
    fabric: str = "standard",
    max_cycles: int = 10_000_000,
    soc: Optional[TitanCfiSoc] = None,
    firmware_image: Optional[bytes] = None,
    sim_mode: Optional[str] = None,
    policy_backend: str = POLICY_BACKEND_FIRMWARE,
    policy: Optional[Policy] = None,
    fault_plan=None,
    lossy: bool = False,
) -> AttackOutcome:
    """Run ``program`` on a one-hart TitanCFI-protected SoC.

    The platform arguments are :func:`build_platform`'s.

    Args:
        program: host program (e.g. from :mod:`repro.attacks.programs`).
        max_cycles: co-simulation bound.
        soc: pre-built SoC override (advanced use).
        sim_mode: co-simulator engine (``None`` = engine default);
            every mode is cycle-exact, so the outcome is identical.
        policy_backend: who serves the CFI mailbox — ``"firmware"``
            runs the RV32 shadow-stack firmware on the Ibex ISS;
            ``"host"`` mounts ``policy`` as a
            :class:`repro.policyhost.PolicyHost` on the cycle model
            calibrated for ``firmware_variant`` and ``fabric``.
        policy: the Python policy to enforce (``"host"`` backend only).
    """
    if policy_backend not in POLICY_BACKENDS:
        raise ConfigError(
            f"unknown policy backend {policy_backend!r} (have: {POLICY_BACKENDS})"
        )
    if soc is None:
        if policy_backend == POLICY_BACKEND_HOST:
            if policy is None:
                raise ConfigError("policy_backend='host' needs a policy instance")
        elif policy is not None:
            raise ConfigError(
                "a policy instance needs policy_backend='host' (the "
                "firmware backend implements the shadow stack itself)"
            )
        soc = build_platform(
            [program], firmware_variant=firmware_variant,
            queue_depth=queue_depth, blocking=blocking, lossy=lossy,
            fabric=fabric, firmware_image=firmware_image, policy=policy,
            fault_plan=fault_plan,
        )
    else:
        # A prebuilt SoC arrives with its mailbox agent already set up;
        # the policy arguments must agree with it, not be ignored.
        mounted = getattr(soc, "policy_host", None) is not None
        if policy is not None:
            raise ConfigError(
                "pass a pre-built soc with its policy host already "
                "mounted (repro.policyhost.mount_policy_host), not a "
                "policy instance"
            )
        if (policy_backend == POLICY_BACKEND_HOST) != mounted:
            raise ConfigError(
                f"policy_backend={policy_backend!r} but the pre-built soc "
                f"{'has' if mounted else 'has no'} policy host mounted"
            )
        if fault_plan is not None:
            from repro.faults.inject import attach_faults

            attach_faults(soc, fault_plan)
        soc.load_host_program(program)

    report = SystemSimulator(soc, mode=sim_mode).run(max_cycles=max_cycles)
    return AttackOutcome(
        detected=report.detected,
        violation=report.violation,
        gadget_executed=soc.cva6.regs.read(10) == GADGET_MARKER,
        report=report,
    )
