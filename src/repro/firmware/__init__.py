"""OpenTitan CFI firmware (paper §IV-C) and reference policy models.

The firmware is genuine RV32 assembly, assembled by :mod:`repro.isa.asm`
and executed on the Ibex ISS.  Two variants exist:

* ``irq`` — the baseline: the check runs in the CFI mailbox interrupt
  service routine (wake → spill → claim → check → complete → restore →
  mret → wfi);
* ``polling`` — the paper's first optimisation: a busy-wait loop on the
  doorbell bit, paying no IRQ entry/exit cost.

The paper's third configuration, *Optimized*, is the polling firmware
run on the low-latency fabric profile (``fabric="optimized"``).

:mod:`repro.firmware.policies` holds Python-level reference policies
(shadow stack with authenticated spill, forward-edge label policy) used
by the trace-driven model and as an executable spec for the assembly.
:mod:`repro.firmware.rig` is the one platform that runs a firmware
check for Table I, calibration and the firmware differential test.
"""

from repro.firmware.shadow_stack import (
    FirmwareLayout,
    shadow_stack_firmware,
)
from repro.firmware.policies import (
    CheckResult,
    CoarseGrainedPolicy,
    CompositePolicy,
    ForwardEdgePolicy,
    Policy,
    ShadowStackPolicy,
)

__all__ = [
    "FirmwareLayout",
    "shadow_stack_firmware",
    "CheckResult",
    "CoarseGrainedPolicy",
    "CompositePolicy",
    "ForwardEdgePolicy",
    "Policy",
    "ShadowStackPolicy",
]
