"""Policy host: any Python policy as a cycle-accurate mailbox agent.

TitanCFI's flexibility claim is that the RoT enforces *any* CFI policy
in software with zero hardware change.  The cosim backend originally
proved that for exactly one policy — the RV32 shadow-stack firmware.
This subsystem mounts any Python :class:`~repro.firmware.policies.Policy`
behind the CFI mailbox as a first-class SoC agent: a
:class:`~repro.policyhost.host.PolicyHost` drains commit-log messages,
runs the policy's ``check()``, and answers through the exact handshake
protocol the Ibex firmware uses (verdict into data[0], then completion
— which clears the doorbell), on a per-check cycle model calibrated
against the real firmware's measured shadow-stack latencies
(:mod:`~repro.policyhost.calibration`).  Mounted with
:func:`~repro.policyhost.host.mount_policy_host`, the host is a citizen
of both co-simulation engines (busy and batched).
"""

from repro.policyhost.calibration import (
    ResponseModel,
    calibrate,
)
from repro.policyhost.host import MonitorDefense, PolicyHost, mount_policy_host
from repro.policyhost.latency import host_check_latencies

__all__ = [
    "MonitorDefense",
    "PolicyHost",
    "ResponseModel",
    "calibrate",
    "host_check_latencies",
    "mount_policy_host",
]
