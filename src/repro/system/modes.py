"""The co-simulator's two axes a campaign cell names: engine and policy backend.

They live apart from :mod:`repro.system.sim` so that a scenario spec,
a CLI parser or a job submission can validate them without importing
the simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError

#: Execution engines.  Both are cycle-exact; ``batched`` only changes
#: *how* the timeline is traversed.
MODE_BUSY = "busy"
MODE_BATCHED = "batched"

MODES = (MODE_BUSY, MODE_BATCHED)


def check_mode(mode: Optional[str]) -> None:
    """An engine from :data:`MODES`, or ``None`` for the default
    (``batched``); anything else raises :class:`ConfigError`."""
    if mode is not None and mode not in MODES:
        raise ConfigError(f"unknown execution mode {mode!r} (have: {MODES})")


#: Who serves the CFI mailbox — the policy-backend axis of a cosim run.
#:
#: * ``"firmware"`` — the RV32 firmware executing on the Ibex ISS (the
#:   shadow-stack policy, the paper's reference configuration);
#: * ``"host"`` — a mounted :class:`repro.policyhost.PolicyHost`
#:   running any Python policy on the firmware-calibrated cycle model
#:   (the RoT core is left frozen).
#:
#: The simulator derives the axis from the SoC: a mounted policy host
#: serves the mailbox, else the firmware does.
POLICY_BACKEND_FIRMWARE = "firmware"
POLICY_BACKEND_HOST = "host"

POLICY_BACKENDS = (POLICY_BACKEND_FIRMWARE, POLICY_BACKEND_HOST)
