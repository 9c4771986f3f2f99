"""Per-policy measured check latencies (the Table II host variants).

Table II's ``latencies="measured"`` mode evaluates the blocking closed
form with per-check latencies measured from the Table I firmware runs.
The policy host generalises this to any policy: its per-check cost is
the firmware-measured base for the event's path plus the policy's own
modelled surcharge (``host_extra_cycles``).  For the shadow-stack
policy the surcharge is zero by definition, so the host latencies
reproduce the Table I numbers exactly; the crypto-return policy adds
its HMAC cycles, giving Table II a second, genuinely different
software-policy column with no firmware change.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.firmware.policies import Policy
from repro.firmware.rig import call_log, ret_log


def policy_extra_cycles(policy: Policy) -> float:
    """Mean per-check surcharge of ``policy`` over the call/return mix.

    Runs Table I's matched probe pair (one ``jal ra`` call, one
    ``jalr x0, 0(ra)`` return) through the policy (mutating it — pass a
    fresh instance) so surcharges that depend on internal state (the
    crypto policy's underflow short-circuit) are evaluated on the real
    path.
    """
    extra = getattr(policy, "host_extra_cycles", None)
    if extra is None:
        return 0.0
    total = 0
    for log in (call_log(), ret_log()):
        verdict = policy.check(log)
        total += extra(log, verdict)
    return total / 2


def host_check_latencies(policy: Optional[Policy] = None) -> Dict[str, float]:
    """Per-variant check latency L of ``policy`` running as a mailbox
    agent: the Table I firmware-measured base plus the policy's mean
    surcharge.  ``None`` (or any surcharge-free policy, the shadow
    stack included) returns exactly the Table I measured latencies.
    """
    from repro.eval.table1 import compute as table1_compute

    base = dict(table1_compute()["derived"]["latencies"])
    if policy is None:
        return base
    surcharge = policy_extra_cycles(policy)
    return {variant: latency + surcharge for variant, latency in base.items()}
