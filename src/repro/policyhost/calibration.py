"""Calibrated response model: firmware-measured mailbox handshake timing.

The policy host must answer doorbells with the *same* cycle timing the
RV32 shadow-stack firmware exhibits, or host-backed co-simulations
would drift from the firmware-backed ones.  Rather than hard-coding
latency constants, this module **measures** the real firmware on
:class:`repro.firmware.rig.FirmwareRig` — the rig the Table I harness
(:mod:`repro.eval.firmware_analysis`) classifies its steps on — and
condenses the results into a :class:`ResponseModel`:

* **busy curves** — ring→completion latency as a function of the
  doorbell's offset ``d`` from the previous completion, one per
  firmware *state* that completion left.  A curve covers every service
  regime (doorbell during the ISR epilogue, serviced at ``mret``; in
  the idle window; after WFI sleep, wake included), and its tail is
  periodic (constant for the IRQ firmware, asleep; poll-loop-periodic
  for the polling firmware), so one finite sweep extrapolates exactly
  to any offset.
* **firmware states** — the IRQ ISR returns to where it was entered:
  to the idle loop's jump after a check it woke for (:data:`STEADY`),
  and straight to the ``wfi`` after one entered there before it slept
  (:data:`HEAD`: the boot head, or a doorbell that catches the loop
  between its jump and its ``wfi``), so it sleeps one jump sooner.  The
  tables list, per state, the offsets whose ring leaves :data:`HEAD` (a
  doorbell during the ISR keeps the state); every other ring leaves
  :data:`STEADY`.  Neither the verdict nor the check path is part of
  the state, and the polling firmware's two curves are one.
* **boot tail curve** — the same function for a *first* doorbell,
  anchored at reset instead of a previous completion, measured from
  the cycle the firmware reaches its steady idle point.
* **service deltas** — per-event costs: the firmware's check latency
  differs by the commit log's parse path (JAL vs JALR call, return via
  ``ra`` vs ``t0``, indirect jump, non-transfer) and its outcome (push,
  pop-and-match, mismatch, underflow).  Each path is probed from the
  identical arrival phase; the model stores its latency delta against
  the reference path (a ``jal ra`` call).
* **boot head** — the completion cycle of a first doorbell that lands
  *before* the firmware's steady idle point (the host program's first
  control-flow event often beats the RoT boot sequence).  The
  firmware's interrupt or poll observation is then already pending when
  it reaches its idle point, so every such ring completes on one
  measured cycle, plus its path's service delta, and leaves
  :data:`HEAD`.
* **boot-epoch mirror** — until the run's first steady-length gap, the
  firmware's own shadow stack, not the host policy, picks the check
  paths of a boot epoch's doorbells: the host checks every log of the
  epoch on a :class:`~repro.firmware.policies.ShadowStackPolicy` sized
  like :class:`~repro.firmware.shadow_stack.FirmwareLayout`, whose path
  key selects the delta (see :class:`repro.policyhost.host.PolicyHost`).

The tables are committed data.  ``calibration_tables.json`` beside this
module holds them for both firmware variants on both fabrics at the
default 45-cycle wake, keyed ``"{variant}/{fabric}/{wake_cycles}"`` and
stamped with the SHA-256 of the firmware image they were measured on.
A model is built from its shipped entry when the key and the digest
match, and otherwise from a fresh :func:`measure_tables` run, the same
function that generates the file::

    PYTHONPATH=src python tests/policyhost/test_calibration_tables.py

Tier-1 re-measures every shipped entry and compares.  Models are
memoised per ``(firmware variant, fabric, wake_cycles)`` — one model
serves every scenario of a campaign shard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.commit_log import CommitLog
from repro.errors import ConfigError, SimulationError
from repro.firmware.rig import (
    PROBE_PC,
    PROBE_TARGET,
    FirmwareRig,
    call_log,
    probe_log,
    ret_log,
)
from repro.firmware.shadow_stack import shadow_stack_firmware
from repro.isa import opcodes as op
from repro.isa.encode import encode_i, encode_j
from repro.opentitan.rot import RotConfig

#: The committed calibration tables, read when a model is built.
TABLES = Path(__file__).with_name("calibration_tables.json")

#: Reference path every service delta is measured against.
P0_KEY = ("call-jal-ra", "ok")

#: The firmware states a completion can leave (see the module docstring).
STEADY = "steady"
HEAD = "head"

#: Longest tail period the calibration will look for (the polling
#: firmware's poll loop is ~15 cycles; IRQ tails are constant).
_MAX_PERIOD = 32
#: Consecutive samples that must repeat before a period is accepted.
_CONFIRM = 2 * _MAX_PERIOD
#: Hard cap on adaptive sweeps (a failure to find a period below this
#: means the firmware is not in a steady regime — a calibration bug).
_SWEEP_CAP = 1024


def _probe_plan() -> List[Tuple[Tuple[str, str], List[CommitLog], CommitLog]]:
    """(path key, setup logs, probe log) for every firmware check path.

    Underflow probes come first (they need an empty shadow stack);
    every return probe is preceded by its own matching call so the
    resident depth never drifts past a handful of entries.
    """
    match = PROBE_PC + 4
    return [
        (("ret-ra", "underflow"), [], ret_log(1)),
        (("ret-t0", "underflow"), [], ret_log(5)),
        (P0_KEY, [], call_log(1)),
        (("call-jal-t0", "ok"), [], call_log(5)),
        (("call-jalr-ra", "ok"), [], call_log(1, jal=False)),
        (("call-jalr-t0", "ok"), [], call_log(5, jal=False)),
        (("ret-ra", "ok"), [call_log(1)], ret_log(1, target=match)),
        (("ret-ra", "bad"), [call_log(1)], ret_log(1, target=PROBE_TARGET)),
        (("ret-t0", "ok"), [call_log(1)], ret_log(5, target=match)),
        (("ret-t0", "bad"), [call_log(1)], ret_log(5, target=PROBE_TARGET)),
        (("jump-rs", "ok"), [], probe_log(encode_i(op.OP_JALR, 0, 0, 10, 0))),
        (("jump-rd", "ok"), [], probe_log(encode_i(op.OP_JALR, 0, 6, 10, 0))),
        (("jal-jump", "ok"), [], probe_log(encode_j(op.OP_JAL, 0, 0x100))),
        (("other", "ok"), [], probe_log(0x13)),  # addi x0,x0,0
    ]


def _find_period(values: List[int], max_period: int = _MAX_PERIOD,
                 confirm: int = _CONFIRM) -> Optional[int]:
    """Smallest tail period confirmed over the last ``confirm`` samples."""
    n = len(values)
    for period in range(1, max_period + 1):
        span = confirm + period
        if span > n:
            return None
        tail = values[n - span:]
        if all(tail[i] == tail[i + period] for i in range(confirm)):
            return period
    return None


def _collect_periodic(sample: Callable[[int], int], label: str,
                      initial: int = 160, chunk: int = 64) -> Tuple[List[int], int]:
    """Sample ``sample(0), sample(1), …`` until the tail is periodic."""
    values: List[int] = []
    target = initial
    while True:
        while len(values) < target:
            values.append(sample(len(values)))
        period = _find_period(values)
        if period is not None:
            return values, period
        target += chunk
        if target > _SWEEP_CAP:
            raise SimulationError(
                f"calibration sweep '{label}' found no periodic tail "
                f"within {_SWEEP_CAP} samples"
            )


@dataclass(frozen=True)
class ResponseCurve:
    """Measured latency as a function of offset, with a periodic tail.

    ``latency(d)`` is exact for every measured offset and extrapolates
    the tail periodically beyond the measured range (sound because the
    underlying firmware is in a cyclic steady regime there — asleep,
    or spinning in the poll loop).
    """

    start: int
    values: Tuple[int, ...]
    period: int

    @classmethod
    def from_table(cls, table: Dict[str, object]) -> "ResponseCurve":
        return cls(start=table["start"], values=tuple(table["values"]),
                   period=table["period"])

    def table(self) -> Dict[str, object]:
        """The curve as its :data:`TABLES` entry."""
        return {"start": self.start, "values": list(self.values),
                "period": self.period}

    def latency(self, offset: int) -> int:
        index = offset - self.start
        if index < 0:
            raise SimulationError(
                f"response curve queried below its range ({offset} < {self.start})"
            )
        n = len(self.values)
        if index < n:
            return self.values[index]
        base = n - self.period
        return self.values[base + (index - base) % self.period]


# -- measurements ------------------------------------------------------------

def _completions(new_rig: Callable[[], FirmwareRig], first: int,
                 offsets: Tuple[int, ...] = ()) -> List[int]:
    """Completion cycles of reference rings on a fresh rig: the first at
    cycle ``first``, each later one ``offset`` cycles after the previous
    completion."""
    rig = new_rig()
    done = [rig.response(first, call_log(1))]
    for offset in offsets:
        done.append(rig.response(done[-1] + offset, call_log(1)))
    return done


def _measure_states(new_rig: Callable[[], FirmwareRig], start: int,
                    label: str):
    """The busy curve of each state, the offsets whose ring leaves
    :data:`HEAD` from it, and a reader of the state rings leave.

    The boot head (a first ring at cycle 0) leaves :data:`HEAD`, a first
    ring at the idle point ``start`` leaves :data:`STEADY`.  Every offset
    is swept on a fresh rig: a chained sweep would anchor some offsets
    at a completion that left the other state.  The reader rings once
    more at the first offset where the two curves differ and matches the
    latency; it returns ``None`` when they agree everywhere (the states
    are one).  A ring in a curve's periodic tail, and so any ring beyond
    its measured range, must leave :data:`STEADY`.
    """
    anchors = {STEADY: start, HEAD: 0}
    busy = {}
    for state, first in anchors.items():
        def sample(offset: int, first: int = first) -> int:
            done = _completions(new_rig, first, (offset,))
            return done[1] - done[0] - offset

        values, period = _collect_periodic(sample, f"busy/{state} of {label}")
        busy[state] = ResponseCurve(start=0, values=tuple(values),
                                    period=period)
    span = max(len(curve.values) + curve.period for curve in busy.values())
    split = next((d for d in range(span)
                  if busy[STEADY].latency(d) != busy[HEAD].latency(d)), None)

    def state_after(first: int, offsets: Tuple[int, ...] = ()) -> Optional[str]:
        if split is None:
            return None
        done = _completions(new_rig, first, offsets + (split,))
        latency = done[-1] - done[-2] - split
        for state, curve in busy.items():
            if curve.latency(split) == latency:
                return state
        raise SimulationError(
            f"calibration self-check failed: rings at {first} + {offsets} "
            f"leave the firmware in neither state ({label})"
        )

    heads = {}
    for state, curve in busy.items():
        tail = len(curve.values) - _CONFIRM - curve.period
        heads[state] = tuple(d for d in range(len(curve.values))
                             if state_after(anchors[state], (d,)) == HEAD)
        if heads[state] and heads[state][-1] >= tail:
            raise SimulationError(
                f"calibration self-check failed: a ring in the periodic "
                f"tail after {state!r} leaves {HEAD!r} ({label})"
            )
    return busy, heads, state_after


def _measure_boot_tail(new_rig: Callable[[], FirmwareRig], start: int,
                       busy_period: int, state_after, label: str) -> ResponseCurve:
    """First-doorbell latency from the steady idle point ``start`` on.

    One fresh rig per sample (boot happens once per rig); the tail
    period is confirmed independently, but with the busy curve's
    period already known the sweep converges quickly.  Every sample
    must leave :data:`STEADY`.
    """
    def sample(offset: int) -> int:
        ring = start + offset
        if state_after(ring) not in (STEADY, None):
            raise SimulationError(
                f"calibration self-check failed: a first ring at cycle "
                f"{ring} leaves {HEAD!r} ({label})"
            )
        return _completions(new_rig, ring)[0] - ring

    values, period = _collect_periodic(
        sample, f"boot of {label}", initial=busy_period + _CONFIRM + 4,
    )
    return ResponseCurve(start=start, values=tuple(values), period=period)


def _measure_boot_head(new_rig: Callable[[], FirmwareRig], start: int,
                       state_after, label: str) -> int:
    """The completion cycle of a first reference-path doorbell rung at
    any cycle before the steady idle point ``start``, one fresh rig per
    ring; raises :class:`SimulationError` unless every such ring
    completes on the same cycle and leaves :data:`HEAD`."""
    completions = {_completions(new_rig, ring)[0] for ring in range(start)}
    if len(completions) != 1 or any(
            state_after(ring) not in (HEAD, None) for ring in range(start)):
        raise SimulationError(
            f"calibration self-check failed: first rings before the idle "
            f"point {start} complete on {len(completions)} cycles, "
            f"{sorted(completions)[:4]}…, or leave {STEADY!r} ({label})"
        )
    return completions.pop()


def _measure_deltas(new_rig: Callable[[], FirmwareRig], busy: ResponseCurve,
                    label: str) -> Dict[Tuple[str, str], int]:
    """Per-path latency deltas versus the reference path, in
    :func:`_probe_plan` order.

    Every probe is rung at the identical offset from its previous
    completion, so the pre-check segment (wake, trap entry, ISR
    prologue / poll observation) contributes identically and the
    deltas isolate the check-path cost alone.
    """
    rig = new_rig()
    settle = rig.settle()
    offset = len(busy.values) + 2 * busy.period
    # Anchor the chain with a stack-neutral event (the underflow
    # probes that follow need an empty shadow stack).
    prev = rig.response(settle + 8, probe_log(0x13))
    latencies: Dict[Tuple[str, str], int] = {}
    for key, setups, probe in _probe_plan():
        for setup in setups:
            prev = rig.response(prev + offset, setup)
        ring = prev + offset
        respond = rig.response(ring, probe)
        latencies[key] = respond - ring
        prev = respond
    base = latencies[P0_KEY]
    expected = busy.latency(offset)
    if base != expected:
        raise SimulationError(
            f"calibration self-check failed: reference probe latency "
            f"{base} != busy-curve extrapolation {expected} ({label})"
        )
    return {key: lat - base for key, lat in latencies.items()}


def table_key(variant: str, fabric: str, wake_cycles: int) -> str:
    """The :data:`TABLES` key of one firmware configuration."""
    return f"{variant}/{fabric}/{wake_cycles}"


def firmware_digest(variant: str) -> str:
    """SHA-256 of the assembled ``variant`` firmware image."""
    return hashlib.sha256(shadow_stack_firmware(variant).data).hexdigest()


def measure_tables(variant: str, fabric: str = "standard",
                   wake_cycles: int = 45) -> Dict[str, object]:
    """Measure every table of one firmware configuration on fresh rigs.

    Returns the configuration's :data:`TABLES` entry: the firmware
    digest, the busy curve of each state, the offsets that lead to
    :data:`HEAD` from each state, the boot tail, the boot head, every
    service delta in probe order and ``bad_bias``.
    """
    label = table_key(variant, fabric, wake_cycles)

    def new_rig() -> FirmwareRig:
        return FirmwareRig(variant, fabric, wake_cycles)

    start = new_rig().settle()
    busy, heads, state_after = _measure_states(new_rig, start, label)
    boot_tail = _measure_boot_tail(new_rig, start, busy[STEADY].period,
                                   state_after, label)
    boot_head = _measure_boot_head(new_rig, start, state_after, label)
    deltas = _measure_deltas(new_rig, busy[STEADY], label)
    return {
        "firmware": firmware_digest(variant),
        "busy": {state: curve.table() for state, curve in busy.items()},
        "heads": {state: list(offsets) for state, offsets in heads.items()},
        "boot_tail": boot_tail.table(),
        "boot_head": boot_head,
        "deltas": {f"{name}/{outcome}": delta
                   for (name, outcome), delta in deltas.items()},
        "bad_bias": deltas[("ret-ra", "bad")] - deltas[("ret-ra", "ok")],
    }


def _shipped_tables(variant: str, fabric: str,
                    wake_cycles: int) -> Optional[Dict[str, object]]:
    """The committed entry of one configuration, or ``None`` when none
    is shipped or it was measured on another firmware image."""
    entry = json.loads(TABLES.read_text()).get(
        table_key(variant, fabric, wake_cycles))
    if entry is None or entry["firmware"] != firmware_digest(variant):
        return None
    return entry


class ResponseModel:
    """The calibrated doorbell→completion timing of one firmware config.

    Query :meth:`boot_response` and :meth:`boot_state` for a run's first
    doorbell and :meth:`steady_response` and :meth:`next_state` for
    every later one; see the module docstring for the regimes.
    """

    def __init__(self, variant: str = "irq", fabric: str = "standard",
                 wake_cycles: int = 45):
        if variant not in ("irq", "polling"):
            raise ConfigError(f"unknown firmware variant {variant!r}")
        # Validate before the table lookup: ``wake_cycles="45"`` would
        # find the shipped ``…/45`` entry.
        RotConfig(fabric=fabric, wake_cycles=wake_cycles)
        self.variant = variant
        self.fabric = fabric
        self.wake_cycles = wake_cycles
        tables = (_shipped_tables(variant, fabric, wake_cycles)
                  or measure_tables(variant, fabric, wake_cycles))
        self._busy = {state: ResponseCurve.from_table(curve)
                      for state, curve in tables["busy"].items()}
        self._heads = {state: frozenset(offsets)
                       for state, offsets in tables["heads"].items()}
        self.boot_tail = ResponseCurve.from_table(tables["boot_tail"])
        self.boot_head: int = tables["boot_head"]
        self._deltas: Dict[Tuple[str, str], int] = {
            tuple(key.split("/")): delta
            for key, delta in tables["deltas"].items()
        }
        self.bad_bias: int = tables["bad_bias"]

    # -- queries -------------------------------------------------------------

    @property
    def boot_tail_start(self) -> int:
        """First ring cycle the boot tail curve covers (the firmware's
        steady idle point); earlier first rings complete at
        :attr:`boot_head` and open a boot epoch."""
        return self.boot_tail.start

    @property
    def steady_threshold(self) -> int:
        """Ring offset from the previous completion beyond which the
        firmware is provably back in its steady regime — the gap that
        ends a boot epoch."""
        return len(self._busy[STEADY].values)

    def busy_curve(self, state: str) -> ResponseCurve:
        """The busy curve after a completion that left ``state``."""
        return self._busy[state]

    def boot_state(self, ring: int) -> str:
        """The state a run's first doorbell at ``ring`` leaves."""
        return HEAD if ring < self.boot_tail.start else STEADY

    def next_state(self, state: str, offset: int) -> str:
        """The state a doorbell ``offset`` cycles after a completion that
        left ``state`` leaves."""
        return HEAD if offset in self._heads[state] else STEADY

    def service_delta(self, path_key: Tuple[str, str]) -> int:
        delta = self._deltas.get(path_key)
        if delta is not None:
            return delta
        name, outcome = path_key
        if outcome == "bad":
            # Paths the shadow-stack firmware never flags (a host-only
            # policy rejecting a call or a jump): charge the path's
            # benign cost plus the measured violation-respond bias.
            ok = self._deltas.get((name, "ok"))
            if ok is not None:
                return ok + self.bad_bias
        if outcome in ("spill", "restore"):
            raise SimulationError(
                f"uncalibrated check path {path_key!r}: the response model "
                "does not cover shadow-stack spill/restore — the policy's "
                "resident capacity exceeded the calibrated depth (lower the "
                "host policy's spill horizon or keep depth within capacity)"
            )
        raise SimulationError(f"uncalibrated check path {path_key!r}")

    def steady_response(self, ring: int, prev_respond: int, state: str,
                        path_key: Tuple[str, str]) -> int:
        """Completion cycle for a doorbell at ``ring``, anchored at the
        previous completion, which left ``state``."""
        latency = self._busy[state].latency(ring - prev_respond)
        return ring + latency + self.service_delta(path_key)

    def boot_response(self, ring: int, path_key: Tuple[str, str]) -> int:
        """Completion cycle for a run's *first* doorbell at ``ring``."""
        if ring < self.boot_tail.start:
            return self.boot_head + self.service_delta(path_key)
        return ring + self.boot_tail.latency(ring) + self.service_delta(path_key)


#: Process-wide model memo (one calibration per firmware config).
_MODELS: Dict[Tuple[str, str, int], ResponseModel] = {}


def calibrate(variant: str = "irq", fabric: str = "standard",
              wake_cycles: int = 45) -> ResponseModel:
    """The (memoised) response model for one firmware configuration."""
    # Validate before the lookup: ``True == 1`` would find the model
    # memoised for a one-cycle wake.
    RotConfig(fabric=fabric, wake_cycles=wake_cycles)
    key = (variant, fabric, wake_cycles)
    model = _MODELS.get(key)
    if model is None:
        model = ResponseModel(variant, fabric, wake_cycles)
        _MODELS[key] = model
    return model
