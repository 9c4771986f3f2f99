"""Calibrated response model: firmware-measured mailbox handshake timing.

The policy host must answer doorbells with the *same* cycle timing the
RV32 shadow-stack firmware exhibits, or host-backed co-simulations
would drift from the firmware-backed ones.  Rather than hard-coding
latency constants, this module **measures** the real firmware on
:class:`repro.firmware.rig.FirmwareRig` — the rig the Table I harness
(:mod:`repro.eval.firmware_analysis`) classifies its steps on — and
condenses the results into a :class:`ResponseModel`:

* **busy curve** — ring→completion latency as a function of the
  doorbell's offset ``d`` from the previous completion, measured by
  sweeping ``d`` over a steady back-to-back chain.  The curve captures
  every service regime in one function: doorbell during the ISR
  epilogue (serviced at ``mret``), during the idle window, and after
  WFI sleep (wake latency included).  Its tail is periodic — constant
  for the IRQ firmware (asleep), poll-loop-periodic for the polling
  firmware — so one finite sweep extrapolates exactly to any offset.
* **boot tail curve** — the same function for a *first* doorbell,
  anchored at reset instead of a previous completion, measured from
  the cycle the firmware reaches its steady idle point.
* **service deltas** — per-event costs: the firmware's check latency
  differs by the commit log's parse path (JAL vs JALR call, return via
  ``ra`` vs ``t0``, indirect jump, non-transfer) and its outcome (push,
  pop-and-match, mismatch, underflow).  Each path is probed from the
  identical arrival phase; the model stores its latency delta against
  the reference path (a ``jal ra`` call).
* **shadow sessions** — a first doorbell that lands *before* the
  firmware's steady idle point (the host program's first control-flow
  event often beats the RoT boot sequence) is answered by a private
  firmware rig replaying the exact ring sequence, until the run's first
  steady-length gap hands over to the curves.  This keeps the boot
  epoch exact by construction instead of modelling every boot phase.

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

def _measure_busy_curve(new_rig: Callable[[], FirmwareRig], outcome: str,
                        label: str) -> ResponseCurve:
    """Sweep ring offsets over a steady back-to-back chain.

    For the ``ok`` curve each probe's completion anchors the next
    probe; for the ``bad`` curve every offset is anchored at a
    fresh return-mismatch completion (the post-violation epilogue
    could, in principle, differ from the benign one).
    """
    rig = new_rig()
    settle = rig.settle()
    probe = call_log(1)
    if outcome == "ok":
        anchor = rig.response(settle + 8, probe)

        def sample(offset: int) -> int:
            nonlocal anchor
            ring = anchor + offset
            respond = rig.response(ring, probe)
            anchor = respond
            return respond - ring

    else:
        state = {"anchor": rig.response(settle + 8, probe)}

        def sample(offset: int) -> int:
            prev = rig.response(state["anchor"] + 64, call_log(1))
            bad = rig.response(prev + 64, ret_log(1, target=PROBE_TARGET))
            ring = bad + offset
            respond = rig.response(ring, probe)
            state["anchor"] = respond
            return respond - ring

    values, period = _collect_periodic(sample, f"busy/{outcome} of {label}")
    return ResponseCurve(start=0, values=tuple(values), period=period)


def _measure_boot_tail(new_rig: Callable[[], FirmwareRig], busy_period: int,
                       label: str) -> ResponseCurve:
    """First-doorbell latency from the steady idle point onward.

    One fresh rig per sample (boot happens once per rig); the tail
    period is confirmed independently, but with the busy curve's
    period already known the sweep converges quickly.
    """
    probe = call_log(1)
    start = new_rig().settle()

    def sample(offset: int) -> int:
        rig = new_rig()
        ring = start + offset
        return rig.response(ring, probe) - ring

    values, period = _collect_periodic(
        sample, f"boot of {label}", initial=busy_period + _CONFIRM + 4,
    )
    return ResponseCurve(start=start, values=tuple(values), period=period)


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
    digest, both busy curves (``ok`` and ``bad``), the boot tail, every
    service delta in probe order and ``bad_bias``.
    """
    label = table_key(variant, fabric, wake_cycles)

    def new_rig() -> FirmwareRig:
        return FirmwareRig(variant, fabric, wake_cycles)

    busy = {outcome: _measure_busy_curve(new_rig, outcome, label)
            for outcome in ("ok", "bad")}
    boot_tail = _measure_boot_tail(new_rig, busy["ok"].period, label)
    deltas = _measure_deltas(new_rig, busy["ok"], label)
    return {
        "firmware": firmware_digest(variant),
        "busy": {outcome: curve.table() for outcome, curve in busy.items()},
        "boot_tail": boot_tail.table(),
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


#: Node cap of the boot-chain trie, per model.  Bounds memory only —
#: chains past the cap fall back to the replay rig, never to an
#: approximation.  Each trie node stores one (ring, log) step exactly
#: once, shared across every chain that walks the same prefix.
_CHAIN_NODE_CAP = 65536

class _ChainNode:
    """One step of the boot-chain trie: the firmware's completion cycle
    for the chain prefix ending here, plus the known continuations."""

    __slots__ = ("respond", "children")

    def __init__(self):
        self.respond: Optional[int] = None
        self.children: Dict[Tuple[int, bytes], "_ChainNode"] = {}


class ShadowSession:
    """Exact boot-epoch service: replay-calibrated, rig-backed on demand.

    Used while the run is inside its boot epoch (first doorbell before
    the firmware's steady idle point) where the curve model's anchors
    do not apply.  ``drift`` absorbs policy surcharges (e.g. the
    crypto policy's MAC cycles): the rig is rung at host time minus
    drift so its internal inter-arrival offsets match what the
    firmware would have observed.

    **Boot-chain table:** the firmware's completion time for the n-th
    doorbell of a boot epoch is a pure function of the rig-time ring
    chain so far — ``((ring₀, log₀), …, (ringₙ, logₙ))`` — so every
    answer a rig ever produces is memoised in the model's boot-chain
    *trie*, one node per chain step (prefixes shared, O(1) lookup per
    ring).  A later run (or a later scenario of the same campaign
    shard) whose doorbells walk a known chain is answered straight from
    the trie: the Ibex-speed replay rig is not even *built* until the
    first unknown prefix appears, and runs whose doorbells stay
    back-to-back to the end retire it entirely.  On a miss the rig is
    constructed lazily and fast-forwarded through the already-answered
    prefix, so cached and uncached sessions are cycle-identical by
    construction.
    """

    def __init__(self, model: "ResponseModel"):
        self._model = model
        self._rig: Optional[FirmwareRig] = None
        self.drift = 0
        self._last_rig_respond: Optional[int] = None
        self._chain: List[Tuple[int, bytes]] = []
        #: Trie cursor: children of the chain prefix walked so far
        #: (``None`` once off the trie — the node cap refused growth).
        self._cursor: Optional[_ChainNode] = model._chain_root

    def _ensure_rig(self) -> FirmwareRig:
        """The replay rig, built on first miss and caught up through
        every ring already answered from the chain table."""
        if self._rig is None:
            self._model.shadow_rig_builds += 1
            self._rig = self._model._new_rig()
            for ring, packed in self._chain[:-1]:
                self._rig.response(ring, CommitLog.unpack(packed))
        return self._rig

    def response(self, ring: int, log: CommitLog) -> int:
        rig_ring = ring - self.drift
        node: Optional[_ChainNode] = None
        if self._cursor is not None:
            step = (rig_ring, log.pack())
            if self._rig is None:
                # The prefix is only ever replayed to catch a lazily
                # built rig up; once one exists the history is dead.
                self._chain.append(step)
            node = self._cursor.children.get(step)
            if node is None and self._model._chain_nodes < _CHAIN_NODE_CAP:
                node = _ChainNode()
                self._cursor.children[step] = node
                self._model._chain_nodes += 1
            self._cursor = node  # None once the node cap refuses growth
        if node is not None and node.respond is not None:
            respond = node.respond
        else:
            respond = self._ensure_rig().response(rig_ring, log)
            if node is not None:
                node.respond = respond
        self._last_rig_respond = respond
        return respond + self.drift

    def note_host_respond(self, host_respond: int) -> None:
        """Record the host's actual (surcharged) respond time."""
        if self._last_rig_respond is None:
            raise SimulationError(
                "shadow session asked to note a respond before any ring"
            )
        self.drift = host_respond - self._last_rig_respond


class ResponseModel:
    """The calibrated doorbell→completion timing of one firmware config.

    Query :meth:`steady_response` / :meth:`boot_response` for curve-mode
    answers and :meth:`open_shadow` for boot-epoch sessions; see the
    module docstring for the regimes.
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
        #: Boot-chain trie root: rig-time ring chains → completion
        #: cycles, one node per step.  Shared by every shadow session of
        #: this model, i.e. per firmware config per process — exactly
        #: the scope at which campaign shards repeat boot chains.
        self._chain_root = _ChainNode()
        self._chain_nodes = 0
        #: Replay rigs actually constructed by shadow sessions (the
        #: boot-chain table's effectiveness metric; see the tests).
        self.shadow_rig_builds = 0
        tables = (_shipped_tables(variant, fabric, wake_cycles)
                  or measure_tables(variant, fabric, wake_cycles))
        self._busy = {outcome: ResponseCurve.from_table(curve)
                      for outcome, curve in tables["busy"].items()}
        self.boot_tail = ResponseCurve.from_table(tables["boot_tail"])
        self._deltas: Dict[Tuple[str, str], int] = {
            tuple(key.split("/")): delta
            for key, delta in tables["deltas"].items()
        }
        self.bad_bias: int = tables["bad_bias"]

    def _new_rig(self) -> FirmwareRig:
        return FirmwareRig(self.variant, self.fabric, self.wake_cycles)

    # -- queries -------------------------------------------------------------

    @property
    def boot_tail_start(self) -> int:
        """First ring cycle the boot tail curve covers (the firmware's
        steady idle point); earlier first rings need a shadow session."""
        return self.boot_tail.start

    @property
    def steady_threshold(self) -> int:
        """Ring offset from the previous completion beyond which the
        firmware is provably back in its steady regime — the handoff
        bound from shadow sessions to curves."""
        return len(self._busy["ok"].values)

    def busy_curve(self, outcome: str) -> ResponseCurve:
        """The busy curve anchored at an ``ok`` or a ``bad`` completion."""
        return self._busy[outcome]

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

    def steady_response(self, ring: int, prev_respond: int,
                        prev_outcome: str, path_key: Tuple[str, str]) -> int:
        """Completion cycle for a doorbell at ``ring``, anchored at the
        previous completion."""
        offset = ring - prev_respond
        curve = self.busy_curve(prev_outcome)
        return ring + curve.latency(offset) + self.service_delta(path_key)

    def boot_response(self, ring: int, path_key: Tuple[str, str]) -> int:
        """Completion cycle for a run's *first* doorbell at ``ring``
        (which must be at or past :attr:`boot_tail_start`)."""
        return ring + self.boot_tail.latency(ring) + self.service_delta(path_key)

    def open_shadow(self) -> ShadowSession:
        return ShadowSession(self)


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
