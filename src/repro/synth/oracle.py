"""The static expected-verdict oracle.

Given a synthesized model and its assembled image, the oracle derives —
without simulating a single instruction — the verdict every registered
CFI policy must reach on the program:

1. :func:`resolve_events` takes the model's planned event stream
   (:func:`repro.synth.ir.plan_events`), resolves every label through
   the image's symbol table, and **verifies each event against the
   encoding actually in the image** using :mod:`repro.isa.cflow`: the
   instruction at the planned site must classify to the planned kind,
   a direct call's immediate-encoded target must equal the planned
   target, and every call's fall-through must equal the planned pushed
   return address.  A mismatch means the emitter and the planner have
   drifted apart — the one failure mode that would make the oracle
   lie — and raises :class:`~repro.errors.SynthError` instead.
2. :func:`expected_verdicts` replays the resolved stream through the
   **rule families the policies themselves declare**
   (``oracle_rule`` in :mod:`repro.firmware.policies`): exact
   return-address matching, entry-point forward-edge sets, or the
   coarse call-preceded/function-entry pair.  No hand-maintained
   (victim × policy) table is involved: the verdict falls out of the
   program's own control-flow structure.

The acceptance contract (tested per scenario and in CI): for every
generated program and policy, the verdict predicted here equals the
verdict the simulators produce on every backend and engine.  Any
disagreement is a real bug in exactly one of generator, oracle, policy
or simulator — :mod:`repro.synth.minimize` shrinks it to a minimal
reproducer instead of letting it vanish into a failed assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SynthError
from repro.firmware.policies import (
    COMPOSITE_MEMBERS,
    ORACLE_COARSE_PAIRED,
    ORACLE_FORWARD_ENTRY,
    ORACLE_RETURN_EXACT,
    CoarseGrainedPolicy,
    CryptoReturnPolicy,
    ForwardEdgePolicy,
    ShadowStackPolicy,
)
from repro.isa.asm import Program
from repro.isa.cflow import CfKind, classify
from repro.isa.decode import decode
from repro.synth.ir import label_sets, plan_events

#: Policy name → static rule families, pulled from the policies' own
#: ``oracle_rule`` declarations.  (Names mirror the campaign registry;
#: the composite's rules derive from the same
#: :data:`~repro.firmware.policies.COMPOSITE_MEMBERS` list the campaign
#: runner instantiates, so the two cannot drift apart.)
POLICY_RULES: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "shadow-stack": (ShadowStackPolicy.oracle_rule,),
    "forward-edge": (ForwardEdgePolicy.oracle_rule,),
    "coarse": (CoarseGrainedPolicy.oracle_rule,),
    "composite": tuple(member.oracle_rule for member in COMPOSITE_MEMBERS),
    "crypto-return": (CryptoReturnPolicy.oracle_rule,),
}

#: Policies the oracle predicts (== the campaign's REFERENCE_POLICIES).
ORACLE_POLICIES = tuple(POLICY_RULES)

_PLAN_TO_CFKIND = {
    "call": CfKind.CALL,
    "return": CfKind.RETURN,
    "ijump": CfKind.INDIRECT_JUMP,
}


@dataclass(frozen=True)
class ResolvedEvent:
    """A planned event with every label resolved to an image address."""

    kind: str                 # "call" | "return" | "ijump"
    pc: int                   # address of the transfer instruction
    target: int               # destination address
    next: Optional[int]       # calls: the pushed return address
    indirect: bool            # register-indirect (jalr) encoding


def resolve_events(model: dict, program: Program) -> List[ResolvedEvent]:
    """Resolve the planned stream against the image and verify it.

    See the module docstring; this is the emit/plan cross-check that
    grounds the oracle in the actual encodings.
    """
    symbols = program.symbols
    resolved: List[ResolvedEvent] = []
    for event in plan_events(model):
        try:
            pc = symbols[event.site]
            target = symbols[event.target]
            next_address = symbols[event.next] if event.next else None
        except KeyError as exc:
            raise SynthError(
                f"planned event references missing label {exc.args[0]!r}"
            ) from None
        offset = pc - program.base
        word = int.from_bytes(program.data[offset:offset + 4], "little")
        insn = decode(word, xlen=64)
        kind = classify(insn)
        if kind is not _PLAN_TO_CFKIND[event.kind]:
            raise SynthError(
                f"planned {event.kind} at {event.site} ({pc:#x}) but the "
                f"image holds a {kind.value} ({insn.mnemonic})"
            )
        if event.indirect != (insn.mnemonic == "jalr"):
            raise SynthError(
                f"planned indirect={event.indirect} at {event.site} but the "
                f"image holds {insn.mnemonic}"
            )
        if insn.mnemonic == "jal" and pc + insn.imm != target:
            raise SynthError(
                f"direct call at {event.site} targets {pc + insn.imm:#x}, "
                f"plan says {target:#x}"
            )
        if event.kind == "call" and pc + 4 != next_address:
            raise SynthError(
                f"call at {event.site} pushes {pc + 4:#x}, "
                f"plan says {next_address:#x}"
            )
        resolved.append(ResolvedEvent(
            kind=event.kind, pc=pc, target=target,
            next=next_address, indirect=event.indirect,
        ))
    return resolved


# --------------------------------------------------------------------------
# Rule evaluation
# --------------------------------------------------------------------------

def _rule_return_exact(events: List[ResolvedEvent], entries: Set[int],
                       functions: Set[int]) -> bool:
    """Exact return-edge protection (shadow stack / MAC'd returns)."""
    stack: List[int] = []
    for event in events:
        if event.kind == "call":
            stack.append(event.next)
        elif event.kind == "return":
            if not stack or stack.pop() != event.target:
                return True
    return False


def _rule_forward_entry(events: List[ResolvedEvent], entries: Set[int],
                        functions: Set[int]) -> bool:
    """Fine-grained forward edges: indirect transfers must hit a
    registered entry point (direct-jal calls are statically verified)."""
    for event in events:
        if event.kind == "ijump" and event.target not in entries:
            return True
        if event.kind == "call" and event.indirect and event.target not in entries:
            return True
    return False


def _rule_coarse_paired(events: List[ResolvedEvent], entries: Set[int],
                        functions: Set[int]) -> bool:
    """Coarse CFI: returns to call-preceded addresses (accumulated in
    execution order, as the running policy accumulates them); indirect
    transfers to *some* function entry."""
    call_preceded: Set[int] = set()
    for event in events:
        if event.kind == "call":
            call_preceded.add(event.next)
            if event.indirect and event.target not in functions:
                return True
        elif event.kind == "return":
            if event.target not in call_preceded:
                return True
        elif event.kind == "ijump":
            if event.target not in functions:
                return True
    return False


_RULES = {
    ORACLE_RETURN_EXACT: _rule_return_exact,
    ORACLE_FORWARD_ENTRY: _rule_forward_entry,
    ORACLE_COARSE_PAIRED: _rule_coarse_paired,
}


def rule_fires(rule: str, events: List[ResolvedEvent], entries: Set[int],
               functions: Set[int]) -> bool:
    """Does ``rule`` flag a violation somewhere in ``events``?"""
    try:
        evaluate = _RULES[rule]
    except KeyError:
        raise SynthError(f"unknown oracle rule {rule!r}") from None
    return evaluate(events, entries, functions)


def expected_verdicts(model: dict, program: Program) -> Dict[str, bool]:
    """Expected detection verdict per policy for ``(model, program)``."""
    events = resolve_events(model, program)
    entry_names, function_names = label_sets(model)
    entries = {program.symbols[name] for name in entry_names}
    functions = {program.symbols[name] for name in function_names}
    return {
        policy: any(
            rule_fires(rule, events, entries, functions) for rule in rules
        )
        for policy, rules in POLICY_RULES.items()
    }
