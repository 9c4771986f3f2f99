"""The shrinking pass: reductions, anchors, and the full disagreement
pipeline (forced through a deliberately broken oracle rule)."""

import pytest

from repro.campaign.spec import Scenario
from repro.errors import SynthError
from repro.synth import bundle
from repro.synth.generator import generate
from repro.synth.ir import check_model, model_ops, plan_events
from repro.synth.minimize import minimize_model, model_size
from repro.synth.verify import assemble_model, simulated_verdict
from repro.system.addresses import AddressMap

BASE = AddressMap().dram_base


class TestStructuralShrinking:
    def test_predicate_must_hold_initially(self):
        model = generate("benign", 1)
        with pytest.raises(SynthError, match="predicate does not hold"):
            minimize_model(model, lambda m: False)

    def test_trivial_predicate_shrinks_to_the_bone(self):
        """With an always-true predicate everything removable goes."""
        model = generate("benign", 3)
        minimal = minimize_model(model, lambda m: True)
        check_model(minimal)
        assert model_size(minimal) < model_size(model)
        # main plus nothing: every function, op and loop was removable.
        assert [f["name"] for f in minimal["functions"]] == ["main"]
        assert all(f["body"] == [] for f in minimal["functions"])

    def test_attack_anchors_survive(self):
        """The attack carrier op and its functions must never be cut."""
        for family in ("jop", "call-hijack", "ret-to-callsite"):
            model = generate(family, 2)
            minimal = minimize_model(model, lambda m: True)
            check_model(minimal)
            assert minimal["attack"] == model["attack"], family
            kinds = {op["op"] for op in model_ops(minimal)}
            carrier = {"jop": "dispatch", "call-hijack": "hijack",
                       "ret-to-callsite": "rtc"}[family]
            assert carrier in kinds, family

    def test_rop_victim_function_survives(self):
        model = generate("rop", 4)
        minimal = minimize_model(model, lambda m: True)
        names = {f["name"] for f in minimal["functions"]}
        assert model["attack"]["victim"] in names

    def test_structural_predicate_is_preserved(self):
        """Shrinking keeps exactly the property the predicate demands."""

        def has_loop(m):
            return any(op["op"] == "loop" for op in model_ops(m))

        model = next(
            m for m in (generate("benign", seed) for seed in range(30))
            if has_loop(m)
        )
        minimal = minimize_model(model, has_loop)
        assert has_loop(minimal)
        # ...and nothing else: a single empty loop in main is the floor.
        loops = [op for op in model_ops(minimal) if op["op"] == "loop"]
        assert len(loops) == 1 and loops[0]["count"] == 1

    def test_eval_budget_caps_work(self):
        model = generate("benign", 3)
        minimal = minimize_model(model, lambda m: True, max_evals=3)
        check_model(minimal)  # partial shrink is still valid


class TestDisagreementPipeline:
    """End-to-end: a (synthetically) wrong verdict is minimized to a
    small reproducer whose disagreement still reproduces."""

    def test_forced_disagreement_minimizes(self, monkeypatch):
        # Break the oracle's forward-edge rule so every benign dispatch
        # becomes a predicted violation the simulator won't show.
        import repro.synth.oracle as oracle

        real_rule = oracle._RULES[oracle.ORACLE_FORWARD_ENTRY]

        def broken_rule(events, entries, functions):
            if any(e.kind == "ijump" for e in events):
                return True
            return real_rule(events, entries, functions)

        monkeypatch.setitem(oracle._RULES, oracle.ORACLE_FORWARD_ENTRY,
                            broken_rule)

        # Find a benign model with a dispatcher (ijump events).
        model = None
        for seed in range(40):
            candidate = generate("benign", seed)
            if any(op["op"] == "dispatch" for op in model_ops(candidate)):
                model = candidate
                break
        assert model is not None

        def disagree(m):
            program = assemble_model(m, BASE)
            predicted = oracle.expected_verdicts(m, program)["forward-edge"]
            actual = simulated_verdict(
                m, Scenario(victim="synth-benign", policy="forward-edge"))
            return predicted != actual

        assert disagree(model), "broken rule must manifest"
        minimal = minimize_model(model, disagree, max_evals=150)
        check_model(minimal)
        assert disagree(minimal), "shrinking must preserve the bug"
        assert model_size(minimal) <= model_size(model)
        # The reproducer is minimal: one dispatcher left, little else.
        dispatches = [op for op in model_ops(minimal) if op["op"] == "dispatch"]
        assert len(dispatches) == 1
        assert len(plan_events(minimal)) <= 4
