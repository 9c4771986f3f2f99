"""The reproducer corpus: committed regression replay (tier-1) plus
save/load/triage mechanics."""

from pathlib import Path

import pytest

from repro.campaign.spec import Scenario
from repro.synth.corpus import (
    ENTRY_SCHEMA,
    entry_name,
    load_corpus,
    make_entry,
    replay_entry,
    save_entry,
)
from repro.synth.generator import generate
from repro.system.addresses import AddressMap

BASE = AddressMap().dram_base
CORPUS_DIR = Path(__file__).parent / "corpus"


class TestCommittedCorpus:
    """Every committed minimized reproducer must agree on all three
    verdict sources — recorded, oracle, simulated — on today's code.
    This is the regression net the synthesis ISSUE asks for: a
    disagreement that was once found and fixed can never come back
    silently."""

    def test_corpus_exists_and_loads(self):
        entries = load_corpus(CORPUS_DIR)
        assert entries, "committed corpus must not be empty"
        for path, entry in entries:
            assert entry["schema"] == ENTRY_SCHEMA, path

    @pytest.mark.parametrize(
        "path_entry", load_corpus(CORPUS_DIR),
        ids=[p.name for p, _ in load_corpus(CORPUS_DIR)],
    )
    def test_replay_agrees_everywhere(self, path_entry):
        path, entry = path_entry
        report = replay_entry(entry)
        for policy, verdicts in report.items():
            assert verdicts["recorded"] == verdicts["oracle"], (path, policy)
            assert verdicts["oracle"] == verdicts["simulated"], (path, policy)

    def test_corpus_file_names_are_content_derived(self):
        for path, entry in load_corpus(CORPUS_DIR):
            assert path.name == entry_name(entry)


class TestCorpusMechanics:
    def test_round_trip(self, tmp_path):
        model = generate("rop", 11)
        entry = make_entry(model, family="rop", seed=11,
                           note="round-trip test")
        path = save_entry(tmp_path, entry)
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0][0] == path
        assert loaded[0][1] == entry

    def test_replay_reports_every_recorded_policy(self):
        model = generate("jop", 5)
        entry = make_entry(model, family="jop", seed=5)
        report = replay_entry(entry)
        assert set(report) == set(entry["expected"])

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestTriage:
    def test_campaign_disagreement_is_minimized_to_disk(self, tmp_path,
                                                        monkeypatch):
        """The CLI-side triage path: a failing synth result becomes a
        reproducer file (forced here through a broken oracle rule)."""
        import repro.synth.oracle as oracle
        from repro.synth import clear_bundle_cache
        from repro.synth.triage import triage_results

        real_rule = oracle._RULES[oracle.ORACLE_FORWARD_ENTRY]

        def broken_rule(events, entries, functions):
            if any(e.kind == "ijump" for e in events):
                return True
            return real_rule(events, entries, functions)

        monkeypatch.setitem(oracle._RULES, oracle.ORACLE_FORWARD_ENTRY,
                            broken_rule)
        clear_bundle_cache()  # verdicts were cached with the honest rule
        try:
            # A benign seed whose program contains a dispatcher: the
            # broken oracle predicts a forward-edge violation the
            # simulator won't produce.
            from repro.synth import bundle_for_seed
            from repro.synth.ir import model_ops

            seed = next(
                s for s in range(40)
                if any(op["op"] == "dispatch" for op in model_ops(
                    bundle_for_seed("benign", s, BASE).model))
            )
            cell = Scenario(victim="synth-benign", policy="forward-edge",
                            seed=seed)
            result = {
                "name": f"reference/synth-benign/forward-edge/s{seed}",
                "victim": "synth-benign",
                "policy": "forward-edge",
                "backend": "reference",
                "seed": seed,
            }
            paths = triage_results([result], {cell.name: cell}, tmp_path,
                                   max_evals=120)
            assert len(paths) == 1
            assert paths[0].exists()
            entries = load_corpus(tmp_path)
            assert entries[0][1]["policy"] == "forward-edge"
            assert "minimized" in entries[0][1]["note"]
        finally:
            clear_bundle_cache()  # drop bundles built with the broken rule
