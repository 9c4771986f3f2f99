"""CLI and artifact-schema tests for ``python -m repro.campaign``."""

import csv
import json

import pytest

from repro.campaign.aggregate import CSV_FIELDS, render_report, to_csv, write_artifacts
from repro.campaign.cli import main
from repro.campaign.pool import RESULT_SCHEMA, run_campaign
from repro.campaign.spec import expand_grid


@pytest.fixture(scope="module")
def payload():
    from repro.campaign.aggregate import finalize

    matrix = expand_grid(
        victim=["benign", "rop", "jop"],
        policy=["shadow-stack", "composite"],
    )
    return finalize(run_campaign(matrix, jobs=1, campaign_seed=11))


class TestArtifacts:
    def test_json_schema(self, payload, tmp_path):
        paths = write_artifacts(payload, tmp_path)
        data = json.loads(paths["json"].read_text())
        assert data["schema"] == RESULT_SCHEMA
        assert data["scenario_count"] == len(data["scenarios"])
        for result in data["scenarios"]:
            for key in ("name", "victim", "policy", "backend", "detected",
                        "expected_detected", "expectation_met", "cycles"):
                assert key in result
        assert "counts" in data["summary"]
        assert "detection_matrix" in data["summary"]

    def test_csv_round_trip(self, payload, tmp_path):
        paths = write_artifacts(payload, tmp_path)
        with paths["csv"].open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == payload["scenario_count"]
        assert set(rows[0]) == set(CSV_FIELDS)

    def test_csv_text_has_header(self, payload):
        text = to_csv(payload["scenarios"])
        assert text.splitlines()[0].startswith("name,backend,victim")


class TestReport:
    def test_report_mentions_policies_and_totals(self, payload):
        report = render_report(payload)
        assert "shadow-stack" in report
        assert "composite" in report
        assert "FP=0" in report

    def test_report_renders_from_saved_artifact(self, payload, tmp_path):
        paths = write_artifacts(payload, tmp_path)
        saved = json.loads(paths["json"].read_text())
        assert render_report(saved) == render_report(payload)


class TestSchemaStamp:
    def test_schema_version_stamped(self, payload):
        from repro.campaign.aggregate import SCHEMA_VERSION

        assert payload["schema_version"] == SCHEMA_VERSION == 1

    def test_stamp_survives_artifacts(self, payload, tmp_path):
        paths = write_artifacts(payload, tmp_path)
        data = json.loads(paths["json"].read_text())
        assert data["schema_version"] == 1


class TestCompare:
    @pytest.fixture(scope="class")
    def payload_b(self):
        from repro.campaign.aggregate import finalize

        matrix = expand_grid(
            victim=["benign", "rop", "jop", "call-hijack"],
            policy=["shadow-stack", "composite"],
        )
        return finalize(run_campaign(matrix, jobs=1, campaign_seed=11))

    def test_self_comparison_is_quiet(self, payload):
        from repro.campaign.aggregate import compare_payloads

        comparison = compare_payloads(payload, payload)
        assert comparison["verdict_flips"] == []
        assert comparison["detection_rate_delta"] == {}
        assert comparison["scenarios"]["added"] == []
        assert comparison["scenarios"]["removed"] == []

    def test_matrix_growth_reported_as_added(self, payload, payload_b):
        from repro.campaign.aggregate import compare_payloads

        comparison = compare_payloads(payload, payload_b)
        assert any("call-hijack" in name
                   for name in comparison["scenarios"]["added"])
        assert comparison["verdict_flips"] == []

    def test_verdict_flip_detected_and_rendered(self, payload):
        import copy

        from repro.campaign.aggregate import compare_payloads, render_comparison

        mutated = copy.deepcopy(payload)
        flipped = mutated["scenarios"][0]
        flipped["detected"] = not flipped["detected"]
        comparison = compare_payloads(payload, mutated)
        assert len(comparison["verdict_flips"]) == 1
        text = render_comparison(comparison)
        assert flipped["name"] in text
        assert "REGRESSION" in text or "ok" in text

    def test_schema_version_mismatch_refused(self, payload):
        import copy

        from repro.campaign.aggregate import compare_payloads

        stale = copy.deepcopy(payload)
        stale["schema_version"] = 0
        with pytest.raises(ValueError, match="schema_version"):
            compare_payloads(stale, payload)

    def test_cli_compare_command(self, payload, tmp_path, capsys):
        paths_a = write_artifacts(payload, tmp_path / "a")
        paths_b = write_artifacts(payload, tmp_path / "b")
        code = main(["report", "--compare", str(paths_a["json"]),
                     str(paths_b["json"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign comparison" in out
        assert "verdict flips: none" in out


class TestCompareDisjointSets:
    """``report --compare`` across campaigns whose scenario sets only
    partially overlap — or not at all.  Comparison pairs by name, so
    unmatched cells must land in added/removed (never crash, never
    count as flips)."""

    @pytest.fixture(scope="class")
    def payload_disjoint(self):
        from repro.campaign.aggregate import finalize

        matrix = expand_grid(
            victim=["fwd-jump", "indirect-clean"],
            policy=["forward-edge"],
        )
        return finalize(run_campaign(matrix, jobs=1, campaign_seed=11))

    def test_fully_disjoint_sets_compare_cleanly(self, payload,
                                                 payload_disjoint):
        from repro.campaign.aggregate import compare_payloads

        comparison = compare_payloads(payload, payload_disjoint)
        assert comparison["scenarios"]["common"] == 0
        assert len(comparison["scenarios"]["removed"]) == len(
            payload["scenarios"]
        )
        assert len(comparison["scenarios"]["added"]) == len(
            payload_disjoint["scenarios"]
        )
        assert comparison["verdict_flips"] == []
        assert comparison["latency"]["per_scenario_changes"] == []
        # No policy exists on both sides: no rate deltas, not a crash.
        assert comparison["detection_rate_delta"] == {}

    def test_fully_disjoint_sets_render(self, payload, payload_disjoint):
        from repro.campaign.aggregate import compare_payloads, render_comparison

        text = render_comparison(compare_payloads(payload, payload_disjoint))
        assert "0 common" in text
        assert "verdict flips: none" in text

    def test_shrunk_matrix_reported_as_removed(self, payload):
        from repro.campaign.aggregate import compare_payloads, finalize

        matrix = expand_grid(victim=["benign", "rop"],
                             policy=["shadow-stack"])
        subset = finalize(run_campaign(matrix, jobs=1, campaign_seed=11))
        comparison = compare_payloads(payload, subset)
        assert comparison["scenarios"]["common"] == len(subset["scenarios"])
        assert comparison["scenarios"]["added"] == []
        assert len(comparison["scenarios"]["removed"]) == (
            len(payload["scenarios"]) - len(subset["scenarios"])
        )
        assert comparison["verdict_flips"] == []

    def test_cli_compare_tolerates_disjoint_artifacts(
            self, payload, payload_disjoint, tmp_path, capsys):
        paths_a = write_artifacts(payload, tmp_path / "a")
        paths_b = write_artifacts(payload_disjoint, tmp_path / "b")
        code = main(["report", "--compare", str(paths_a["json"]),
                     str(paths_b["json"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 common" in out


class TestCli:
    def test_list(self, capsys):
        assert main(["list", "--matrix", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "scenarios in matrix 'smoke'" in out
        assert "expected=DETECT" in out

    def test_list_json(self, capsys):
        """Machine-readable listing: canonical spec, derived seed and
        stable spec hash per cell, so external tooling can enumerate
        the matrix without importing internals."""
        from repro.campaign.spec import derive_seed, resolve_matrix, spec_key

        assert main(["list", "--matrix", "smoke", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        scenarios = {s.name: s for s in resolve_matrix("smoke")}
        assert {entry["name"] for entry in listing} == set(scenarios)
        for entry in listing:
            scenario = scenarios[entry["name"]]
            assert entry["matrix"] == "smoke"
            assert entry["spec"] == json.loads(
                json.dumps(scenario.canonical()))
            assert entry["seed"] == derive_seed(0, scenario)
            assert entry["spec_hash"] == spec_key(scenario, 0)

    def test_list_json_seed_changes_hashes(self, capsys):
        main(["list", "--matrix", "smoke", "--json"])
        base = json.loads(capsys.readouterr().out)
        main(["list", "--matrix", "smoke", "--json", "--seed", "7"])
        seeded = json.loads(capsys.readouterr().out)
        assert all(a["spec_hash"] != b["spec_hash"]
                   for a, b in zip(base, seeded))

    def test_run_rejects_unknown_sim_mode(self, capsys):
        """``--sim-mode`` takes exactly the simulator's engines: anything
        else, the removed event-driven engine included, is argparse's
        usage error (exit 2), before any work."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--matrix", "smoke", "--sim-mode", 'event-driven'])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("python -m repro.campaign run: error: ")
        assert "invalid choice: 'event-driven'" in last

    def test_run_synth_smoke(self, tmp_path, capsys):
        """The synth tier end-to-end through the CLI: every generated
        scenario's simulated verdict matches the oracle (exit 0, no
        reproducers written)."""
        code = main(["run", "--matrix", "synth-smoke", "--jobs", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "disagreed with the static oracle" not in out
        assert not (tmp_path / "reproducers").exists()
        data = json.loads((tmp_path / "campaign.json").read_text())
        assert data["summary"]["counts"]["expectations_missed"] == 0
        sources = {r["expected_source"] for r in data["scenarios"]}
        assert sources == {"oracle"}

    def test_run_smoke_writes_artifacts(self, tmp_path, capsys):
        code = main(["run", "--matrix", "smoke", "--jobs", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "campaign.json").exists()
        assert (tmp_path / "campaign.csv").exists()
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        data = json.loads((tmp_path / "campaign.json").read_text())
        assert len(lines) == data["scenario_count"]
        assert data["summary"]["counts"]["false_positives"] == 0
        assert "detection matrix" in capsys.readouterr().out.lower()

    def test_report_command(self, tmp_path, capsys):
        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--artifact", str(tmp_path / "campaign.json")]) == 0
        assert "Campaign detection matrix" in capsys.readouterr().out
