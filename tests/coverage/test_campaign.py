"""Campaign wiring of the coverage subsystem: feature-grown victims,
coverage columns on scenario rows, the typed unknown-matrix error, and
the feature-registry pin."""

import pytest

from repro.campaign.aggregate import CSV_FIELDS, finalize, render_report
from repro.campaign.cli import main as campaign_main
from repro.campaign.runner import run_campaign
from repro.campaign.spec import (
    COVERAGE_FEATURES,
    COVERAGE_VICTIMS,
    MATRICES,
    SYNTH_VICTIMS,
    VICTIMS,
    resolve_matrix,
)
from repro.errors import ConfigError
from repro.synth.generator import FEATURES


class TestRegistry:
    def test_coverage_features_pin_the_generator_registry(self):
        """The spec module keeps a literal copy (no synth import at
        module scope); it must track the generator's registry."""
        assert COVERAGE_FEATURES == FEATURES

    def test_coverage_victims_carry_features(self):
        assert COVERAGE_VICTIMS
        for name in COVERAGE_VICTIMS:
            spec = VICTIMS[name]
            assert spec.synthetic
            assert spec.synth_features == COVERAGE_FEATURES

    def test_plain_synth_victims_unchanged(self):
        """cov-* victims must not leak into the existing synth
        matrices: their scenario sets are frozen artifacts."""
        assert SYNTH_VICTIMS
        assert all(not VICTIMS[name].synth_features
                   for name in SYNTH_VICTIMS)

    def test_coverage_matrices_registered(self):
        assert {"coverage", "coverage-smoke"} <= set(MATRICES)
        assert len(resolve_matrix("coverage-smoke")) == 40
        assert len(resolve_matrix("coverage")) > 200

    def test_unknown_matrix_is_a_typed_error_listing_the_registry(self):
        with pytest.raises(ConfigError) as excinfo:
            resolve_matrix("no-such-matrix")
        message = str(excinfo.value)
        for name in MATRICES:
            assert name in message


class TestCli:
    def test_unknown_matrix_exits_2_with_one_line(self, capsys):
        code = campaign_main(["run", "--matrix", "no-such-matrix",
                             "--no-artifacts"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "coverage" in captured.err

    def test_list_rejects_unknown_matrix_the_same_way(self, capsys):
        assert campaign_main(["list", "--matrix", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRunnerCoverage:
    @pytest.fixture(scope="class")
    def payload(self):
        scenarios = [s for s in resolve_matrix("coverage-smoke")
                     if s.policy == "shadow-stack"][:4]
        assert scenarios
        return finalize(run_campaign(scenarios, jobs=1))

    def test_rows_carry_coverage_columns(self, payload):
        for row in payload["scenarios"]:
            assert row["expectation_met"], row["name"]
            assert row["coverage_digest"] is not None
            assert row["coverage_points"] == len(row["coverage"]["points"]) > 0

    def test_feature_growth_reaches_the_simulation(self, payload):
        """cov-* scenarios execute recursion/tailcall constructs: their
        shapes must include non-baseline points on those axes."""
        points = set()
        for row in payload["scenarios"]:
            points.update(row["coverage"]["points"])
        assert any(p.startswith("recursion:") and not p.endswith(":none")
                   for p in points), sorted(points)
        assert any(p.startswith("tailcall:") and p != "tailcall:0"
                   for p in points), sorted(points)

    def test_summary_and_report_fold_coverage(self, payload):
        coverage = payload["summary"]["coverage"]
        assert coverage["scenarios"] == len(payload["scenarios"])
        assert coverage["distinct_points"] > 0
        assert coverage["distinct_shapes"] > 0
        assert coverage["points_by_axis"].get("recursion")
        assert "coverage:" in render_report(payload)

    def test_csv_schema_has_coverage_columns(self):
        assert "coverage_points" in CSV_FIELDS
        assert "coverage_digest" in CSV_FIELDS
