"""Campaign engine: declarative attack/policy scenario matrices.

The subsystem that turns single attack runs into sweeps: a declarative
:class:`~repro.campaign.spec.Scenario` spec with parameter-grid
expansion (:func:`~repro.campaign.spec.expand_grid`), a sharded
multi-process runner (:func:`~repro.campaign.runner.run_campaign`) with
deterministic per-scenario seeds, and an aggregator emitting the
detection matrix, latency distributions and overhead summaries as
JSON/CSV artifacts plus a text report.

CLI: ``python -m repro.campaign {list,run,report}``.
"""

from repro.campaign.aggregate import (
    finalize,
    render_report,
    summarize,
    to_csv,
    write_artifacts,
)
from repro.campaign.runner import RESULT_SCHEMA, run_campaign, run_scenario
from repro.campaign.spec import (
    MATRICES,
    POLICY_DETECTS,
    REFERENCE_POLICIES,
    VICTIMS,
    Scenario,
    VictimSpec,
    default_matrix,
    derive_seed,
    expand_grid,
    expected_detection,
    faults_matrix,
    faults_smoke_matrix,
    resolve_matrix,
    smoke_matrix,
    spec_key,
)

__all__ = [
    "MATRICES",
    "POLICY_DETECTS",
    "REFERENCE_POLICIES",
    "RESULT_SCHEMA",
    "Scenario",
    "VICTIMS",
    "VictimSpec",
    "default_matrix",
    "derive_seed",
    "expand_grid",
    "expected_detection",
    "faults_matrix",
    "faults_smoke_matrix",
    "finalize",
    "render_report",
    "resolve_matrix",
    "run_campaign",
    "run_scenario",
    "smoke_matrix",
    "spec_key",
    "summarize",
    "to_csv",
    "write_artifacts",
]
