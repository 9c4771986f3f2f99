"""Campaign engine: declarative attack/policy scenario matrices.

The subsystem that turns single attack runs into sweeps: a declarative
:class:`~repro.campaign.spec.Scenario` spec with parameter-grid
expansion (:func:`~repro.campaign.spec.expand_grid`), a sharded
multi-process runner (:func:`~repro.campaign.pool.run_campaign`) with
deterministic per-scenario seeds, and an aggregator emitting the
detection matrix, latency distributions and overhead summaries as
JSON/CSV artifacts plus a text report.

CLI: ``python -m repro.campaign {list,run,report}``.

The package re-exports nothing: names are imported from their
submodules, so a command loads only what it runs.
"""
