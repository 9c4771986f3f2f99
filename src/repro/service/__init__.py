"""Campaign-as-a-service: persistent sweeps over the campaign engine.

Turns the batch campaign runner into a backend: sweep requests become
durable jobs in an fsync'd journal (:mod:`repro.service.jobs`), a
drain loop executes them incrementally against a content-addressed
result store keyed by spec hash × code fingerprint
(:mod:`repro.service.store`, :mod:`repro.service.queue`), and a
static HTML dashboard renders detection/latency trajectories across
code versions (:mod:`repro.service.dashboard`).

CLI: ``python -m repro.service {submit,serve,status,cancel,gc,dashboard}``.

The package re-exports nothing: names are imported from their
submodules, so a command loads only what it runs.
"""
