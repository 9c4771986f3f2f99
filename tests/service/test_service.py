"""SweepService end to end: incremental execution, resume, artifacts.

Small private matrices are registered in :data:`MATRICES` per test
(reference-backend cells — fast), so the incremental claims are
checked cell-exactly; one test runs the real ``smoke`` matrix to pin
the acceptance criterion on a registered matrix.
"""

import json
import multiprocessing
import multiprocessing.process

import pytest

from repro.campaign.spec import MATRICES, resolve_matrix
from repro.errors import ConfigError, JobStateError
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.service import queue
from repro.service.queue import SWEEP_NAME, SweepService


@pytest.fixture()
def tiny_matrix(monkeypatch):
    """A two-cell reference matrix registered as 'svc-tiny'."""
    monkeypatch.setitem(
        MATRICES, "svc-tiny",
        (dict(victim=["rop", "benign"], policy="shadow-stack"),),
    )
    return "svc-tiny"


@pytest.fixture()
def six_cell_matrix(monkeypatch):
    """A six-cell reference matrix registered as 'svc-six'."""
    monkeypatch.setitem(
        MATRICES, "svc-six",
        (dict(victim=["rop", "benign", "jop"],
              policy=["shadow-stack", "composite"]),),
    )
    return "svc-six"


def _count_starts(monkeypatch):
    """Count worker processes started from now on."""
    starts = {"n": 0}
    original = multiprocessing.process.BaseProcess.start

    def counted(self):
        starts["n"] += 1
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counted)
    return starts


def _service(tmp_path, version="v-test"):
    return SweepService(tmp_path / "svc", code_version=version)


@pytest.fixture(scope="module")
def smoke_round_trip(tmp_path_factory):
    """A cold then a warm job of the real ``smoke`` matrix: ``(service,
    cold sweep, warm sweep, store keys the warm serve read)``."""
    service = _service(tmp_path_factory.mktemp("smoke"))
    service.submit("smoke", workers=2)
    (cold,) = service.serve_once()
    service.submit("smoke", workers=2)
    get, reads = service.store.get, []

    def counted(key):
        reads.append(key)
        return get(key)

    service.store.get = counted
    (warm,) = service.serve_once()
    return service, cold, warm, reads


class TestSubmit:
    def test_unknown_matrix_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            _service(tmp_path).submit("no-such-matrix")

    def test_job_ids_are_sequential_and_durable(self, tmp_path,
                                                tiny_matrix):
        service = _service(tmp_path)
        assert service.submit(tiny_matrix).job_id == "job-0001"
        assert service.submit(tiny_matrix).job_id == "job-0002"
        # A fresh facade over the same root continues the sequence.
        rebuilt = _service(tmp_path)
        assert rebuilt.submit(tiny_matrix).job_id == "job-0003"
        assert list(rebuilt.jobs()) == ["job-0001", "job-0002", "job-0003"]

    def test_bad_knobs_rejected(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        with pytest.raises(ConfigError):
            service.submit(tiny_matrix, workers=0)


class TestIncremental:
    def test_cold_run_executes_everything(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        service.submit(tiny_matrix)
        (sweep,) = service.serve_once()
        assert sweep["state"] == DONE
        assert sweep["cells"] == 2
        assert sweep["hits"] == 0
        assert sweep["executed"] == 2

    def test_warm_rerun_executes_nothing_and_artifacts_match(
            self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        service.submit(tiny_matrix)
        service.serve_once()
        service.submit(tiny_matrix)
        (sweep,) = service.serve_once()
        assert sweep["executed"] == 0
        assert sweep["hits"] == sweep["cells"]
        cold = (service.job_dir("job-0001") / "campaign.json").read_bytes()
        warm = (service.job_dir("job-0002") / "campaign.json").read_bytes()
        assert cold == warm
        cold_csv = (service.job_dir("job-0001") / "campaign.csv").read_bytes()
        warm_csv = (service.job_dir("job-0002") / "campaign.csv").read_bytes()
        assert cold_csv == warm_csv

    def test_axis_flip_reexecutes_only_affected_cells(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setitem(MATRICES, "svc-grow",
                            (dict(victim="rop", policy="shadow-stack"),))
        service = _service(tmp_path)
        service.submit("svc-grow")
        (first,) = service.serve_once()
        assert first["executed"] == 1

        # Flip one axis into a sweep: the old cell hits, only the two
        # genuinely new cells (policy=composite) execute.
        monkeypatch.setitem(MATRICES, "svc-grow", (dict(
            victim="rop", policy=["shadow-stack", "composite"],
            backend=["reference", "cosim"],
        ),))
        service.submit("svc-grow")
        (second,) = service.serve_once()
        assert second["cells"] == len(resolve_matrix("svc-grow"))
        assert second["hits"] == 1
        assert second["executed"] == second["cells"] - 1

    def test_one_pool_per_job(self, tmp_path, six_cell_matrix, monkeypatch):
        """A job starts its workers once, and its warm re-run forks
        nothing and writes the same bytes."""
        starts = _count_starts(monkeypatch)
        service = _service(tmp_path)
        service.submit(six_cell_matrix, workers=2)
        (cold,) = service.serve_once()
        assert cold["state"] == DONE and cold["executed"] == 6
        assert starts["n"] == 2

        service.submit(six_cell_matrix, workers=2)
        (warm,) = service.serve_once()
        assert warm["executed"] == 0 and warm["hits"] == 6
        assert starts["n"] == 2
        a = (service.job_dir("job-0001") / "campaign.json").read_bytes()
        b = (service.job_dir("job-0002") / "campaign.json").read_bytes()
        assert a == b

    def test_code_version_change_invalidates(self, tmp_path, tiny_matrix):
        old = _service(tmp_path, version="v-old")
        old.submit(tiny_matrix)
        old.serve_once()
        new = _service(tmp_path, version="v-new")
        new.submit(tiny_matrix)
        (sweep,) = new.serve_once()
        assert sweep["hits"] == 0
        assert sweep["executed"] == 2
        assert sweep["invalidated"] == 2
        # gc drops the superseded version's objects.
        report = new.gc()
        assert report["removed_versions"] == ["v-old"]
        assert new.store.count() == 2

    def test_seed_scopes_the_store(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        service.submit(tiny_matrix, campaign_seed=0)
        service.serve_once()
        service.submit(tiny_matrix, campaign_seed=1)
        (sweep,) = service.serve_once()
        assert sweep["hits"] == 0 and sweep["executed"] == 2


class TestArtifacts:
    def test_payload_shape(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        service.serve_once()
        payload = json.loads(
            (service.job_dir(job.job_id) / "campaign.json").read_text())
        assert payload["schema"] == "repro.campaign/v1"
        assert payload["schema_version"] == 1
        assert payload["matrix"] == tiny_matrix
        assert payload["scenario_count"] == 2
        assert "summary" in payload
        # Run-specific fields must not leak into the payload: they
        # would break cold-vs-warm byte identity.
        assert "timing" not in payload
        assert "jobs" not in payload

    def test_sweep_accounting_artifact(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        service.serve_once()
        sweep = json.loads(
            (service.job_dir(job.job_id) / SWEEP_NAME).read_text())
        assert sweep["code_version"] == "v-test"
        assert sweep["cells"] == 2
        assert sweep["executed"] == 2

    def test_smoke_matrix_round_trip(self, smoke_round_trip):
        """Acceptance criterion, on the real registered smoke matrix."""
        service, cold, warm, _reads = smoke_round_trip
        assert cold["executed"] == cold["cells"]
        assert warm["executed"] == 0
        assert warm["hits"] == warm["cells"]
        a = (service.job_dir("job-0001") / "campaign.json").read_bytes()
        b = (service.job_dir("job-0002") / "campaign.json").read_bytes()
        assert a == b

    def test_warm_serve_reads_each_stored_cell_once(self, smoke_round_trip):
        """The warm job assembles its payload from the rows its store
        resolution already read: one ``get`` per cell, not two."""
        service, cold, warm, reads = smoke_round_trip
        assert len(reads) == len(set(reads)) == warm["cells"] == 21
        a = (service.job_dir("job-0001") / "campaign.json").read_bytes()
        b = (service.job_dir("job-0002") / "campaign.json").read_bytes()
        assert a == b


class TestLifecycle:
    def test_cancel_queued_job_skips_execution(self, tmp_path,
                                               tiny_matrix):
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        service.cancel(job.job_id)
        assert service.serve_once() == []
        assert service.jobs()[job.job_id].state == CANCELLED

    def test_cancel_mid_job_stops_at_the_next_check(
            self, tmp_path, six_cell_matrix, monkeypatch):
        """A cancel that lands while the job's pool is running stops it
        at the next cancel check: the cells stored so far stay, no
        artifacts are written, and no worker outlives the job."""
        monkeypatch.setattr(queue, "CANCEL_EVERY", 2)
        service = _service(tmp_path)
        job = service.submit(six_cell_matrix, workers=2)
        put = service.store.put
        puts = {"n": 0}

        def put_then_cancel(*args, **kwargs):
            put(*args, **kwargs)
            puts["n"] += 1
            if puts["n"] == 2:
                service.cancel(job.job_id)

        monkeypatch.setattr(service.store, "put", put_then_cancel)
        (sweep,) = service.serve_once()
        assert sweep["state"] == CANCELLED
        assert sweep["executed"] == 2
        assert service.jobs()[job.job_id].state == CANCELLED
        assert service.store.count() == 2
        assert not (service.job_dir(job.job_id) / "campaign.json").exists()
        assert multiprocessing.active_children() == []

    def test_cancel_done_job_raises(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        service.serve_once()
        with pytest.raises(JobStateError) as err:
            service.cancel(job.job_id)
        assert err.value.state == DONE

    def test_cancel_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobStateError):
            _service(tmp_path).cancel("job-9999")

    def test_orphaned_running_job_is_resumed(self, tmp_path, tiny_matrix):
        """A job left 'running' by a dead server re-runs to completion
        (completed cells hit the store, the rest execute)."""
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        # Simulate the dead server: journal says running, one of the
        # two cells already made it into the store.
        service.journal.transition(job.job_id, RUNNING)
        scenarios = resolve_matrix(tiny_matrix)
        from repro.campaign.runner import run_scenario

        done = scenarios[0]
        service.store.put(done, 0, run_scenario(done, 0))

        restarted = _service(tmp_path)
        (sweep,) = restarted.serve_once()
        assert sweep["state"] == DONE
        assert sweep["hits"] == 1
        assert sweep["executed"] == 1

    def test_worker_crash_marks_job_failed(self, tmp_path, tiny_matrix,
                                           faults):
        """A scenario that kills its worker is quarantined by the pool;
        the job completes as 'failed' with the crash row in artifacts."""
        scenarios = resolve_matrix(tiny_matrix)
        faults.crash(scenarios[0].name)
        service = _service(tmp_path)
        job = service.submit(tiny_matrix, workers=2)
        (sweep,) = service.serve_once()
        assert sweep["state"] == FAILED
        assert sweep["failed"] == 1
        assert sweep["executed"] == 1
        payload = json.loads(
            (service.job_dir(job.job_id) / "campaign.json").read_text())
        statuses = {row["name"]: row["status"]
                    for row in payload["scenarios"]}
        assert statuses[scenarios[0].name] == "crashed"
        # The failure was NOT stored: a re-submit retries the cell.
        faults.clear()
        service.submit(tiny_matrix, workers=2)
        sweeps = service.serve_once()
        (retry,) = [s for s in sweeps if s["job_id"] == "job-0002"]
        assert retry["state"] == DONE
        assert retry["executed"] == 1 and retry["hits"] == 1

    def test_serve_forever_bounded_by_idle_polls(self, tmp_path,
                                                 tiny_matrix):
        service = _service(tmp_path)
        service.submit(tiny_matrix)
        service.serve_forever(poll=0.01, max_idle_polls=2)
        assert service.jobs()["job-0001"].state == DONE

    def test_queued_job_waits_for_serve(self, tmp_path, tiny_matrix):
        service = _service(tmp_path)
        job = service.submit(tiny_matrix)
        assert service.jobs()[job.job_id].state == QUEUED
        assert not service.job_dir(job.job_id).exists()
