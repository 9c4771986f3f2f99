"""Hardened campaign runner: crashes, timeouts, retries, resume.

Failure injection uses the ``faults`` fixture (``tests/conftest.py``):
it patches the runner's ``run_scenario`` before the pool forks, so a
*real* worker process dies, hangs or flakes mid-sweep, and these tests
exercise exactly the code paths a production campaign hits when a
worker segfaults, hangs or flakes.
"""

import dataclasses
import json
import multiprocessing
import multiprocessing.process
import os
import threading

import pytest

from repro.campaign.cli import main
from repro.campaign.pool import run_campaign
from repro.campaign.spec import MATRICES, expand_grid
from repro.durable import read_log
from repro.errors import ConfigError, ScenarioTimeout, WorkerCrash


@pytest.fixture
def matrix():
    # Reference-backend scenarios: fast enough to run dozens of times.
    return expand_grid(
        victim=["benign", "rop", "jop"],
        policy=["shadow-stack"],
    )


def _run_recording(matrix, **kwargs):
    """``run_campaign`` at ``jobs=2``; also returns every streamed row."""
    streamed = []
    payload = run_campaign(matrix, jobs=2, campaign_seed=3,
                           stream=streamed.append, **kwargs)
    return payload, streamed


def _assert_only_culprit_failed(matrix, payload, streamed, culprit, status):
    """Exactly the culprit's row is not ``ok``; every other cell ran to
    its expected verdict; no scenario was recorded twice."""
    names = sorted(scenario.name for scenario in matrix)
    assert sorted(row["name"] for row in streamed) == names
    assert [row["name"] for row in payload["scenarios"]] == names
    failed = [(row["name"], row["status"]) for row in payload["scenarios"]
              if row["status"] != "ok"]
    assert failed == [(culprit, status)]
    for row in payload["scenarios"]:
        if row["name"] != culprit:
            assert row["expectation_met"] is True


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the counter."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPool:
    def test_empty_scenario_list_starts_no_worker(self, monkeypatch):
        starts = _count_calls(monkeypatch, multiprocessing.process.BaseProcess,
                              "start")
        payload = run_campaign([], jobs=2)
        assert payload["scenario_count"] == 0
        assert starts["n"] == 0

    def test_run_leaves_no_child_or_thread(self, matrix):
        threads = threading.enumerate()
        payload = run_campaign(matrix, jobs=2)
        assert payload["scenario_count"] == len(matrix)
        assert multiprocessing.active_children() == []
        assert threading.enumerate() == threads

    def test_stream_exception_tears_the_pool_down(self, matrix):
        class Stop(Exception):
            pass

        def stream(_result):
            raise Stop()

        threads = threading.enumerate()
        with pytest.raises(Stop):
            run_campaign(matrix, jobs=2, stream=stream)
        assert multiprocessing.active_children() == []
        assert threading.enumerate() == threads


class TestErrorTypes:
    def test_scenario_timeout_carries_context(self):
        err = ScenarioTimeout("ref/rop", 2.5)
        assert err.scenario_name == "ref/rop"
        assert err.seconds == 2.5
        assert "2.5" in str(err)

    def test_worker_crash_carries_exitcode(self):
        err = WorkerCrash("ref/rop", exitcode=-9)
        assert err.scenario_name == "ref/rop"
        assert err.exitcode == -9
        assert "ref/rop" in str(err)


class TestArgumentValidation:
    def test_jobs_below_one_rejected(self, matrix):
        with pytest.raises(ConfigError, match="jobs"):
            run_campaign(matrix, jobs=0)

    def test_negative_retries_rejected(self, matrix):
        with pytest.raises(ConfigError, match="retries"):
            run_campaign(matrix, retries=-1)

    def test_negative_backoff_rejected(self, matrix):
        with pytest.raises(ConfigError, match="backoff"):
            run_campaign(matrix, backoff=-0.1)

    def test_cli_rejects_jobs_zero(self):
        with pytest.raises(SystemExit):
            main(["run", "--matrix", "smoke", "--jobs", "0"])

    def test_cli_rejects_non_integer_jobs(self):
        with pytest.raises(SystemExit):
            main(["run", "--matrix", "smoke", "--jobs", "two"])

    def test_cli_resume_conflicts_with_no_artifacts(self, tmp_path, capsys):
        code = main(["run", "--matrix", "smoke", "--resume", str(tmp_path),
                     "--no-artifacts"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "no-artifacts" in captured.err


class TestWorkerCrashQuarantine:
    # Two workers on three cells: whatever the dispatch order, some
    # culprit has a cell queued behind it, and some worker dies right
    # after sending its previous row.
    @pytest.mark.parametrize("culprit", range(3))
    def test_crashed_scenario_recorded_sweep_survives(self, matrix, faults,
                                                      culprit):
        victim_name = matrix[culprit].name
        faults.crash(victim_name)
        payload, streamed = _run_recording(matrix)
        _assert_only_culprit_failed(matrix, payload, streamed, victim_name,
                                    "crashed")
        crashed = {r["name"]: r for r in payload["scenarios"]}[victim_name]
        assert crashed["detected"] is None
        assert crashed["expectation_met"] is None
        assert "WorkerCrash" in crashed["error"] or victim_name in crashed["error"]

    def test_crashed_rows_excluded_from_detection_counts(self, matrix,
                                                         faults):
        from repro.campaign.aggregate import finalize

        faults.crash(matrix[0].name)
        payload = finalize(run_campaign(matrix, jobs=2, campaign_seed=3))
        summary = payload["summary"]
        assert summary["incomplete"] == {"crashed": 1}
        total_classified = sum(
            summary["counts"][k] for k in
            ("true_positives", "false_positives",
             "true_negatives", "false_negatives")
        )
        assert total_classified == len(matrix) - 1


class TestScenarioTimeout:
    @pytest.mark.parametrize("culprit", range(3))
    def test_hung_worker_killed_and_recorded(self, matrix, faults, culprit):
        hung_name = matrix[culprit].name
        faults.hang(hung_name)
        payload, streamed = _run_recording(matrix, timeout=1.0)
        _assert_only_culprit_failed(matrix, payload, streamed, hung_name,
                                    "timeout")
        hung = {r["name"]: r for r in payload["scenarios"]}[hung_name]
        assert "1.0" in hung["error"]


class TestRetries:
    def _flaky(self, faults, tmp_path, name):
        marker_dir = tmp_path / "flaky"
        marker_dir.mkdir()
        faults.flaky(name, marker_dir)
        return marker_dir

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_flaky_scenario_recovers_with_retry(self, matrix, faults,
                                                tmp_path, jobs):
        marker_dir = self._flaky(faults, tmp_path, matrix[2].name)
        payload = run_campaign(matrix, jobs=jobs, campaign_seed=3,
                               retries=1, backoff=0.01)
        assert all(r["status"] == "ok" for r in payload["scenarios"])
        assert all(r["expectation_met"] for r in payload["scenarios"])
        # First attempt failed, second succeeded.
        assert len(list(marker_dir.iterdir())) == 2

    def test_exhausted_retries_record_error_status(self, matrix, faults,
                                                   tmp_path):
        self._flaky(faults, tmp_path, matrix[2].name)
        payload = run_campaign(matrix, jobs=1, campaign_seed=3, retries=0)
        by_name = {r["name"]: r for r in payload["scenarios"]}
        failed = by_name[matrix[2].name]
        assert failed["status"] == "error"
        assert "SimulationError" in failed["error"]
        assert sum(r["status"] == "ok" for r in payload["scenarios"]) == 2

    def test_parallel_equals_serial_with_failures(self, matrix, faults,
                                                  tmp_path):
        faults.flaky(matrix[1].name, tmp_path)
        serial = run_campaign(matrix, jobs=1, campaign_seed=3, retries=0)
        for path in tmp_path.iterdir():
            path.unlink()
        parallel = run_campaign(matrix, jobs=2, campaign_seed=3, retries=0)
        for payload in (serial, parallel):
            payload.pop("timing")
            payload.pop("jobs")
        assert serial == parallel


class TestResumeEndToEnd:
    """Kill a campaign halfway, resume, compare with the straight run."""

    def _strip(self, payload):
        return {k: v for k, v in payload.items() if k not in ("timing", "jobs")}

    def test_resume_completes_to_identical_aggregate(self, tmp_path, capsys):
        straight_dir = tmp_path / "straight"
        resumed_dir = tmp_path / "resumed"

        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--out", str(straight_dir)]) == 0
        straight = json.loads((straight_dir / "campaign.json").read_text())

        # Re-run into a second directory, then simulate a crash: keep
        # only half the checkpoint, drop the final artifacts.
        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--out", str(resumed_dir)]) == 0
        lines = (resumed_dir / "results.jsonl").read_text().splitlines()
        keep = len(lines) // 2
        (resumed_dir / "results.jsonl").write_text(
            "\n".join(lines[:keep]) + "\n"
        )
        (resumed_dir / "campaign.json").unlink()

        capsys.readouterr()
        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--resume", str(resumed_dir)]) == 0
        out = capsys.readouterr().out
        assert f"resuming: {keep} scenario(s) checkpointed" in out

        resumed = json.loads((resumed_dir / "campaign.json").read_text())
        assert self._strip(resumed) == self._strip(straight)
        # The compacted checkpoint holds every scenario exactly once.
        names = [r["name"]
                 for r in read_log(resumed_dir / "results.jsonl")]
        assert sorted(names) == [r["name"] for r in straight["scenarios"]]

    def test_forced_crash_resume_keeps_per_hart_rows_exact(
            self, tmp_path, faults):
        """A worker crash on a multi-hart adversarial cell, then a
        resume, must reproduce the straight run's per-hart rows exactly:
        every scenario present once, every hart's row present once, no
        duplicated or lost rows, contracts intact."""
        crash_name = ("cosim/rop/shadow-stack/host/irq/q8/"
                      "fault-xhart-spoof/fh1/guard/n2/deep-recursion")
        straight_dir = tmp_path / "straight"
        crashed_dir = tmp_path / "crashed"

        assert main(["run", "--matrix", "xhart-smoke", "--jobs", "1",
                     "--out", str(straight_dir)]) == 0
        straight = json.loads((straight_dir / "campaign.json").read_text())
        assert crash_name in [r["name"] for r in straight["scenarios"]]

        faults.crash(crash_name)
        # Exit 1: the crashed row leaves the campaign incomplete.
        assert main(["run", "--matrix", "xhart-smoke", "--jobs", "2",
                     "--out", str(crashed_dir)]) == 1
        rows = read_log(crashed_dir / "results.jsonl")
        assert [r["name"] for r in rows if r["status"] == "crashed"] \
            == [crash_name]

        faults.clear()
        (crashed_dir / "campaign.json").unlink()
        assert main(["run", "--matrix", "xhart-smoke", "--jobs", "1",
                     "--resume", str(crashed_dir)]) == 0

        resumed = json.loads((crashed_dir / "campaign.json").read_text())
        by_name = {r["name"]: r for r in resumed["scenarios"]}
        assert len(by_name) == len(resumed["scenarios"])
        for ref in straight["scenarios"]:
            row = by_name[ref["name"]]
            assert row["status"] == "ok"
            assert [h["hart"] for h in row["per_hart"]] \
                == list(range(ref["n_harts"]))
            assert row["per_hart"] == ref["per_hart"]
            assert row["contract_ok"] == ref["contract_ok"]
        # The compacted checkpoint too: one row per scenario, each with
        # a full complement of per-hart rows.
        final_rows = read_log(crashed_dir / "results.jsonl")
        assert sorted(r["name"] for r in final_rows) \
            == sorted(by_name)

    def test_resume_fsyncs_do_not_grow_with_kept_rows(self, tmp_path,
                                                      monkeypatch, matrix):
        """Resuming a finished run re-writes every kept row but syncs the
        compacted checkpoint once, whatever its length."""
        fsyncs = {}
        for size in (1, len(matrix)):
            name = f"hardening-{size}"
            monkeypatch.setitem(
                MATRICES, name,
                tuple(dataclasses.asdict(c) for c in matrix[:size]))
            out = tmp_path / name
            assert main(["run", "--matrix", name, "--jobs", "1",
                         "--out", str(out)]) == 0
            with monkeypatch.context() as patch:
                calls = _count_calls(patch, os, "fsync")
                assert main(["run", "--matrix", name, "--jobs", "1",
                             "--resume", str(out)]) == 0
            fsyncs[size] = calls["n"]
            assert len(read_log(out / "results.jsonl")) == size
        assert fsyncs[1] == fsyncs[len(matrix)]

    def test_resume_against_other_matrix_refused(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--out", str(out)]) == 0
        code = main(["run", "--matrix", "synth-smoke", "--jobs", "1",
                     "--resume", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: resume mismatch" in captured.err

    def test_resume_on_corrupt_checkpoint_is_one_error_line(self, tmp_path,
                                                            capsys):
        out = tmp_path / "campaign"
        assert main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--out", str(out)]) == 0
        checkpoint = out / "results.jsonl"
        lines = checkpoint.read_text().splitlines(keepends=True)
        checkpoint.write_text(lines[0] + "not json\n" + "".join(lines[1:]))
        capsys.readouterr()
        code = main(["run", "--matrix", "smoke", "--jobs", "1",
                     "--resume", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{checkpoint}: corrupt file (line 2: " in err
