"""Job journal: durable events, crash-tolerant replay, state rules."""

import json

import pytest

from repro.errors import JobStateError, StoreCorruptError
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobJournal,
)


def _journal(tmp_path):
    return JobJournal(tmp_path / "journal.jsonl")


class TestReplay:
    def test_submit_then_transitions(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        journal.transition("job-0001", RUNNING)
        journal.transition("job-0001", DONE, cells=21, hits=0, executed=21)
        jobs = journal.replay()
        job = jobs["job-0001"]
        assert job.state == DONE
        assert job.stats == {"cells": 21, "hits": 0, "executed": 21}

    def test_submission_order_preserved(self, tmp_path):
        journal = _journal(tmp_path)
        for n in (1, 2, 3):
            journal.submit(Job(job_id=f"job-{n:04d}", matrix="smoke"))
        assert list(journal.replay()) == ["job-0001", "job-0002", "job-0003"]
        assert journal.submit_count() == 3

    def test_fresh_job_is_queued(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        assert journal.replay()["job-0001"].state == QUEUED

    def test_torn_tail_is_ignored(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        journal.transition("job-0001", RUNNING)
        with open(journal.path, "a") as fh:
            fh.write('{"event": "state", "job_id": "job-0001", "sta')
        assert journal.replay()["job-0001"].state == RUNNING

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        with open(journal.path, "a") as fh:
            fh.write("GARBAGE\n")
        journal.transition("job-0001", RUNNING)
        with pytest.raises(StoreCorruptError):
            journal.replay()

    def test_state_for_unknown_job_raises(self, tmp_path):
        journal = _journal(tmp_path)
        journal.transition("job-9999", RUNNING)
        with pytest.raises(JobStateError) as err:
            journal.replay()
        assert err.value.job_id == "job-9999"

    def test_terminal_state_wins(self, tmp_path):
        """A cancel recorded while an orphaned job sat 'running' must
        not be undone by the dead server's stale completion event."""
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        journal.transition("job-0001", RUNNING)
        journal.transition("job-0001", CANCELLED)
        journal.transition("job-0001", DONE)
        assert journal.replay()["job-0001"].state == CANCELLED

    def test_unknown_state_name_rejected(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke"))
        with pytest.raises(JobStateError):
            journal.transition("job-0001", "paused")

    def test_journal_from_older_code_replays(self, tmp_path):
        """Journals written before the batch knob was dropped carry
        ``batch_size`` in submit records and ``batch`` progress events;
        they replay to the same job table."""
        journal = _journal(tmp_path)
        events = [
            {"event": "submit", "time": 1.0,
             "job": {"job_id": "job-0001", "matrix": "smoke",
                     "campaign_seed": 3, "sim_mode": None, "workers": 2,
                     "batch_size": 4}},
            {"event": "state", "job_id": "job-0001", "state": RUNNING,
             "time": 2.0},
            {"event": "batch", "job_id": "job-0001", "batch": 0,
             "executed": 4, "time": 3.0},
            {"event": "batch", "job_id": "job-0001", "batch": 1,
             "executed": 2, "time": 4.0},
            {"event": "state", "job_id": "job-0001", "state": DONE,
             "cells": 6, "hits": 0, "executed": 6, "time": 5.0},
            {"event": "submit", "time": 6.0,
             "job": {"job_id": "job-0002", "matrix": "smoke",
                     "campaign_seed": 0, "sim_mode": "busy", "workers": 1,
                     "batch_size": 16}},
        ]
        journal.path.write_text("".join(json.dumps(event, sort_keys=True)
                                        + "\n" for event in events))
        assert {job_id: job.describe()
                for job_id, job in journal.replay().items()} == {
            "job-0001": {"job_id": "job-0001", "matrix": "smoke",
                         "campaign_seed": 3, "sim_mode": None, "workers": 2,
                         "state": DONE,
                         "stats": {"cells": 6, "hits": 0, "executed": 6}},
            "job-0002": {"job_id": "job-0002", "matrix": "smoke",
                         "campaign_seed": 0, "sim_mode": "busy",
                         "workers": 1, "state": QUEUED, "stats": {}},
        }
        assert journal.submit_count() == 2


class TestDurability:
    def test_events_are_one_json_line_each(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submit(Job(job_id="job-0001", matrix="smoke",
                           campaign_seed=7, workers=2))
        journal.transition("job-0001", FAILED, failed=3)
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        submit = json.loads(lines[0])
        assert submit["event"] == "submit"
        assert submit["job"]["campaign_seed"] == 7
        assert submit["job"]["workers"] == 2
        assert "time" in submit

    def test_describe_is_json_ready(self, tmp_path):
        job = Job(job_id="job-0001", matrix="smoke", state=DONE,
                  stats={"cells": 2})
        snapshot = json.loads(json.dumps(job.describe()))
        assert snapshot["state"] == DONE
        assert snapshot["stats"] == {"cells": 2}
