"""``python -m repro.service`` CLI: submit/serve/status/cancel/gc/dashboard."""

import json

import pytest

from repro.campaign.spec import MATRICES, expand_grid
from repro.errors import JobStateError
from repro.service.cli import main


@pytest.fixture()
def tiny_matrix(monkeypatch):
    monkeypatch.setitem(
        MATRICES, "cli-tiny",
        lambda: expand_grid(victim=["rop", "benign"],
                            policy="shadow-stack"),
    )
    return "cli-tiny"


def _root(tmp_path):
    return str(tmp_path / "svc")


class TestSubmitServe:
    def test_submit_then_serve_once(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        assert main(["--root", root, "submit", "--matrix", tiny_matrix]) == 0
        out = capsys.readouterr().out
        assert "queued job-0001" in out

        assert main(["--root", root, "serve", "--once"]) == 0
        out = capsys.readouterr().out
        assert "job-0001 [done]" in out
        assert "executed=2" in out

    def test_submit_rejects_unknown_sim_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--root", _root(tmp_path), "submit",
                  "--sim-mode", 'event-driven'])
        assert excinfo.value.code == 2
        assert "invalid choice: 'event-driven'" in capsys.readouterr().err
        assert not (tmp_path / "svc").exists()

    def test_serve_with_nothing_queued(self, tmp_path, capsys):
        assert main(["--root", _root(tmp_path), "serve"]) == 0
        assert "no runnable jobs" in capsys.readouterr().out

    def test_warm_serve_reports_full_hits(self, tmp_path, tiny_matrix,
                                          capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        main(["--root", root, "serve"])
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        capsys.readouterr()
        main(["--root", root, "serve"])
        out = capsys.readouterr().out
        assert "hits=2" in out and "executed=0" in out

    def test_unknown_matrix_rejected_at_parse(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--root", _root(tmp_path), "submit", "--matrix", "nope"])

    def test_bad_workers_is_one_error_line(self, tmp_path, tiny_matrix,
                                           capsys):
        code = main(["--root", _root(tmp_path), "submit",
                     "--matrix", tiny_matrix, "--workers", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: workers must be >= 1\n"


class TestStatus:
    def test_status_json(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        main(["--root", root, "serve"])
        capsys.readouterr()
        assert main(["--root", root, "status", "--json"]) == 0
        (job,) = json.loads(capsys.readouterr().out)
        assert job["job_id"] == "job-0001"
        assert job["state"] == "done"
        assert job["stats"]["cells"] == 2

    def test_status_text_and_filter(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        capsys.readouterr()
        main(["--root", root, "status"])
        out = capsys.readouterr().out
        assert "job-0001" in out and "job-0002" in out
        main(["--root", root, "status", "job-0002"])
        out = capsys.readouterr().out
        assert "job-0002" in out and "job-0001" not in out

    def test_status_empty(self, tmp_path, capsys):
        assert main(["--root", _root(tmp_path), "status"]) == 0
        assert "no jobs" in capsys.readouterr().out


class TestCancelGcDashboard:
    def test_cancel_queued_job(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        assert main(["--root", root, "cancel", "job-0001"]) == 0
        assert "cancelled job-0001" in capsys.readouterr().out
        main(["--root", root, "serve"])
        assert "no runnable jobs" in capsys.readouterr().out

    def test_cancel_unknown_job_is_one_error_line(self, tmp_path, capsys):
        assert main(["--root", _root(tmp_path), "cancel", "job-0042"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {JobStateError('job-0042')}\n"

    def test_gc_reports_removals(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        main(["--root", root, "serve"])
        capsys.readouterr()
        assert main(["--root", root, "gc"]) == 0
        assert "removed 0 object(s)" in capsys.readouterr().out

    def test_dashboard_renders(self, tmp_path, tiny_matrix, capsys):
        root = _root(tmp_path)
        main(["--root", root, "submit", "--matrix", tiny_matrix])
        main(["--root", root, "serve"])
        capsys.readouterr()
        assert main(["--root", root, "dashboard"]) == 0
        out = capsys.readouterr().out.strip()
        path = out.split("dashboard: ", 1)[1]
        html = open(path).read()
        assert "job-0001" in html and "<svg" in html
