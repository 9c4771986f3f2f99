"""Dashboard rendering: pure function of on-disk service state."""

import dataclasses

import pytest

from repro.campaign.spec import MATRICES
from repro.service.dashboard import render_dashboard, write_dashboard
from repro.service.queue import SweepService


@pytest.fixture()
def tiny_matrix(monkeypatch):
    monkeypatch.setitem(
        MATRICES, "dash-tiny",
        (dict(victim=["rop", "benign"], policy="shadow-stack",
              backend=["reference", "cosim"]),),
    )
    return "dash-tiny"


def _served(tmp_path, tiny_matrix, version="v1"):
    service = SweepService(tmp_path / "svc", code_version=version)
    service.submit(tiny_matrix)
    service.serve_once()
    return service


class TestRender:
    def test_empty_service_renders(self, tmp_path):
        html = render_dashboard(SweepService(tmp_path / "svc",
                                             code_version="v1"))
        assert "<html" in html
        assert "store is empty" in html
        assert "no jobs submitted" in html

    def test_sections_present_after_a_job(self, tmp_path, tiny_matrix):
        service = _served(tmp_path, tiny_matrix)
        html = render_dashboard(service)
        assert "Result store" in html
        assert "v1 (current)" in html
        assert "job-0001" in html
        assert 'class="state-done"' in html
        assert "Latest results per matrix" in html
        assert "shadow-stack" in html
        assert "campaign.json" in html
        assert "Trends across code versions" in html
        assert "<svg" in html and "detection rate" in html

    def test_detection_matrix_table(self, tmp_path, tiny_matrix):
        html = render_dashboard(_served(tmp_path, tiny_matrix))
        # rop is detected by the shadow stack on both backends: 2/2.
        assert "2/2" in html
        assert "benign (FP)" in html

    def test_delta_section_between_jobs(self, tmp_path, tiny_matrix):
        service = _served(tmp_path, tiny_matrix)
        service.submit(tiny_matrix)
        service.serve_once()
        html = render_dashboard(service)
        assert "Deltas between runs" in html
        assert "job-0001" in html and "job-0002" in html
        assert "no verdict, rate or latency changes" in html

    def test_trends_across_two_code_versions(self, tmp_path, tiny_matrix):
        _served(tmp_path, tiny_matrix, version="v1")
        service = SweepService(tmp_path / "svc", code_version="v2")
        service.submit(tiny_matrix)
        service.serve_once()
        html = render_dashboard(service)
        assert "v1" in html and "v2 (current)" in html
        assert "2 code versions" in html
        assert "<polyline" in html

    def test_quarantine_and_degradation_columns(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setitem(
            MATRICES, "dash-xhart",
            (dict(victim="rop", backend="cosim", n_harts=2,
                  defense=True, fault_plan="xhart-spoof", fault_hart=1,
                  hart_victims=("benign",)),),
        )
        service = SweepService(tmp_path / "svc", code_version="v1")
        service.submit("dash-xhart")
        service.serve_once()
        html = render_dashboard(service)
        assert "quarantined harts" in html
        assert "degradation" in html

    def test_html_is_escaped(self, tmp_path, tiny_matrix):
        service = _served(tmp_path, tiny_matrix)
        evil = dataclasses.replace(service.jobs()["job-0001"],
                                   matrix="<script>alert(1)</script>")
        service.journal.submit(evil)
        html = render_dashboard(service)
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html


class TestWrite:
    def test_write_default_location(self, tmp_path, tiny_matrix):
        service = _served(tmp_path, tiny_matrix)
        path = write_dashboard(service)
        assert path == service.root / "dashboard.html"
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_write_custom_location(self, tmp_path, tiny_matrix):
        service = _served(tmp_path, tiny_matrix)
        out = tmp_path / "deep" / "dir" / "dash.html"
        assert write_dashboard(service, out) == out
        assert out.exists()
