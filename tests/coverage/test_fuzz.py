"""Fuzz-loop invariants: bit-exact determinism (serial, sharded,
resumed, crashed-and-resumed) and strict coverage dominance over blind
uniform generation at double the iteration budget."""

import json
import subprocess
import sys
import types

import pytest

from repro.coverage.__main__ import main
from repro.coverage.loop import FuzzConfig, fuzz, uniform_baseline
from repro.errors import ConfigError

ITERS = 16
SEED = 11

ARTIFACTS = ("fuzz.jsonl", "coverage.json", "campaign.json",
             "campaign.csv", "corpus/index.json")


def run_bytes(root) -> dict:
    tracked = {name: (root / name).read_bytes() for name in ARTIFACTS}
    for path in sorted((root / "corpus" / "objects").iterdir()):
        tracked[f"corpus/objects/{path.name}"] = path.read_bytes()
    return tracked


def test_budget_must_cover_the_seed_phase(tmp_path):
    with pytest.raises(ConfigError, match="iteration budget"):
        fuzz(tmp_path, FuzzConfig(iterations=3))


def test_cli_reports_a_typed_error_in_one_line(tmp_path, capsys):
    code = main(["run", "--iters", "3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: iteration budget 3") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--jobs", "0", "jobs must be an int >= 1, got 0"),
    ("--jobs", "-2", "jobs must be an int >= 1, got -2"),
    ("--seeds-per-family", "-1", "seeds_per_family must be an int >= 0, got -1"),
])
def test_cli_rejects_bad_worker_and_seed_counts(tmp_path, capsys, flag,
                                                value, message):
    code = main(["run", "--iters", str(ITERS), flag, value,
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fuzz.jsonl").exists()


def test_loop_module_is_reachable_by_its_dotted_name(monkeypatch):
    """The package re-exports the function ``fuzz``; the loop module has
    a name of its own, so a dotted-path import yields the module and a
    dotted-path patch reaches its attributes."""
    import repro.coverage
    import repro.coverage.loop as loop

    assert isinstance(loop, types.ModuleType)
    assert repro.coverage.fuzz is loop.fuzz
    sentinel = object()
    monkeypatch.setattr("repro.coverage.loop._worker", sentinel)
    assert sys.modules["repro.coverage.loop"]._worker is sentinel


def test_dead_worker_fails_the_run_and_resume_converges(tmp_path):
    """A pool worker that dies mid-batch must end the run with one typed
    error line, not hang it; the journal holds only whole batches, so
    a resume reconverges every byte.  The dying ``_worker`` is
    module-level (pool workers unpickle it by name), and the run is a
    subprocess with a liveness bound, so a hang fails this test instead
    of stalling the suite."""
    reference = fuzz(tmp_path / "ref", FuzzConfig(iterations=ITERS, seed=SEED))
    code = (
        "import os\n"
        "import sys\n"
        "import repro.coverage.loop as loop\n"
        "from repro.coverage.__main__ import main\n"
        "real_worker = loop._worker\n"
        "def _worker(payload):\n"
        "    if payload['index'] == 5:\n"
        "        os._exit(9)\n"
        "    return real_worker(payload)\n"
        "loop._worker = _worker\n"
        f"sys.exit(main(['run', '--iters', '{ITERS}', '--seed', '{SEED}', "
        f"'--jobs', '2', '--out', {str(tmp_path / 'crash')!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: worker crashed while running scenario "
                           "'fuzz candidates 4..7'\n")
    resumed = fuzz(tmp_path / "crash", FuzzConfig(iterations=ITERS, seed=SEED),
                   resume=True)
    assert resumed == reference
    assert run_bytes(tmp_path / "crash") == run_bytes(tmp_path / "ref")


def test_two_runs_are_byte_identical(tmp_path):
    config = FuzzConfig(iterations=ITERS, seed=SEED)
    a = fuzz(tmp_path / "a", config)
    b = fuzz(tmp_path / "b", config)
    assert a == b
    assert a["oracle_disagreements"] == 0
    assert a["accepted"] == a["corpus_size"] > 0
    assert run_bytes(tmp_path / "a") == run_bytes(tmp_path / "b")


def test_sharded_run_matches_serial(tmp_path):
    serial = fuzz(tmp_path / "serial", FuzzConfig(iterations=ITERS, seed=SEED))
    sharded = fuzz(tmp_path / "sharded",
                   FuzzConfig(iterations=ITERS, seed=SEED, jobs=2))
    assert serial == sharded
    assert run_bytes(tmp_path / "serial") == run_bytes(tmp_path / "sharded")


def test_resume_extends_to_an_uninterrupted_run(tmp_path):
    reference = fuzz(tmp_path / "ref", FuzzConfig(iterations=22, seed=SEED))
    fuzz(tmp_path / "ext", FuzzConfig(iterations=14, seed=SEED))
    extended = fuzz(tmp_path / "ext", FuzzConfig(iterations=22, seed=SEED),
                    resume=True)
    assert extended == reference
    assert run_bytes(tmp_path / "ext") == run_bytes(tmp_path / "ref")


def test_kill9_then_resume_matches_uninterrupted(tmp_path):
    """Hard-exit in the worst crash window (journal record durable,
    side effects unapplied); the resumed run must reconverge every
    artifact byte, corpus object tree included."""
    reference = fuzz(tmp_path / "ref", FuzzConfig(iterations=ITERS, seed=SEED))
    code = (
        "import os\n"
        "from repro import durable\n"
        "from repro.coverage.loop import FuzzConfig, fuzz\n"
        "append = durable.AppendLog.append\n"
        "def append_then_die(self, record, sync=True):\n"
        "    append(self, record, sync=sync)\n"
        "    if record['iteration'] == 9:\n"
        "        self.sync()\n"
        "        os._exit(7)\n"
        "durable.AppendLog.append = append_then_die\n"
        f"fuzz({str(tmp_path / 'crash')!r}, "
        f"FuzzConfig(iterations={ITERS}, seed={SEED}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 7, proc.stderr.decode()
    resumed = fuzz(tmp_path / "crash", FuzzConfig(iterations=ITERS, seed=SEED),
                   resume=True)
    assert resumed == reference
    assert run_bytes(tmp_path / "crash") == run_bytes(tmp_path / "ref")


def test_resume_rejects_a_different_identity(tmp_path):
    fuzz(tmp_path, FuzzConfig(iterations=ITERS, seed=SEED))
    with pytest.raises(ConfigError):
        fuzz(tmp_path, FuzzConfig(iterations=ITERS, seed=SEED + 1),
             resume=True)


def test_campaign_artifact_is_schema_conformant(tmp_path):
    fuzz(tmp_path, FuzzConfig(iterations=ITERS, seed=SEED))
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert payload["schema"] == "repro.campaign/v1"
    assert payload["scenario_count"] == len(payload["scenarios"]) > 0
    counts = payload["summary"]["counts"]
    assert counts["expectations_missed"] == 0, counts
    coverage = payload["summary"]["coverage"]
    assert coverage["scenarios"] == payload["scenario_count"]
    assert coverage["distinct_points"] > 0
    header = (tmp_path / "campaign.csv").read_text().splitlines()[0]
    assert "coverage_points" in header and "coverage_digest" in header


def test_guided_loop_dominates_uniform_at_double_budget(tmp_path):
    """The guided loop at N candidates reaches MORE distinct coverage
    than blind generation at 2N, and neither side's oracle disagrees
    with the simulation.  Point counts are pure functions of the
    simulation, so this holds whatever the host or its caches.
    Coverage per CPU second is a timing, so no test asserts it.
    """
    guided = fuzz(tmp_path, FuzzConfig(iterations=60, seed=3))
    uniform = uniform_baseline(120, seed=3)
    assert guided["corpus_size"] > 0
    assert guided["oracle_disagreements"] == 0
    assert uniform["oracle_disagreements"] == 0
    assert guided["distinct_points"] > uniform["distinct_points"], (
        guided["distinct_points"], uniform["distinct_points"])


def test_uniform_baseline_matches_the_loops_seed_phase(tmp_path):
    """The baseline IS the loop's seeding phase continued: over the
    seed-count prefix both accumulate the identical coverage map."""
    config = FuzzConfig(iterations=10, seed=5)
    fuzz(tmp_path, config)
    baseline = uniform_baseline(10, seed=5)
    journal = [json.loads(line)
               for line in (tmp_path / "fuzz.jsonl").read_text().splitlines()]
    assert len(journal) == 10
    seeded = journal[:config.seed_count]
    assert all(record["parent"] is None for record in seeded)
    loop_points = set()
    for record in journal:
        loop_points.update(record["vector"]["points"])
    assert loop_points == set(baseline["coverage"].to_json()["points"])
