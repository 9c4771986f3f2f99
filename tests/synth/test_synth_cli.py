"""``python -m repro.synth`` end to end, the campaign CLI's triage, and
the two ways a generated program used to drift from the campaign cell it
came from: triage must shrink the very model the runner ran, and a
reproducer must replay on the cell it records."""

import json

import pytest

from repro.campaign import runner
from repro.campaign.spec import Scenario
from repro.coverage.shape import shape_vector
from repro.errors import ConfigError
from repro.synth import bundle, bundle_for_seed, triage
from repro.synth.__main__ import main
from repro.synth.corpus import make_entry, replay_entry
from repro.synth.generator import generate
from repro.synth.verify import simulated_verdict
from repro.system.addresses import AddressMap

BASE = AddressMap().dram_base


@pytest.mark.parametrize("flags", [[], ["--cosim"]], ids=["reference", "cosim"])
def test_verify_sweep_agrees_with_the_oracle(tmp_path, capsys, flags):
    out = tmp_path / "synth"
    assert main(["verify", "--seeds", "1", "--out", str(out), *flags]) == 0
    backend = "cosim" if flags else "reference"
    assert capsys.readouterr().out == (
        f"verified 5 programs x all policies on {backend}: "
        "0 disagreement(s)\n")
    assert not out.exists(), "no disagreement, so no reproducer"


@pytest.mark.parametrize("flag", ["--seeds", "--max-evals"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_a_count_below_one(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


def test_show_prints_events_and_oracle_verdicts(capsys):
    assert main(["show", "--family", "rop", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "# planned events (rop, seed 3):" in out
    for policy, verdict in bundle("rop", 3, BASE).expected.items():
        assert f"#   {policy:<14} {'DETECT' if verdict else 'pass'}" in out


def test_show_coverage_prints_the_shape_vector(capsys):
    found = bundle("rop", 3, BASE)
    vector = shape_vector(found.model, program=found.program)
    assert main(["show", "--family", "rop", "--seed", "3", "--coverage"]) == 0
    assert capsys.readouterr().out.startswith(
        f"# coverage shape (rop, seed 3): {vector.digest}, "
        f"{len(vector.points)} points\n")
    assert main(["show", "--family", "rop", "--seed", "3", "--coverage",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == vector.to_json()


def test_triage_of_a_cov_cell_starts_from_the_runners_model(tmp_path,
                                                             monkeypatch):
    """A ``cov-*`` victim is its family grown with generator features:
    triage must shrink that program, not the plain family draw."""
    cell = Scenario(victim="cov-rop", policy="shadow-stack", seed=2)
    ran = runner._victim_bundle(cell, 2).model
    assert ran != bundle_for_seed("rop", 2, BASE).model
    # Force the disagreement and keep the shrinker out of the way, so
    # the saved model is the one triage started from.
    monkeypatch.setattr(triage, "disagreement_predicate",
                        lambda scenario: lambda model: True)
    monkeypatch.setattr(triage, "minimize_model",
                        lambda model, predicate, max_evals: model)
    [path] = triage.triage_results([{"name": cell.name, "seed": 2}],
                                   {cell.name: cell}, tmp_path)
    entry = json.loads(path.read_text())
    assert entry["model"] == json.loads(json.dumps(ran))
    assert (entry["family"], entry["seed"], entry["policy"]) == (
        "rop", 2, "shadow-stack")
    assert entry["config"] == {}


def test_a_cosim_reproducer_replays_on_its_cosim_cell(monkeypatch):
    cells = []
    run_cosim = runner._run_cosim

    def spy(scenario, *args, **kwargs):
        cells.append(scenario.name)
        return run_cosim(scenario, *args, **kwargs)

    monkeypatch.setattr(runner, "_run_cosim", spy)
    entry = make_entry(generate("rop", 3), family="rop", seed=3,
                       config={"backend": "cosim", "fabric": "optimized"})
    report = replay_entry(entry)
    # The cosim backend needs an enforcing policy, so `none` drops.
    assert set(report) == set(entry["expected"]) - {"none"}
    for verdicts in report.values():
        assert verdicts["recorded"] == verdicts["oracle"] == verdicts["simulated"]
    assert len(cells) == len(report)
    assert all(name.startswith("cosim/synth-rop/") and "/optimized" in name
               for name in cells), cells


def test_a_model_runs_only_on_a_single_hart_cell():
    """A model is assembled at the lone hart's DRAM base."""
    cell = Scenario(victim="rop", backend="cosim", n_harts=2)
    with pytest.raises(ConfigError, match="single-hart"):
        simulated_verdict(generate("rop", 3), cell)


def test_campaign_cli_triages_rows_kept_by_resume(tmp_path, monkeypatch,
                                                  capsys):
    """Triage takes its cells from the full matrix, so a disagreeing row
    that ``--resume`` keeps is shrunk like a fresh one."""
    import repro.synth.oracle as oracle
    from repro.campaign.cli import main as campaign
    from repro.campaign.spec import MATRICES
    from repro.synth import clear_bundle_cache
    from repro.synth.ir import model_ops

    real_rule = oracle._RULES[oracle.ORACLE_FORWARD_ENTRY]

    def broken_rule(events, entries, functions):
        return (any(e.kind == "ijump" for e in events)
                or real_rule(events, entries, functions))

    # A benign seed whose program has a dispatcher: the broken rule
    # predicts a forward-edge violation the simulator never sees.
    seed = next(s for s in range(40) if any(
        op["op"] == "dispatch"
        for op in model_ops(bundle_for_seed("benign", s, BASE).model)))
    monkeypatch.setitem(oracle._RULES, oracle.ORACLE_FORWARD_ENTRY,
                        broken_rule)
    monkeypatch.setitem(MATRICES, "one-synth-cell", (
        dict(victim="synth-benign", policy="forward-edge", seed=seed),))
    clear_bundle_cache()  # verdicts were cached with the honest rule
    try:
        out = tmp_path / "campaign"
        run = ["run", "--matrix", "one-synth-cell", "--jobs", "1"]
        assert campaign([*run, "--out", str(out)]) == 1
        [first] = (out / "reproducers").iterdir()
        first.unlink()
        assert campaign([*run, "--resume", str(out)]) == 1
        assert "resuming: 1 scenario(s) checkpointed, 0 to run" in \
            capsys.readouterr().out
        [again] = (out / "reproducers").iterdir()
        entry = json.loads(again.read_text())
        assert again.name == first.name
        assert (entry["policy"], entry["config"]) == ("forward-edge", {})
        assert entry["note"].startswith(
            f"minimized from campaign scenario reference/synth-benign/"
            f"forward-edge/s{seed}")
    finally:
        clear_bundle_cache()  # drop bundles built with the broken rule
