"""Scenario spec, registries, grid expansion and seed derivation."""

import pytest

from repro.campaign.spec import (
    BACKEND_COSIM,
    BACKEND_REFERENCE,
    MATRICES,
    POLICY_DETECTS,
    REFERENCE_POLICIES,
    VICTIMS,
    Scenario,
    derive_seed,
    expand_grid,
    expected_detection,
    resolve_matrix,
    spec_key,
)
from repro.errors import AxisConflict, ConfigError


class TestScenario:
    def test_defaults_valid(self):
        scenario = Scenario(victim="rop")
        assert scenario.backend == BACKEND_REFERENCE
        assert scenario.expected_detected

    def test_unknown_victim_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(victim="nonexistent")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(victim="rop", policy="magic")

    def test_cosim_accepts_any_enforcing_policy(self):
        """The policy host lifts the old firmware-only restriction:
        every registered enforcing policy resolves on the cosim
        backend (shadow-stack to the firmware, the rest to the host)."""
        for policy in REFERENCE_POLICIES:
            if policy == "none":
                continue
            scenario = Scenario(victim="rop", backend=BACKEND_COSIM,
                                policy=policy)
            expected = "firmware" if policy == "shadow-stack" else "host"
            assert scenario.resolved_policy_backend == expected, policy

    def test_cosim_policy_none_still_rejected(self):
        with pytest.raises(ConfigError, match="enforcing policy"):
            Scenario(victim="rop", backend=BACKEND_COSIM, policy="none")

    def test_cosim_firmware_backend_rejects_foreign_policy(self):
        """Explicitly pinning the firmware backend to a policy the RV32
        firmware does not implement must fail loudly."""
        with pytest.raises(ConfigError, match="shadow stack"):
            Scenario(victim="rop", backend=BACKEND_COSIM, policy="coarse",
                     policy_backend="firmware")

    def test_unknown_policy_rejected_on_cosim_too(self):
        """Lifting the restriction must not weaken name validation: a
        genuinely unknown policy still raises, on either backend."""
        with pytest.raises(ConfigError, match="unknown policy"):
            Scenario(victim="rop", backend=BACKEND_COSIM, policy="magic")

    def test_unknown_policy_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy backend"):
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy_backend="hardware")

    def test_host_backend_names_distinct_from_firmware(self):
        firmware = Scenario(victim="rop", backend=BACKEND_COSIM)
        host = Scenario(victim="rop", backend=BACKEND_COSIM,
                        policy_backend="host")
        assert firmware.name == "cosim/rop/shadow-stack/irq/q8"
        assert host.name == "cosim/rop/shadow-stack/host/irq/q8"

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(victim="rop", queue_depth=0)

    @pytest.mark.parametrize("field,value", [
        ("queue_depth", "8"), ("queue_depth", True), ("queue_depth", 2.5),
        ("max_cycles", "x"), ("max_cycles", -1), ("max_cycles", 0),
        ("seed", "a"), ("seed", -1), ("stagger", 1.5),
    ], ids=repr)
    def test_bad_int_field_is_a_config_error(self, field, value):
        """Integer fields follow the one rule: an ``int``, not a
        ``bool``, at least the field's minimum.  A bad value raises a
        plain ConfigError, never the AxisConflict a grid would drop,
        even where it also conflicts (a stagger on one hart)."""
        with pytest.raises(ConfigError, match=field) as raised:
            Scenario(victim="rop", backend=BACKEND_COSIM, **{field: value})
        assert not isinstance(raised.value, AxisConflict)

    def test_name_is_stable_and_parameter_bearing(self):
        a = Scenario(victim="rop", backend=BACKEND_COSIM, queue_depth=1,
                     blocking=True)
        assert a.name == "cosim/rop/shadow-stack/irq/q1/blocking"
        assert Scenario(victim="rop").name == "reference/rop/shadow-stack"


class TestRegistry:
    def test_every_victim_has_symbols_resolvable(self):
        """Entry-point metadata must name real labels in the program."""
        import random
        from repro.system.addresses import AddressMap

        addresses = AddressMap()
        for spec in VICTIMS.values():
            program = spec.builder(addresses, random.Random(1))
            for symbol in spec.entry_points + spec.function_entries:
                assert symbol in program.symbols, (spec.name, symbol)

    def test_attack_classes_all_covered_by_some_policy(self):
        attacks = {spec.attack for spec in VICTIMS.values() if spec.attack}
        caught = set().union(*POLICY_DETECTS.values())
        assert attacks == caught

    def test_composite_dominates_all_policies(self):
        for policy, detects in POLICY_DETECTS.items():
            assert detects <= POLICY_DETECTS["composite"]

    def test_expected_detection_benign_always_false(self):
        for victim, spec in VICTIMS.items():
            if spec.attack is None:
                for policy in REFERENCE_POLICIES:
                    assert not expected_detection(victim, policy)


class TestGridExpansion:
    def test_cartesian_product(self):
        scenarios = expand_grid(victim=["rop", "benign"],
                                policy=["shadow-stack", "coarse"])
        assert len(scenarios) == 4

    def test_scalars_promoted(self):
        scenarios = expand_grid(victim="rop", backend="cosim",
                                queue_depth=[1, 8])
        assert len(scenarios) == 2

    def test_backend_ignored_axis_collapses(self):
        """queue_depth is cosim-only: sweeping it on the reference
        backend yields one scenario, not redundant copies."""
        assert len(expand_grid(victim="rop", queue_depth=[1, 8])) == 1

    def test_invalid_combinations_dropped(self):
        scenarios = expand_grid(
            victim="rop",
            backend=["reference", "cosim"],
            policy=["shadow-stack", "coarse", "none"],
        )
        # cosim×none is invalid and silently dropped; cosim×coarse now
        # resolves to the policy host and stays.
        assert len(scenarios) == 5
        assert sum(s.backend == "cosim" for s in scenarios) == 2

    def test_firmware_pinned_sweep_drops_foreign_policies(self):
        scenarios = expand_grid(
            victim="rop",
            backend="cosim",
            policy=["shadow-stack", "coarse"],
            policy_backend="firmware",
        )
        assert [s.policy for s in scenarios] == ["shadow-stack"]

    def test_policy_backend_sweep(self):
        """Sweeping the agent axis yields one firmware and one host
        cell for the shadow stack (distinct names)."""
        scenarios = expand_grid(
            victim="rop",
            backend="cosim",
            policy_backend=["firmware", "host"],
        )
        assert len(scenarios) == 2
        assert {s.resolved_policy_backend for s in scenarios} == {"firmware", "host"}

    def test_mixed_backend_sweep_deduplicates_reference_cells(self):
        """Cosim-only axes must not duplicate (or explode) reference
        scenarios — equivalent cells collapse to one."""
        scenarios = expand_grid(
            victim="rop",
            backend=["reference", "cosim"],
            firmware=["irq", "polling"],
        )
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        assert sum(s.backend == "reference" for s in scenarios) == 1
        assert sum(s.backend == "cosim" for s in scenarios) == 2

    def test_typoed_field_value_raises(self):
        """Only the known cross-field incompatibility may be dropped; a
        bad name must not silently shrink the matrix."""
        with pytest.raises(ConfigError):
            expand_grid(victim=["rop", "jopp"], policy="shadow-stack")
        with pytest.raises(ConfigError):
            expand_grid(victim="rop", policy=["shadow-stack", "shdw"])

    @pytest.mark.parametrize("axes", [
        dict(victim="rop", backend="reference", fault_plan="no-such-plan"),
        dict(victim="rop", backend="cosim", policy="none", firmware="bogus"),
        dict(victim="rop", backend="cosim", hart_victims=("nope",)),
    ], ids=["fault-plan", "firmware", "hart-victims"])
    def test_typoed_value_raises_even_in_a_conflicting_cell(self, axes):
        """A bad value raises before any cross-field conflict could
        drop the cell, so a grid never swallows a typo."""
        with pytest.raises(ConfigError):
            expand_grid(**axes)

    def test_max_cycles_distinguishes_names(self):
        a = Scenario(victim="rop", backend=BACKEND_COSIM)
        b = Scenario(victim="rop", backend=BACKEND_COSIM, max_cycles=100_000)
        assert a.name != b.name


class TestSeeds:
    def test_derivation_deterministic(self):
        scenario = Scenario(victim="deep-recursion")
        assert derive_seed(7, scenario) == derive_seed(7, scenario)

    def test_campaign_seed_changes_scenario_seed(self):
        scenario = Scenario(victim="deep-recursion")
        assert derive_seed(1, scenario) != derive_seed(2, scenario)

    def test_distinct_scenarios_get_distinct_seeds(self):
        a = Scenario(victim="rop")
        b = Scenario(victim="benign")
        assert derive_seed(0, a) != derive_seed(0, b)

    def test_explicit_seed_wins(self):
        scenario = Scenario(victim="rop", seed=99)
        assert derive_seed(0, scenario) == 99


class TestMatrices:
    def test_default_matrix_size_and_diversity(self):
        scenarios = resolve_matrix("default")
        assert len(scenarios) >= 24
        assert {s.backend for s in scenarios} == {"reference", "cosim"}
        assert sum(s.expected_detected for s in scenarios) >= 5
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)

    def test_smoke_matrix_small_but_covering(self):
        scenarios = resolve_matrix("smoke")
        assert 5 <= len(scenarios) <= len(resolve_matrix("default"))
        assert any(s.backend == "cosim" for s in scenarios)
        assert any(s.attack for s in scenarios)
        assert any(s.attack is None for s in scenarios)

    def test_full_matrix_sweeps_the_scaleout_axes(self):
        scenarios = resolve_matrix("full")
        assert len(scenarios) > len(resolve_matrix("default"))
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        cosim = [s for s in scenarios if s.backend == "cosim"]
        # queue depths × firmware variants actually sweep…
        assert {s.queue_depth for s in cosim} >= {1, 4, 8}
        assert {s.firmware for s in cosim} == {"irq", "polling"}
        assert any(s.blocking for s in cosim)
        assert any(s.fabric == "optimized" for s in cosim)
        # …and seed-swept attack placement covers every seeded victim
        # on both backends.
        seeded = {name for name, spec in VICTIMS.items() if spec.seeded}
        assert seeded, "registry must keep at least one seeded victim"
        for backend in ("reference", "cosim"):
            swept = {
                s.victim for s in scenarios
                if s.backend == backend and s.seed and s.victim in seeded
            }
            assert swept == seeded, backend

    def test_resolve_unknown_matrix(self):
        with pytest.raises(ConfigError):
            resolve_matrix("nope")

    def test_registry_names_resolvable(self):
        for name in MATRICES:
            assert resolve_matrix(name)


class TestSpecHash:
    """Stability contract of the store key (``spec_key``): invariant
    under equivalent-spec round-trips, sensitive to every axis."""

    def test_deterministic(self):
        scenario = Scenario(victim="rop", backend=BACKEND_COSIM)
        assert spec_key(scenario) == spec_key(scenario)
        assert len(spec_key(scenario)) == 64

    def test_canonical_is_json_round_trip_stable(self):
        """Dict ordering must not matter: the canonical spec survives a
        serialize/parse cycle and a key-shuffled rebuild unchanged."""
        import json as json_mod

        scenario = Scenario(victim="rop", backend=BACKEND_COSIM,
                            policy="composite", queue_depth=4)
        canonical = scenario.canonical()
        round_trip = json_mod.loads(json_mod.dumps(canonical))
        assert round_trip == canonical
        shuffled = dict(reversed(list(canonical.items())))
        assert (json_mod.dumps(shuffled, sort_keys=True)
                == json_mod.dumps(canonical, sort_keys=True))

    def test_equivalent_specs_hash_equal(self):
        """Axes the cell does not consume are canonicalised away:
        an explicit policy backend equal to the auto-resolution, and
        cosim-only knobs on a reference cell, must not split the key."""
        auto = Scenario(victim="rop", backend=BACKEND_COSIM,
                        policy="composite", policy_backend="auto")
        host = Scenario(victim="rop", backend=BACKEND_COSIM,
                        policy="composite", policy_backend="host")
        assert spec_key(auto) == spec_key(host)

        irq = Scenario(victim="rop", firmware="irq")
        polling = Scenario(victim="rop", firmware="polling")
        assert irq.backend == BACKEND_REFERENCE
        assert spec_key(irq) == spec_key(polling)

    def test_every_axis_flip_changes_the_hash(self):
        base = Scenario(victim="rop", backend=BACKEND_COSIM,
                        policy="composite")
        key = spec_key(base)
        flipped = [
            Scenario(victim="jop", backend=BACKEND_COSIM,
                     policy="composite"),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="shadow-stack"),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", queue_depth=4),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", lossy=True),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", fault_plan="drop-first"),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", seed=7),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", n_harts=2),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", n_harts=2, defense=True),
            Scenario(victim="rop", backend=BACKEND_COSIM,
                     policy="composite", n_harts=2,
                     hart_victims=("jop",)),
        ]
        keys = [spec_key(s) for s in flipped]
        assert key not in keys
        assert len(set(keys)) == len(keys)

    def test_campaign_seed_is_part_of_the_key(self):
        scenario = Scenario(victim="rop", backend=BACKEND_COSIM)
        assert spec_key(scenario, 0) != spec_key(scenario, 1)

    def test_matrix_keys_injective(self):
        """Every registered matrix maps to pairwise-distinct keys."""
        for name in MATRICES:
            scenarios = resolve_matrix(name)
            keys = {spec_key(s) for s in scenarios}
            assert len(keys) == len(scenarios), name


class TestNameCollisions:
    """``expand_grid`` must never silently drop a *semantically
    distinct* cell that happens to share a scenario name."""

    def test_equivalent_cells_still_collapse(self):
        scenarios = expand_grid(
            victim="rop",
            backend=["reference", "cosim"],
            firmware=["irq", "polling"],
        )
        assert sum(s.backend == "reference" for s in scenarios) == 1

    def test_distinct_specs_sharing_a_name_raise(self, monkeypatch):
        """Victims whose names join ambiguously with the multi-hart
        '+'-separator produce equal scenario names from different
        resolved specs — that must raise, listing the duplicates."""
        import dataclasses

        monkeypatch.setitem(
            VICTIMS, "rop+rop",
            dataclasses.replace(VICTIMS["rop"], name="rop+rop"))
        monkeypatch.setitem(
            VICTIMS, "rop+benign",
            dataclasses.replace(VICTIMS["benign"], name="rop+benign"))
        with pytest.raises(ConfigError) as err:
            expand_grid(
                victim="rop",
                backend=BACKEND_COSIM,
                n_harts=3,
                hart_victims=[("rop+rop", "benign"), ("rop", "rop+benign")],
            )
        assert "collision" in str(err.value)
        assert "n3/rop+rop+benign" in str(err.value)
