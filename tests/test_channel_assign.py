"""Channel-assignment experiment: strategies, determinism, and guards."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import channel_assign
from repro.experiments.channel_assign import (
    POLICIES,
    STRATEGIES,
    ChannelAssignSpec,
    apply_strategy,
    run_assign_trial,
)
from repro.fabric import InProcessFabric, activate
from repro.runner.pool import TrialError
from repro.sim.contention import ContentionSpec
from repro.sim.engine import Simulator
from repro.sim.world import StackSpec
from repro.workloads.town import PRESETS, build_town
from dataclasses import replace


def small_spec(**overrides) -> ChannelAssignSpec:
    """A reduced grid that still exercises every moving part."""
    base = dict(
        seeds=(0,),
        duration_s=3.0,
        n_vehicles=3,
        strategies=("measured", "adversarial"),
        loop_length_m=1200.0,
        ap_density_per_km=40.0,
    )
    base.update(overrides)
    return ChannelAssignSpec(**base)


def small_town(seed=0):
    sim = Simulator(seed=seed)
    config = replace(
        PRESETS["city"], loop_length_m=1200.0, ap_density_per_km=40.0
    )
    stack = StackSpec(contention=ContentionSpec())
    return sim, build_town(sim, config=config, stack=stack)


class TestApplyStrategy:
    def test_measured_keeps_the_built_map(self):
        _, town = small_town()
        before = town.channel_counts()
        assert apply_strategy(town, "measured", (1, 6, 11)) == before

    def test_adversarial_piles_everything_on_channel_6(self):
        _, town = small_town()
        counts = apply_strategy(town, "adversarial", (1, 6, 11))
        assert counts == {6: len(town.aps)}

    def test_random_is_seed_deterministic(self):
        maps = []
        for _ in range(2):
            _, town = small_town(seed=5)
            apply_strategy(town, "random", (1, 6, 11))
            maps.append(tuple(ap.channel for ap in town.aps))
        assert maps[0] == maps[1]
        assert set(maps[0]) <= {1, 6, 11}

    def test_greedy_spreads_co_channel_neighbours(self):
        _, town = small_town()
        counts = apply_strategy(town, "greedy", (1, 6, 11))
        # Dense clusters force all three colors into play, and no channel
        # should hoard the APs the way the adversarial map does.
        assert set(counts) == {1, 6, 11}
        assert max(counts.values()) < len(town.aps)

    def test_unknown_strategy_rejected(self):
        _, town = small_town()
        with pytest.raises(ValueError, match="unknown strategy"):
            apply_strategy(town, "psychic", (1, 6, 11))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            channel_assign._policy_mode("nope", (1, 6, 11))


class TestGuards:
    def test_refuses_to_run_without_contention(self):
        spec = small_spec(contention=None)
        with pytest.raises(ValueError, match="requires the contention model"):
            run_assign_trial(spec, "measured", "single-ch6", 0)

    def test_refuses_disabled_contention(self):
        spec = small_spec(contention=ContentionSpec(enabled=False))
        with pytest.raises(ValueError, match="requires the contention model"):
            run_assign_trial(spec, "measured", "single-ch6", 0)

    def test_grid_guard_surfaces_through_the_envelope(self):
        spec = small_spec(contention=None, strategies=("measured",))
        with pytest.raises(TrialError, match="requires the contention model"):
            channel_assign.run_spec(spec).unwrap()


class TestSmoke:
    def test_reduced_grid_runs_and_renders(self):
        spec = small_spec()
        result = channel_assign.run_spec(spec).unwrap()
        assert len(result.rows) == len(spec.strategies) * len(spec.policies)
        for row in result.rows:
            assert row.ap_count > 0
            assert row.join_attempts >= row.joins_completed >= 0
            assert row.aggregate_kBps >= 0.0
            assert 0.0 <= row.collision_rate <= 1.0
        adversarial = result.cell("adversarial", "single-ch6")[0]
        assert adversarial.channel_map == {6: adversarial.ap_count}
        text = result.render()
        assert "Channel assignment under contention" in text
        assert "aggregate goodput" in text
        assert "join completion rate" in text
        assert "APs per channel by strategy" in text

    def test_defaults_cover_the_full_grid(self):
        spec = ChannelAssignSpec()
        assert spec.strategies == STRATEGIES
        assert spec.policies == POLICIES
        assert spec.contention == ContentionSpec()
        assert spec.town == "city"


class TestDeterminism:
    def _rows(self, workers=None, fabric=None):
        spec = small_spec(
            strategies=("measured", "adversarial"),
            policies=("single-ch6",),
            workers=workers,
        )
        with activate(fabric):
            return channel_assign.run_spec(spec).unwrap().rows

    def test_serial_parallel_fabric_identical(self):
        serial = self._rows(workers=1)
        parallel = self._rows(workers=2)
        fabric = self._rows(fabric=InProcessFabric(workers=2))
        # Per-row pickles: list-level dumps would also encode accidental
        # object sharing (the serial path reuses the spec's policy string
        # across rows; worker round-trips copy it), which is invisible to
        # every consumer of the results.
        serial_bytes = [pickle.dumps(r) for r in serial]
        assert serial_bytes == [pickle.dumps(r) for r in parallel]
        assert serial_bytes == [pickle.dumps(r) for r in fabric]
