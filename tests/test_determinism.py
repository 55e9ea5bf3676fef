"""Whole-system determinism: identical seeds yield identical histories.

Reproducibility is a first-class requirement for a simulator-based
reproduction: every published number must be regenerable bit-for-bit.
These tests run complete Spider sessions twice and compare full event
histories, not just summary statistics.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.link_manager import SpiderConfig
from repro.core.schedule import OperationMode
from repro.core.spider import SpiderClient
from repro.experiments.common import (
    TownTrialSpec,
    aggregate_town_trials,
    run_town_trial,
    run_town_trial_spec,
)
from repro.experiments.town_runs import spider_factory, stock_factory
from repro.sim.engine import Simulator
from repro.sim.faults import (
    ApFlap,
    ApOutage,
    BurstyLoss,
    DhcpNakBurst,
    DhcpStall,
    FaultPlan,
    LeaseExhaustion,
    RandomOutages,
)
from repro.workloads.town import build_town


def run_session(seed: int, duration_s: float = 150.0, mode_channels=(1, 6, 11)):
    sim = Simulator(seed=seed)
    town = build_town(sim, preset="amherst")
    config = SpiderConfig.spider_defaults(
        OperationMode.equal_split(mode_channels, 0.6), num_interfaces=4
    )
    client = SpiderClient(
        sim, town.world, town.make_vehicle_mobility(10.0), config, client_id="det"
    )
    client.start()
    sim.run(until=duration_s)
    history = [
        (
            a.bssid,
            a.channel,
            round(a.started_at, 9),
            a.associated,
            a.leased,
            a.verified,
            None if a.join_time_s is None else round(a.join_time_s, 9),
        )
        for a in client.join_log.attempts
    ]
    return {
        "history": history,
        "bytes": client.recorder.total_bytes,
        "timeline": client.recorder.timeline(duration_s),
        "events": sim.events_processed,
        "switches": client.nic.switches,
    }


class TestFullSystemDeterminism:
    def test_identical_seeds_identical_histories(self):
        a = run_session(seed=77)
        b = run_session(seed=77)
        assert a == b

    def test_different_seeds_diverge(self):
        a = run_session(seed=1)
        b = run_session(seed=2)
        assert a["history"] != b["history"] or a["bytes"] != b["bytes"]

    def test_determinism_survives_single_channel_mode(self):
        a = run_session(seed=5, mode_channels=(1,))
        b = run_session(seed=5, mode_channels=(1,))
        assert a == b

    def test_event_counts_scale_with_duration(self):
        short = run_session(seed=9, duration_s=60.0)
        long = run_session(seed=9, duration_s=150.0)
        assert long["events"] > short["events"]


_TIMES = st.floats(0.0, 15.0, allow_nan=False, allow_infinity=False)
_WINDOWS = st.floats(0.5, 6.0, allow_nan=False, allow_infinity=False)

_FAULT_EVENTS = st.one_of(
    st.builds(ApOutage, at_s=_TIMES, duration_s=_WINDOWS),
    st.builds(
        ApFlap,
        start_s=_TIMES,
        count=st.integers(1, 3),
        down_s=_WINDOWS,
        up_s=_WINDOWS,
    ),
    st.builds(DhcpStall, at_s=_TIMES, duration_s=_WINDOWS),
    st.builds(DhcpNakBurst, at_s=_TIMES, duration_s=_WINDOWS),
    st.builds(LeaseExhaustion, at_s=_TIMES, duration_s=_WINDOWS),
    st.builds(
        BurstyLoss,
        at_s=_TIMES,
        duration_s=_WINDOWS,
        h_bad=st.floats(0.3, 0.9, allow_nan=False, allow_infinity=False),
    ),
    st.builds(
        RandomOutages,
        start_s=st.just(0.0),
        end_s=st.floats(5.0, 20.0, allow_nan=False, allow_infinity=False),
        rate_per_min=st.floats(1.0, 6.0, allow_nan=False, allow_infinity=False),
    ),
)

_PLANS = st.lists(_FAULT_EVENTS, min_size=0, max_size=3).map(
    lambda events: FaultPlan.of(*events)
)


class TestFaultPlanDeterminism:
    """Injected faults must not cost the system its reproducibility."""

    def _specs(self, plan):
        return [
            TownTrialSpec(
                factory=spider_factory(OperationMode.single_channel(1), 4),
                label="det-spider",
                seed=11,
                duration_s=20.0,
                faults=plan,
            ),
            TownTrialSpec(
                factory=stock_factory(),
                label="det-stock",
                seed=11,
                duration_s=20.0,
                faults=plan,
            ),
        ]

    def test_same_seed_same_plan_bit_identical(self):
        plan = FaultPlan.of(
            RandomOutages(start_s=0.0, end_s=20.0, rate_per_min=4.0),
            DhcpNakBurst(at_s=5.0, duration_s=10.0),
        )
        a = [run_town_trial_spec(spec) for spec in self._specs(plan)]
        b = [run_town_trial_spec(spec) for spec in self._specs(plan)]
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_empty_plan_equals_no_plan(self):
        # The fault machinery must consume zero randomness when inactive:
        # a trial with an empty plan is bit-identical to one with none.
        factory = spider_factory(OperationMode.single_channel(1), 4)
        bare = run_town_trial(factory, "x", seed=3, duration_s=20.0)
        empty = run_town_trial(
            factory, "x", seed=3, duration_s=20.0, faults=FaultPlan()
        )
        assert pickle.dumps(bare) == pickle.dumps(empty)

    @settings(max_examples=5, deadline=None)
    @given(plan=_PLANS)
    def test_serial_and_parallel_agree_for_any_plan(self, plan):
        serial = aggregate_town_trials(self._specs(plan), workers=1, strict=True)
        parallel = aggregate_town_trials(
            self._specs(plan), workers=2, strict=True
        )
        assert list(serial) == list(parallel) == ["det-spider", "det-stock"]
        for label in serial:
            assert pickle.dumps(serial[label].trials) == pickle.dumps(
                parallel[label].trials
            )
