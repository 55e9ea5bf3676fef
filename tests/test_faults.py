"""The fault-injection subsystem: plans, the GE chain, and the injector.

The subsystem's contract has three legs: fault plans are picklable values
(they ride inside trial specs), every stochastic choice comes from the
dedicated ``faults.*``/``medium.gilbert`` RNG streams (same seed, same
faults), and installed plans actually damage the world on schedule — and
the hardened client layers survive the damage.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.faults import (
    ApFlap,
    ApOutage,
    BurstyLoss,
    DhcpNakBurst,
    DhcpStall,
    FaultInjector,
    FaultPlan,
    GilbertElliottLoss,
    LeaseExhaustion,
    RandomOutages,
    install_faults,
)
from repro.sim.world import World

from conftest import make_lab_ap
from test_failure_injection import spider_on


class TestFaultPlanValue:
    def test_plans_pickle_and_compare(self):
        plan = FaultPlan.of(
            ApOutage(at_s=5.0, duration_s=3.0),
            ApFlap(start_s=10.0, count=2),
            DhcpStall(at_s=1.0, duration_s=4.0),
            DhcpNakBurst(at_s=2.0, duration_s=4.0),
            LeaseExhaustion(at_s=3.0, duration_s=4.0),
            BurstyLoss(at_s=0.0),
            RandomOutages(start_s=0.0, end_s=60.0),
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert not FaultPlan.of()
        assert FaultPlan.of(ApOutage(at_s=1.0))

    def test_install_none_and_empty_are_noops(self, sim, world):
        assert install_faults(sim, world, None) is None
        assert install_faults(sim, world, FaultPlan()) is None
        assert sim.events_processed == 0

    def test_double_install_rejected(self, sim, world):
        make_lab_ap(world)
        injector = FaultInjector(sim, world, FaultPlan.of(ApOutage(at_s=1.0)))
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()


class TestGilbertElliott:
    def test_trajectory_deterministic_per_seed(self):
        def trajectory(seed):
            model = GilbertElliottLoss(
                random.Random(seed), 0.02, 0.6, mean_good_s=2.0, mean_bad_s=1.0
            )
            return [model.loss_rate_at(t * 0.5) for t in range(100)]

        assert trajectory(7) == trajectory(7)
        assert trajectory(7) != trajectory(8)

    def test_same_instant_is_idempotent(self):
        model = GilbertElliottLoss(
            random.Random(3), 0.1, 0.9, mean_good_s=1.0, mean_bad_s=1.0
        )
        first = model.loss_rate_at(17.0)
        transitions = model.transitions
        assert model.loss_rate_at(17.0) == first
        assert model.transitions == transitions

    def test_both_states_visited(self):
        model = GilbertElliottLoss(
            random.Random(1), 0.0, 0.5, mean_good_s=1.0, mean_bad_s=1.0
        )
        rates = {model.loss_rate_at(float(t)) for t in range(200)}
        assert rates == {0.0, 0.5}
        assert model.transitions > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(0), -0.1, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(0), 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(0), 0.1, 0.5, 0.0, 1.0)


class TestApFailRecover:
    def test_outage_window_fires_on_schedule(self, sim, world):
        ap = make_lab_ap(world)
        injector = install_faults(
            sim, world, FaultPlan.of(ApOutage(at_s=5.0, duration_s=3.0, bssid=ap.bssid))
        )
        sim.run(until=4.9)
        assert not ap.failed
        sim.run(until=6.0)
        assert ap.failed
        sim.run(until=10.0)
        assert not ap.failed
        assert ap.failures == 1
        assert [(t, a) for t, a, _ in injector.injected] == [
            (5.0, "ap_fail"), (8.0, "ap_recover")
        ]

    def test_permanent_outage_never_recovers(self, sim, world):
        ap = make_lab_ap(world)
        install_faults(
            sim, world, FaultPlan.of(ApOutage(at_s=2.0, bssid=ap.bssid))
        )
        sim.run(until=30.0)
        assert ap.failed

    def test_failed_ap_stops_beaconing(self, sim, world):
        ap = make_lab_ap(world)
        client = spider_on(sim, world, num_interfaces=1)
        sim.run(until=3.0)
        assert client.lmm.established_count == 1
        ap.fail()
        entry = client.nic.scan_table.get(ap.bssid)
        last_seen = entry.last_seen
        sim.run(until=10.0)
        entry = client.nic.scan_table.get(ap.bssid)
        # No fresh beacons: the entry either aged out or kept its timestamp.
        assert entry is None or entry.last_seen == last_seen

    def test_flap_counts_cycles(self, sim, world):
        ap = make_lab_ap(world)
        install_faults(
            sim,
            world,
            FaultPlan.of(
                ApFlap(start_s=1.0, count=3, down_s=1.0, up_s=1.0, bssid=ap.bssid)
            ),
        )
        sim.run(until=10.0)
        assert ap.failures == 3
        assert not ap.failed

    def test_random_outages_deterministic_per_seed(self):
        def schedule(seed):
            sim = Simulator(seed=seed)
            world = World(sim, loss_rate=0.0)
            for x in (10.0, 40.0, 80.0):
                make_lab_ap(world, x=x)
            injector = install_faults(
                sim,
                world,
                FaultPlan.of(
                    RandomOutages(start_s=0.0, end_s=120.0, rate_per_min=10.0)
                ),
            )
            sim.run(until=120.0)
            return injector.injected

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)
        assert any(action == "ap_fail" for _, action, _ in schedule(5))


class TestDhcpWindows:
    def test_stall_drops_requests_and_blocks_join(self, sim, world):
        ap = make_lab_ap(world)
        ap.dhcp.stall(until_s=8.0)
        client = spider_on(sim, world, num_interfaces=1, dhcp_budget_s=1.0)
        sim.run(until=7.0)
        assert client.lmm.established_count == 0
        assert ap.dhcp.requests_dropped > 0
        reached = [a for a in client.join_log.attempts if a.associated]
        assert reached and all(not a.leased for a in reached)

    def test_exhaustion_blocks_new_clients_until_window_ends(self, sim, world):
        ap = make_lab_ap(world)
        ap.dhcp.exhaust(until_s=6.0)
        client = spider_on(
            sim, world, num_interfaces=1, dhcp_budget_s=1.0,
            dhcp_idle_after_failure_s=1.0,
        )
        sim.run(until=5.0)
        assert client.lmm.established_count == 0
        assert ap.dhcp.acks_sent == 0
        sim.run(until=20.0)
        assert client.lmm.established_count == 1

    def test_nak_burst_counts_naks_on_both_ends(self, sim, world):
        ap = make_lab_ap(world)
        client = spider_on(sim, world, num_interfaces=1)
        sim.run(until=3.0)
        assert client.lmm.established_count == 1
        # Server forgets bindings and NAKs while the client renegotiates.
        ap.dhcp.force_nak(until_s=15.0)
        ap.fail()
        sim.schedule_at(4.0, ap.recover)
        sim.run(until=12.0)
        assert ap.dhcp.naks_sent > 0
        assert client.join_log.nak_count() > 0

    def test_installer_hits_every_server_when_untargeted(self, sim, world):
        aps = [make_lab_ap(world, x=x) for x in (10.0, 50.0)]
        install_faults(
            sim, world, FaultPlan.of(DhcpStall(at_s=1.0, duration_s=5.0))
        )
        sim.run(until=2.0)
        assert all(ap.dhcp.offline_until == 6.0 for ap in aps)


class TestBurstyLossInstall:
    def test_window_swaps_medium_model_in_and_out(self, sim, world):
        install_faults(
            sim,
            world,
            FaultPlan.of(BurstyLoss(at_s=2.0, duration_s=3.0, h_bad=0.9)),
        )
        assert world.medium.bursty_loss is None
        sim.run(until=2.5)
        model = world.medium.bursty_loss
        assert isinstance(model, GilbertElliottLoss)
        assert model.h_bad == 0.9
        sim.run(until=6.0)
        assert world.medium.bursty_loss is None

    def test_stationary_loss_report_unaffected(self, sim, world):
        # airtime/packet-loss reporting stays on the configured i.i.d. rate;
        # only per-delivery draws consult the bursty chain.
        base = world.medium
        install_faults(sim, world, FaultPlan.of(BurstyLoss(at_s=0.0, h_bad=0.9)))
        sim.run(until=1.0)
        assert base.loss_rate == 0.0


class TestFaultedTrialDeterminism:
    def test_same_seed_same_plan_identical_injection_log(self):
        plan = FaultPlan.of(
            RandomOutages(start_s=5.0, end_s=60.0, rate_per_min=6.0),
            DhcpNakBurst(at_s=10.0, duration_s=20.0),
            BurstyLoss(at_s=0.0),
        )

        def drive(seed):
            sim = Simulator(seed=seed)
            world = World(sim, loss_rate=0.05)
            for x in (10.0, 40.0):
                make_lab_ap(world, x=x)
            injector = install_faults(sim, world, plan)
            client = spider_on(sim, world, num_interfaces=2)
            sim.run(until=60.0)
            history = [
                (a.bssid, a.started_at, a.verified, a.failure_reason, a.nak_received)
                for a in client.join_log.attempts
            ]
            return injector.injected, history, sim.events_processed

        assert drive(42) == drive(42)
        assert drive(42) != drive(43)


class TestFaultSweepSmoke:
    def test_sweep_runs_and_renders(self):
        from repro.experiments import fault_sweep

        result = fault_sweep.run_spec(
            fault_sweep.FaultSweepSpec(
                seeds=(0,),
                duration_s=40.0,
                scenario_names=(fault_sweep.BASELINE_SCENARIO, "dhcp stall"),
            )
        ).unwrap()
        assert len(result.rows) == 4  # 2 scenarios x 2 clients
        text = result.render()
        assert "dhcp stall" in text and "Spider" in text
        spider_base = result.row(fault_sweep.BASELINE_SCENARIO, fault_sweep.SPIDER)
        assert spider_base.attempts > 0

    def test_unknown_scenario_rejected(self):
        from repro.experiments import fault_sweep

        envelope = fault_sweep.run_spec(
            fault_sweep.FaultSweepSpec(
                seeds=(0,), duration_s=10.0, scenario_names=("nope",)
            )
        )
        assert not envelope.ok
        assert envelope.error.startswith("KeyError: ")
        assert "unknown scenarios" in envelope.error
