"""Every world and every TCP sender an experiment builds gets its spec's
contention and transport selection.

The CLI's ``--contention`` and ``--cc``/``--split`` flags fill
``ExperimentSpec.contention`` and ``ExperimentSpec.transport``.  An
experiment that builds a world without them silently runs the global
airtime FIFO or the default sender instead of what was asked for.  Each
registered experiment that builds a :class:`~repro.sim.world.World` runs
here at toy scale with a non-default choice of both, while spies on
``World.__init__`` and ``TcpSender.__init__`` record what every world and
every sender actually got.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import (
    ap_density,
    channel_assign,
    dense_town,
    fault_sweep,
    fig5_association,
    fig6_dhcp,
    fig7_tcp_fraction,
    fig8_tcp_dwell,
    fig10_micro,
    fig11_13_cdfs,
    fig14_join_timeouts,
    fig15_join_policies,
    fig16_17_usability,
    fleet,
    speed_sweep,
    table1_switch_latency,
    table2_configs,
    table3_dhcp_failures,
    table4_channels,
    transport_matrix,
)
from repro.experiments.api import REGISTRY, run_experiment
from repro.experiments.town_runs import CONFIG_CH1_MULTI_AP
from repro.sim.cc import TransportSpec
from repro.sim.contention import ContentionSpec
from repro.sim.tcp import TcpSender
from repro.sim.world import World

CONTENTION = ContentionSpec()
TRANSPORT = TransportSpec(cc="cubic", mss=1000)

#: Pure analytic models: they build no world at all.
NO_WORLD = frozenset({"fig2", "fig3", "fig4", "knapsack"})

#: The experiments whose own grid sets each trial's transport.
OWN_TRANSPORT = {
    # The matrix's cc x split axes are what it varies, so every cell
    # builds its world and senders with that cell's TransportSpec.
    "transport-matrix",
}

GRID_LABEL = "ch1, ll=100ms, dhcp=200ms, 7if"

TOY_SPECS = {
    "density": ap_density.DensitySpec(towns=("sparse",), duration_s=15.0),
    "dense-town": dense_town.DenseTownSpec(
        duration_s=1.0, n_vehicles=2, loop_length_m=1500.0, ap_density_per_km=40.0
    ),
    "channel-assign": channel_assign.ChannelAssignSpec(
        duration_s=1.0,
        n_vehicles=2,
        strategies=("measured",),
        policies=("single-ch6",),
        loop_length_m=1200.0,
        ap_density_per_km=40.0,
    ),
    "fig5": fig5_association.Fig5Spec(fractions=(1.0,), duration_s=15.0),
    "fig6": fig6_dhcp.Fig6Spec(
        configs=(fig6_dhcp.PAPER_CONFIGS[2],), duration_s=15.0
    ),
    "fig7": fig7_tcp_fraction.Fig7Spec(fractions=(1.0,), measure_s=2.0),
    "fig8": fig8_tcp_dwell.Fig8Spec(dwells_ms=(100.0,), measure_s=2.0),
    "fig10": fig10_micro.Fig10Spec(
        backhauls_mbps=(1.0,),
        labels=("one card, stock", "Spider (100,0,0)"),
        measure_s=2.0,
    ),
    "fig11-13": fig11_13_cdfs.Fig11to13Spec(
        duration_s=15.0, labels=(CONFIG_CH1_MULTI_AP,)
    ),
    "fig14": fig14_join_timeouts.Fig14Spec(duration_s=15.0, labels=(GRID_LABEL,)),
    "fig15": fig15_join_policies.Fig15Spec(duration_s=15.0, labels=(GRID_LABEL,)),
    "fig16-17": fig16_17_usability.UsabilitySpec(duration_s=15.0),
    "fault-sweep": fault_sweep.FaultSweepSpec(
        duration_s=15.0, scenario_names=(fault_sweep.BASELINE_SCENARIO,)
    ),
    "fleet": fleet.FleetSpec(fleet_sizes=(2,), duration_s=15.0),
    "speed-sweep": speed_sweep.SpeedSweepSpec(speeds_mps=(10.0,), duration_s=15.0),
    "table1": table1_switch_latency.Table1Spec(interface_counts=(1,), switches=2),
    "table2": table2_configs.Table2Spec(duration_s=15.0, include_cambridge=False),
    "table3": table3_dhcp_failures.Table3Spec(duration_s=15.0, labels=(GRID_LABEL,)),
    "table4": table4_channels.Table4Spec(duration_s=15.0),
    "transport-matrix": transport_matrix.TransportMatrixSpec(
        duration_s=15.0,
        policies=(CONFIG_CH1_MULTI_AP,),
        ccs=("reno",),
        splits=(False,),
    ),
}


@pytest.fixture
def built(monkeypatch):
    """Record ``(contention, transport)`` per world and the transport per
    sender, as each one finishes construction."""
    worlds, senders = [], []
    world_init, sender_init = World.__init__, TcpSender.__init__

    def spy_world(self, *args, **kwargs):
        world_init(self, *args, **kwargs)
        worlds.append((self.contention, self.transport))

    def spy_sender(self, *args, **kwargs):
        sender_init(self, *args, **kwargs)
        senders.append(self.transport)

    monkeypatch.setattr(World, "__init__", spy_world)
    monkeypatch.setattr(TcpSender, "__init__", spy_sender)
    # Worlds must be built in this process, and never replayed from a cache.
    for knob in ("REPRO_WORKERS", "REPRO_CACHE", "REPRO_FABRIC"):
        monkeypatch.delenv(knob, raising=False)
    return worlds, senders


def test_every_registered_experiment_is_covered():
    assert set(TOY_SPECS) | NO_WORLD == set(REGISTRY)
    assert not set(TOY_SPECS) & NO_WORLD


@pytest.mark.parametrize("name", sorted(TOY_SPECS))
def test_every_world_and_sender_gets_the_spec(name, built):
    worlds, senders = built
    spec = replace(
        TOY_SPECS[name],
        seeds=(0,),
        workers=1,
        cache=False,
        contention=CONTENTION,
        transport=TRANSPORT,
    )
    run_experiment(name, spec).unwrap()
    assert worlds, f"{name} built no world"
    assert all(contention == CONTENTION for contention, _ in worlds), name
    if name in OWN_TRANSPORT:
        return
    assert all(transport == TRANSPORT for _, transport in worlds), name
    assert all(transport == TRANSPORT for transport in senders), name
