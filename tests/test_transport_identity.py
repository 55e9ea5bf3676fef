"""Byte-identity: Reno behind the CC interface matches the legacy path.

The refactor's contract: extracting congestion control into
:mod:`repro.sim.cc` must not change a single byte of any default-transport
result.  Two equivalent selections — an experiment spec's
``transport=None`` (the historical default) and an explicit
``TransportSpec()`` (what ``--cc reno`` builds) — must produce identical
metrics *and* identical telemetry snapshots across the table2/fig8 grids
once their spec's ``stack`` carries them to the world.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.api import ExperimentSpec
from repro.experiments.common import TownTrialSpec, run_town_trial_spec
from repro.experiments.fig7_tcp_fraction import measure_lab_throughput
from repro.experiments.town_runs import standard_factories
from repro.sim.cc import TransportSpec
from repro.sim.engine import Simulator
from repro.sim.frames import TcpSegment
from repro.sim.tcp import TcpReceiver, TcpSender

TABLE2_LABELS = tuple(standard_factories())


def run_cell(label: str, seed: int, transport):
    spec = TownTrialSpec(
        factory=standard_factories()[label],
        label=label,
        seed=seed,
        duration_s=40.0,
        telemetry=True,
        stack=ExperimentSpec(transport=transport).stack,
    )
    return run_town_trial_spec(spec)


def strip_telemetry(metrics):
    """The metric fields alone (telemetry compared separately)."""
    from dataclasses import replace

    return replace(metrics, telemetry=None)


class TestTable2GridIdentity:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        label=st.sampled_from(TABLE2_LABELS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_explicit_reno_is_byte_identical_to_default(self, label, seed):
        default = run_cell(label, seed, transport=None)
        explicit = run_cell(label, seed, transport=TransportSpec())
        assert pickle.dumps(strip_telemetry(default)) == pickle.dumps(
            strip_telemetry(explicit)
        )
        # Telemetry too: per-CC instruments register only for non-default
        # transports, so the exports match byte for byte.
        assert default.telemetry is not None
        assert pickle.dumps(default.telemetry.deterministic()) == pickle.dumps(
            explicit.telemetry.deterministic()
        )


class TestFig8Identity:
    @pytest.mark.parametrize("dwell_ms", [66.0, 300.0])
    def test_lab_throughput_identical(self, dwell_ms):
        from repro.core.schedule import OperationMode

        period_s = 3.0 * dwell_ms / 1e3
        mode = OperationMode.equal_split((1, 6, 11), period_s)
        default = measure_lab_throughput(mode, measure_s=20.0)
        explicit = measure_lab_throughput(
            mode,
            measure_s=20.0,
            stack=ExperimentSpec(transport=TransportSpec()).stack,
        )
        assert default == explicit


class TestSegmentTraceIdentity:
    """At the TCP layer: the default and an explicit Reno transport emit the
    identical segment trace under identical loss."""

    def run_pipe(self, build_sender):
        sim = Simulator(seed=3)
        trace = []
        holder = {}

        def down(segment: TcpSegment) -> None:
            trace.append(
                (sim.now, segment.seq, segment.payload_bytes, segment.retransmit)
            )
            if (segment.seq // 1400) % 7 == 3 and not segment.retransmit:
                return  # deterministic drop pattern
            sim.schedule(0.05, receiver.on_segment, segment)

        def up(ack: TcpSegment) -> None:
            sim.schedule(0.05, holder["sender"].on_ack, ack)

        receiver = TcpReceiver(
            sim, "f", "c", "s", send_ack=up, on_deliver=lambda n: None
        )
        holder["sender"] = build_sender(sim, down)
        holder["sender"].start()
        sim.run(until=30.0)
        return trace

    def test_default_and_explicit_reno_identical(self):
        def default(sim, down):
            return TcpSender(sim, "f", "s", "c", transmit=down, total_bytes=80_000)

        def via_transport(sim, down):
            return TcpSender(
                sim, "f", "s", "c", transmit=down, total_bytes=80_000,
                transport=TransportSpec(),
            )

        traces = [self.run_pipe(build) for build in (default, via_transport)]
        assert traces[0] == traces[1]
        assert len(traces[0]) > 50  # the run actually did something
