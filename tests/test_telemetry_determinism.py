"""Telemetry determinism across process layouts.

The subsystem's transport promise (see ``repro.runner.pool``): snapshots
captured inside worker processes and merged in submission order are
bit-identical to a serial run, and a fleet vehicle's telemetry is its own
prefixed slice of the shared capture.  The hypothesis property pins the
merge algebra itself: order-preserving chunking never changes the merged
result.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trials
from repro.experiments.fleet import _run_fleet
from repro.experiments.town_runs import spider_factory
from repro.obs.telemetry import Telemetry, merge_snapshots


def _spider():
    return spider_factory(OperationMode.single_channel(1), 7)


# ----------------------------------------------------------------------
# Pool workers: serial vs parallel captures
# ----------------------------------------------------------------------
class TestWorkerDeterminism:
    def test_serial_and_parallel_telemetry_agree(self):
        serial = run_town_trials(
            _spider(), "det", seeds=(0, 1), duration_s=60.0,
            workers=1, telemetry=True,
        )
        parallel = run_town_trials(
            _spider(), "det", seeds=(0, 1), duration_s=60.0,
            workers=2, telemetry=True,
        )
        for s_trial, p_trial in zip(serial.trials, parallel.trials):
            # Wall-clock profiling legitimately differs across layouts;
            # the deterministic projection must not.
            assert (
                s_trial.telemetry.deterministic()
                == p_trial.telemetry.deterministic()
            )
        assert (
            serial.merged_telemetry().deterministic()
            == parallel.merged_telemetry().deterministic()
        )


# ----------------------------------------------------------------------
# The fleet: per-vehicle slices of one coupled capture
# ----------------------------------------------------------------------
class TestFleetShardDeterminism:
    def test_vehicle_slices_are_disjoint_by_prefix(self):
        row = _run_fleet(
            2, seed=1, duration_s=45.0, town_preset="amherst", telemetry=True
        )
        veh0, veh1 = row.vehicle_telemetry
        names0 = {c[0] for c in veh0.counters}
        names1 = {c[0] for c in veh1.counters}
        assert names0 and all(n.startswith("veh0.") for n in names0)
        assert names1 and all(n.startswith("veh1.") for n in names1)


# ----------------------------------------------------------------------
# Merge algebra properties
# ----------------------------------------------------------------------
_NAMES = ("alpha", "beta", "gamma")
_BOUNDS = (1.0, 5.0)


@st.composite
def _snapshots(draw):
    """A small synthetic capture; integer-valued so merges are exact."""
    tele = Telemetry()
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=4)):
        tele.counter("c." + name).inc(draw(st.integers(0, 100)))
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=2)):
        tele.gauge("g." + name).set(draw(st.integers(0, 100)))
    for value in draw(st.lists(st.integers(0, 10), max_size=3)):
        tele.histogram("h", bounds=_BOUNDS).observe(float(value))
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=2)):
        tele.begin_span("s." + name).end()
    return tele.snapshot()


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        snaps=st.lists(_snapshots(), max_size=8),
        parts=st.integers(min_value=1, max_value=5),
    )
    def test_chunked_merge_equals_flat_merge(self, snaps, parts):
        """Merging per chunk then across chunks == merging everything.

        This is exactly the shape of the pool's transport: results come
        back in submission order, so merging order-preserving contiguous
        chunks first must be a no-op.
        """
        flat = merge_snapshots(snaps, key=("final",))
        size = max(1, -(-len(snaps) // parts))
        chunks = [snaps[i : i + size] for i in range(0, len(snaps), size)]
        chunked = merge_snapshots(
            [
                merge_snapshots(chunk, key=("chunk", i))
                for i, chunk in enumerate(chunks)
            ],
            key=("final",),
        )
        assert chunked == flat
