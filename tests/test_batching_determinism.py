"""Frame-event batching and fleet sharding must not change a single bit.

The PR-3 tentpole (frame-event batching, TCP segment coalescing, open-bin
recorder arithmetic, fleet sharding) is only admissible because it is
semantics-preserving.  The batched medium's four reference drives —
Spider single- and multi-channel, the stock driver, and a fault plan —
are checked against the committed golden fingerprints
(``tests/goldens.json``); sharded fleets are compared with a single
process.
"""

from __future__ import annotations

import pytest

import test_goldens
from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trial
from repro.experiments.fleet import _run_fleet, run_sharded_trial
from repro.experiments.town_runs import spider_factory


def _assert_golden(name):
    assert test_goldens.CASES[name]() == test_goldens.load_goldens()[name]


class TestBatchedBitIdentity:
    def test_spider_single_channel(self):
        _assert_golden("drive_spider_single_channel")

    def test_spider_multi_channel(self):
        _assert_golden("drive_spider_multi_channel")

    def test_stock_client(self):
        _assert_golden("drive_stock")

    def test_under_fault_plan(self):
        """Fault-driven state changes land between queued deliveries; the
        horizon logic must still replay the exact per-frame interleaving."""
        _assert_golden("drive_fault_plan")

    def test_batched_path_is_deterministic(self):
        factory = spider_factory(OperationMode.single_channel(1), 7)
        a = run_town_trial(factory, "det", seed=8, duration_s=test_goldens.DRIVE_S)
        b = run_town_trial(factory, "det", seed=8, duration_s=test_goldens.DRIVE_S)
        assert test_goldens.digest(a) == test_goldens.digest(b)


class TestShardedFleetBitIdentity:
    @pytest.mark.parametrize("n_vehicles", [1, 3])
    def test_sharded_equals_unsharded(self, n_vehicles):
        direct = _run_fleet(n_vehicles, seed=0, duration_s=60.0, town_preset="amherst")
        sharded = run_sharded_trial(
            n_vehicles, seed=0, duration_s=60.0, workers=2
        )
        assert sharded == direct  # dataclass equality: bit-for-bit floats

    def test_sharded_serial_equals_parallel(self):
        serial = run_sharded_trial(3, seed=1, duration_s=60.0, workers=1)
        parallel = run_sharded_trial(3, seed=1, duration_s=60.0, workers=3)
        assert serial == parallel
