"""The medium's delivery lanes must not change a bit.

Frame delivery, TCP segment coalescing and open-bin recorder arithmetic
are only admissible because they are semantics-preserving.
The medium's four reference drives — Spider single- and multi-channel,
the stock driver, and a fault plan — are checked against the committed
golden fingerprints (``tests/goldens.json``).
"""

from __future__ import annotations

import test_goldens
from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trial
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
        """Fault-driven state changes land between queued deliveries; each
        frame must still see the world as it is at its own delivery."""
        _assert_golden("drive_fault_plan")

    def test_batched_path_is_deterministic(self):
        factory = spider_factory(OperationMode.single_channel(1), 7)
        a = run_town_trial(factory, "det", seed=8, duration_s=test_goldens.DRIVE_S)
        b = run_town_trial(factory, "det", seed=8, duration_s=test_goldens.DRIVE_S)
        assert test_goldens.digest(a) == test_goldens.digest(b)
