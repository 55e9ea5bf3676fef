"""Tests for the fleet experiment."""

from __future__ import annotations

import pytest

from repro.experiments.fleet import FleetResult, FleetRow, FleetSpec, run_spec


class TestFleetRun:
    @pytest.fixture(scope="class")
    def result(self) -> FleetResult:
        return run_spec(
            FleetSpec(fleet_sizes=(1, 2), seeds=(0,), duration_s=120.0)
        ).unwrap()

    def test_rows_match_requested_sizes(self, result):
        assert [r.vehicles for r in result.rows] == [1, 2]

    def test_aggregate_consistent_with_per_vehicle(self, result):
        for row in result.rows:
            assert row.aggregate_kBps == pytest.approx(
                row.per_vehicle_kBps * row.vehicles
            )

    def test_connectivity_bounded(self, result):
        for row in result.rows:
            assert 0.0 <= row.mean_connectivity_pct <= 100.0

    def test_render_contains_rows(self, result):
        text = result.render()
        assert "Fleet scaling" in text
        assert "kB/s" in text


class TestFleetPredicates:
    def test_aggregate_grows_predicate(self):
        growing = FleetResult(
            rows=[FleetRow(1, 100, 100, 20), FleetRow(2, 60, 120, 20)]
        )
        assert growing.aggregate_grows()
        shrinking = FleetResult(
            rows=[FleetRow(1, 100, 100, 20), FleetRow(2, 10, 20, 20)]
        )
        assert not shrinking.aggregate_grows()

    def test_graceful_decline_predicate(self):
        graceful = FleetResult(
            rows=[FleetRow(1, 100, 100, 20), FleetRow(5, 40, 200, 20)]
        )
        assert graceful.per_vehicle_declines_gracefully()
        collapsed = FleetResult(
            rows=[FleetRow(1, 100, 100, 20), FleetRow(5, 5, 25, 20)]
        )
        assert not collapsed.per_vehicle_declines_gracefully()
