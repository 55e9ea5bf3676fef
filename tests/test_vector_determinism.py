"""Vectorized vs scalar delivery must agree bit-for-bit at trial scale.

The PR-6 tentpole (array-backed candidate selection in
``repro.sim.medium_vec``) is only admissible because it is
semantics-preserving: every metric, every loss draw, every telemetry
counter must be bit-identical to the scalar delivery scan.  These tests
run whole town trials — fault plans included — under both paths and
compare the full metric surface, then pin the contract where it is
actually consumed: the ``dense_town`` experiment's TrialResult envelope
and telemetry export serialized to JSON, compared byte-for-byte
(``filecmp`` on the written artifacts), including over
hypothesis-generated random dense worlds.  The scalar side hides numpy
from :mod:`repro.sim.medium_vec` — the real no-numpy platform path.

The unit-level contract (numpy fallback, candidate-order equivalence on
hand-built worlds) lives in ``tests/test_medium_vector``.
"""

from __future__ import annotations

import filecmp
import json
from contextlib import contextmanager

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import OperationMode
from repro.experiments.api import to_jsonable
from repro.experiments.common import run_town_trial
from repro.experiments.dense_town import DenseTownSpec, run_dense_trial, run_spec
from repro.experiments.town_runs import spider_factory
from repro.obs.export import build_payload, collect_snapshots, write_payload
from repro.sim import medium_vec, radio
from repro.sim.faults import ApFlap, DhcpStall, FaultPlan, RandomOutages

TRIAL_S = 60.0

#: A small-but-dense world: enough APs that the vector path engages at the
#: real ``VECTOR_MIN_STATIONS`` threshold, small enough to run twice per
#: test without dominating the suite.
SMALL_DENSE = DenseTownSpec(
    duration_s=2.0,
    town="city",
    n_vehicles=3,
    loop_length_m=1500.0,
    ap_density_per_km=80.0,
    telemetry=True,
)


def _fingerprint(metrics):
    """Everything a town trial reports, minus the event counter."""
    return {
        "throughput": metrics.average_throughput_kBps,
        "connectivity": metrics.connectivity_pct,
        "connections": metrics.connection_durations_s,
        "disruptions": metrics.disruption_durations_s,
        "instantaneous": metrics.instantaneous_kBps,
        "links": metrics.links_established,
        "joins": [
            (
                a.bssid,
                a.channel,
                a.started_at,
                a.associated,
                a.leased,
                a.verified,
                a.join_time_s,
            )
            for a in metrics.join_log.attempts
        ],
    }


@contextmanager
def medium_path(vector):
    """Build media on the vector path, or on the scalar one by hiding numpy."""
    with pytest.MonkeyPatch.context() as mp:
        if not vector:
            mp.setattr(medium_vec, "_np", None)
        yield


def _trial(vector, factory, seed=0, faults=None):
    with medium_path(vector):
        return run_town_trial(
            factory, "det", seed=seed, duration_s=TRIAL_S, faults=faults
        )


class TestTownTrialBitIdentity:
    """Whole amherst trials, vector path forced on via a zero threshold."""

    @pytest.fixture(autouse=True)
    def _engage_vector_everywhere(self, monkeypatch):
        monkeypatch.setattr(radio, "VECTOR_MIN_STATIONS", 0)

    def test_spider_single_channel(self):
        factory = spider_factory(OperationMode.single_channel(1), 7)
        a = _fingerprint(_trial(False, factory))
        b = _fingerprint(_trial(True, factory))
        assert a == b

    def test_spider_multi_channel(self):
        factory = spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 4)
        a = _fingerprint(_trial(False, factory, seed=3))
        b = _fingerprint(_trial(True, factory, seed=3))
        assert a == b

    def test_under_fault_plan(self):
        """AP fail/recover reassigns registration sequence numbers and the
        bursty-loss chain perturbs the draw stream; the vector index must
        track both without disturbing a single draw."""
        plan = FaultPlan(
            events=(
                ApFlap(start_s=10.0, count=3, down_s=4.0, up_s=6.0),
                DhcpStall(at_s=25.0, duration_s=10.0),
                RandomOutages(start_s=0.0, end_s=TRIAL_S, rate_per_min=2.0),
            )
        )
        factory = spider_factory(OperationMode.single_channel(1), 7)
        a = _fingerprint(_trial(False, factory, seed=2, faults=plan))
        b = _fingerprint(_trial(True, factory, seed=2, faults=plan))
        assert a == b


class TestDenseTownBitIdentity:
    """The contract at the scale it was built for, on real thresholds."""

    def test_rows_identical_with_telemetry(self):
        with medium_path(False):
            scalar = run_dense_trial(SMALL_DENSE, seed=0)
        vector = run_dense_trial(SMALL_DENSE, seed=0)
        assert scalar == vector  # dataclass equality: bit-for-bit floats
        assert scalar.telemetry is not None

    def test_envelope_and_telemetry_export_byte_identical(self, tmp_path):
        """The artifacts users diff — ``--json-out`` and ``--telemetry``
        files — must be byte-identical, enforced with ``filecmp``."""
        paths = {}
        for label, vector in (("scalar", False), ("vector", True)):
            with medium_path(vector):
                envelope = run_spec(SMALL_DENSE)
            assert envelope.ok
            trial_path = tmp_path / f"{label}.json"
            trial_path.write_text(
                json.dumps(to_jsonable(envelope), sort_keys=True, indent=2)
            )
            telemetry_path = tmp_path / f"{label}-telemetry.json"
            write_payload(str(telemetry_path), collect_snapshots(envelope.value))
            paths[label] = (trial_path, telemetry_path)
        assert filecmp.cmp(paths["scalar"][0], paths["vector"][0], shallow=False)
        assert filecmp.cmp(paths["scalar"][1], paths["vector"][1], shallow=False)

    def test_vector_path_is_deterministic(self):
        a = run_dense_trial(SMALL_DENSE, seed=5)
        b = run_dense_trial(SMALL_DENSE, seed=5)
        assert a == b


class TestRandomGridProperty:
    """Hypothesis: byte-identity holds over arbitrary dense town grids."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        loop_length_m=st.sampled_from([1200.0, 1500.0, 1800.0]),
        ap_density_per_km=st.sampled_from([60.0, 80.0, 100.0]),
        loss_rate=st.sampled_from([0.0, 0.1, 0.25]),
        clustered=st.booleans(),
        n_vehicles=st.integers(min_value=2, max_value=3),
    )
    def test_random_grid_byte_identity(
        self, seed, loop_length_m, ap_density_per_km, loss_rate, clustered, n_vehicles
    ):
        spec = DenseTownSpec(
            seeds=(seed,),
            duration_s=1.5,
            town="city",
            n_vehicles=n_vehicles,
            loop_length_m=loop_length_m,
            ap_density_per_km=ap_density_per_km,
            loss_rate=loss_rate,
            clustered=clustered,
            telemetry=True,
        )
        dumps = {}
        for vector in (False, True):
            with medium_path(vector):
                envelope = run_spec(spec)
            assert envelope.ok
            dumps[vector] = (
                json.dumps(to_jsonable(envelope), sort_keys=True).encode(),
                json.dumps(
                    build_payload(collect_snapshots(envelope.value)), sort_keys=True
                ).encode(),
            )
        assert dumps[False] == dumps[True]
