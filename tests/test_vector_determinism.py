"""The receiver index must agree bit-for-bit with the reference walk at trial scale.

Every delivery resolves its receivers through
:class:`repro.sim.medium_vec.VectorIndex` — cached broadcast plans,
mobile horizons or snapshots — which is only admissible because it is
semantics-preserving: every metric, every loss draw, every telemetry
counter must be bit-identical to a walk over every candidate per frame.
These tests run whole town trials — fault plans included — on the index
(with and without numpy) and on the test-only reference walk
(``tests/reference_delivery.py``), compare the full metric surface, then
pin the contract where it is actually consumed: the ``dense_town``
experiment's TrialResult envelope and telemetry export serialized to
JSON, compared byte-for-byte (``filecmp`` on the written artifacts),
including over hypothesis-generated random dense worlds.  The engine's
own figures are the one exception: the index skips the delivery events
of beacons nobody can hear, which the reference walk delivers to nobody,
so event counts may only fall on the index paths.

The unit-level contract (hand-built worlds, horizons, invalidation) lives
in ``tests/test_medium_vector``.
"""

from __future__ import annotations

import filecmp
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_delivery import PATHS, delivery_path

from repro.core.schedule import OperationMode
from repro.experiments.api import to_jsonable
from repro.experiments.common import run_town_trial
from repro.experiments.dense_town import DenseTownSpec, run_dense_trial, run_spec
from repro.experiments.town_runs import spider_factory
from repro.obs.export import build_payload, collect_snapshots, write_payload
from repro.sim.faults import ApFlap, DhcpStall, FaultPlan, RandomOutages

TRIAL_S = 60.0

#: The engine figures the index may lower against the reference walk:
#: each skipped beacon delivery is one event and one ``Medium._deliver``
#: dispatch fewer, and the heap's high-water mark moves with them.
ENGINE_FIGURES = frozenset(
    {
        "events_processed",
        "engine.events",
        "engine.dispatch.Medium._deliver",
        "engine.heap_depth",
    }
)


def _results(artifact):
    """A JSON-able artifact without :data:`ENGINE_FIGURES`: dict keys, and
    ``[name, ...]`` entries of telemetry counter and gauge lists."""
    if isinstance(artifact, dict):
        return {
            key: _results(value)
            for key, value in artifact.items()
            if key not in ENGINE_FIGURES
        }
    if isinstance(artifact, list):
        return [
            _results(item)
            for item in artifact
            if not (isinstance(item, list) and item and item[0] in ENGINE_FIGURES)
        ]
    return artifact


def _events(artifact):
    """Every ``events_processed`` figure in a JSON-able artifact."""
    if isinstance(artifact, dict):
        return [
            n
            for key, value in artifact.items()
            for n in ([value] if key == "events_processed" else _events(value))
        ]
    if isinstance(artifact, list):
        return [n for item in artifact for n in _events(item)]
    return []

#: A small-but-dense world: three vehicles among ~120 APs, small enough
#: to run on every path per test.
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


def _trial(path, factory, seed=0, faults=None):
    with delivery_path(path):
        return run_town_trial(
            factory, "det", seed=seed, duration_s=TRIAL_S, faults=faults
        )


def _assert_paths_agree(factory, seed=0, faults=None):
    reference, *indexed = [
        _fingerprint(_trial(path, factory, seed=seed, faults=faults)) for path in PATHS
    ]
    for fingerprint in indexed:
        assert fingerprint == reference


class TestTownTrialBitIdentity:
    """Whole amherst trials: the index against the reference walk."""

    def test_spider_single_channel(self):
        _assert_paths_agree(spider_factory(OperationMode.single_channel(1), 7))

    def test_spider_multi_channel(self):
        _assert_paths_agree(
            spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 4), seed=3
        )

    def test_under_fault_plan(self):
        """AP fail/recover reassigns registration sequence numbers and
        drops every plan and horizon, and the bursty-loss chain perturbs
        the draw stream; the index must track both without disturbing a
        single draw."""
        plan = FaultPlan(
            events=(
                ApFlap(start_s=10.0, count=3, down_s=4.0, up_s=6.0),
                DhcpStall(at_s=25.0, duration_s=10.0),
                RandomOutages(start_s=0.0, end_s=TRIAL_S, rate_per_min=2.0),
            )
        )
        _assert_paths_agree(
            spider_factory(OperationMode.single_channel(1), 7), seed=2, faults=plan
        )


class TestDenseTownBitIdentity:
    """The contract on a dense world with several vehicles."""

    def test_rows_identical_with_telemetry(self):
        with delivery_path("reference"):
            reference = to_jsonable(run_dense_trial(SMALL_DENSE, seed=0))
        for path in PATHS[1:]:
            with delivery_path(path):
                row = to_jsonable(run_dense_trial(SMALL_DENSE, seed=0))
            assert _results(row) == _results(reference)
            assert row["events_processed"] <= reference["events_processed"]
        assert reference["telemetry"] is not None

    def test_envelope_and_telemetry_export_byte_identical(self, tmp_path):
        """The artifacts users diff — ``--json-out`` and ``--telemetry``
        files — must be byte-identical, enforced with ``filecmp``."""
        paths, events = {}, {}
        for path in PATHS:
            with delivery_path(path):
                envelope = run_spec(SMALL_DENSE)
            assert envelope.ok
            artifact = to_jsonable(envelope)
            events[path] = _events(artifact)
            trial_path = tmp_path / f"{path}.json"
            trial_path.write_text(
                json.dumps(_results(artifact), sort_keys=True, indent=2)
            )
            exported = tmp_path / f"{path}-export.json"
            write_payload(str(exported), collect_snapshots(envelope.value))
            telemetry_path = tmp_path / f"{path}-telemetry.json"
            telemetry_path.write_text(
                json.dumps(_results(json.loads(exported.read_text())), sort_keys=True)
            )
            paths[path] = (trial_path, telemetry_path)
        for path in PATHS[1:]:
            assert filecmp.cmp(paths["reference"][0], paths[path][0], shallow=False)
            assert filecmp.cmp(paths["reference"][1], paths[path][1], shallow=False)
            assert all(n <= r for n, r in zip(events[path], events["reference"]))

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
        for path in ("reference", "index"):
            with delivery_path(path):
                envelope = run_spec(spec)
            assert envelope.ok
            dumps[path] = (
                json.dumps(_results(to_jsonable(envelope)), sort_keys=True).encode(),
                json.dumps(
                    _results(build_payload(collect_snapshots(envelope.value))),
                    sort_keys=True,
                ).encode(),
            )
        assert dumps["reference"] == dumps["index"]
