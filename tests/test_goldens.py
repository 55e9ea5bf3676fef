"""Golden fingerprints: what the simulator reports, frozen in one file.

Each case runs a fixed workload and reduces everything it reports —
trial results plus, where the case runs with telemetry, the deterministic
telemetry projection; never a wall-clock field — to canonical sorted-key
JSON and then to a sha256.  ``tests/goldens.json`` holds each case's
digest next to a few headline counts (events, frames delivered, lost and
collided, joins), so a mismatch says what moved, not only that something
did.

The cases cover every delivery regime the medium has: the Table 2 grid
(scalar delivery, global per-channel FIFO), single-vehicle drives with
and without a fault plan, a small uncontended dense world (vector
delivery when numpy is installed), and two CSMA/CA worlds — the
250-vehicle city join storm and a compact three-channel fleet.  Every
case must match with numpy installed and without it: numpy only ever
changes how fast a result is reached.

There is deliberately no update switch.  A change that is meant to move
an output fails here and prints the new fingerprint; copy it into
``goldens.json`` in the same commit and say in the commit message why the
output moved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.schedule import OperationMode
from repro.experiments.api import to_jsonable
from repro.experiments.common import TownTrialSpec, run_town_trial, run_town_trial_spec
from repro.experiments.dense_town import DenseTownSpec, run_dense_trial
from repro.experiments.town_runs import spider_factory, standard_factories, stock_factory
from repro.sim.contention import ContentionSpec
from repro.sim.faults import ApFlap, DhcpStall, FaultPlan, RandomOutages

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: The small dense world of ``tests/test_vector_determinism.py``: enough
#: APs that the vector index engages at the real threshold.
SMALL_DENSE = DenseTownSpec(
    duration_s=2.0,
    town="city",
    n_vehicles=3,
    loop_length_m=1500.0,
    ap_density_per_km=80.0,
    telemetry=True,
)

#: The 250-vehicle contended city of the ``city_join_storm`` workload.
CONTENDED_CITY = DenseTownSpec(duration_s=1.0, contention=ContentionSpec())

#: The ``fleet_transfer`` shape: 16 vehicles on a compact city, Spider's
#: three-channel schedule, CSMA/CA on.  Run without telemetry, so neither
#: the engine's scheduling nor the hidden-terminal scan is wrapped: the
#: default path, as the benchmark workloads run it.
COMPACT_3CH = DenseTownSpec(
    duration_s=3.0,
    n_vehicles=16,
    channels=(1, 6, 11),
    contention=ContentionSpec(),
    loop_length_m=2000.0,
    ap_density_per_km=60.0,
)

DRIVE_S = 90.0


def digest(payload) -> str:
    """sha256 of ``payload`` as canonical sorted-key JSON."""
    text = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _town_payload(trials):
    """Town results with any telemetry reduced to its deterministic part."""
    return [
        {
            "metrics": replace(m, telemetry=None),
            "telemetry": m.telemetry.deterministic() if m.telemetry else None,
        }
        for m in trials
    ]


def _town_counts(trials):
    counts = {
        "events": sum(m.events_processed for m in trials),
        "join_attempts": sum(len(m.join_log.attempts) for m in trials),
        "joins": sum(len(m.join_log.join_times()) for m in trials),
        "links": sum(m.links_established for m in trials),
    }
    if all(m.telemetry is not None for m in trials):
        counts["frames_lost"] = int(
            sum(m.telemetry.counter_value("medium.drops") for m in trials)
        )
    return counts


def _dense_fingerprint(spec, seed=0):
    row = run_dense_trial(spec, seed=seed)
    return {
        "sha256": digest(row),
        "counts": {
            "events": row.events_processed,
            "frames_delivered": row.frames_delivered,
            "frames_lost": row.frames_lost,
            "frames_collided": row.frames_collided,
            "join_attempts": row.join_attempts,
            "joins": row.joins_completed,
        },
    }


def _town_fingerprint(trials):
    return {"sha256": digest(_town_payload(trials)), "counts": _town_counts(trials)}


def table2_grid():
    """The five Table 2 configurations, seeds 0-1, 60 s, with telemetry."""
    trials = [
        run_town_trial_spec(
            TownTrialSpec(
                factory=factory,
                label=label,
                seed=seed,
                duration_s=60.0,
                telemetry=True,
            )
        )
        for label, factory in standard_factories().items()
        for seed in (0, 1)
    ]
    return _town_fingerprint(trials)


def _drive(factory, seed, faults=None):
    return _town_fingerprint(
        [run_town_trial(factory, "det", seed=seed, duration_s=DRIVE_S, faults=faults)]
    )


def drive_spider_single_channel():
    return _drive(spider_factory(OperationMode.single_channel(1), 7), seed=0)


def drive_spider_multi_channel():
    return _drive(spider_factory(OperationMode.equal_split((1, 6, 11), 0.6), 4), seed=3)


def drive_stock():
    return _drive(stock_factory(), seed=1)


def drive_fault_plan():
    """The single-channel drive of seed 0 under AP flaps, a DHCP stall
    and random outages.  Seed 0 is the lowest seed whose vehicle joins
    (6 attempts, 4 joins), so the faults reach live joins and their
    timers: the 25-35 s stall fails the DHCP attempts started at 29.6 s
    and 31.4 s."""
    plan = FaultPlan(
        events=(
            ApFlap(start_s=10.0, count=3, down_s=4.0, up_s=6.0),
            DhcpStall(at_s=25.0, duration_s=10.0),
            RandomOutages(start_s=0.0, end_s=DRIVE_S, rate_per_min=2.0),
        )
    )
    return _drive(spider_factory(OperationMode.single_channel(1), 7), seed=0, faults=plan)


def contended_city():
    return _dense_fingerprint(replace(CONTENDED_CITY, telemetry=True))


def contended_compact_3ch():
    return _dense_fingerprint(COMPACT_3CH)


def small_dense():
    return _dense_fingerprint(SMALL_DENSE)


CASES = {
    fn.__name__: fn
    for fn in (
        table2_grid,
        drive_spider_single_channel,
        drive_spider_multi_channel,
        drive_stock,
        drive_fault_plan,
        contended_city,
        contended_compact_3ch,
        small_dense,
    )
}


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def test_every_golden_has_a_case():
    assert sorted(load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = load_goldens()[name]
    got = CASES[name]()
    assert got == want, (
        f"golden {name!r} moved; if the change is intended, commit this "
        f"entry to {GOLDENS_PATH.name}:\n"
        + json.dumps({name: got}, indent=2, sort_keys=True)
    )
