"""Carrier sense, checked as a physical invariant of whole contended runs.

A sender senses the busy horizon of its 3x3 cell neighbourhood and books
airtime only once that horizon has passed.  So no two grants on one
channel whose sender cells lie within one cell of each other may overlap
in airtime, and no cell's own grants may add up to more airtime than the
span they cover.  The identity tests prove the optimized state agrees
with a reference; this proves both are physically sound.

Every grant is captured by wrapping ``ContentionState.acquire`` — the
state's public entry point — while the two contended golden worlds run
exactly as ``tests/test_goldens.py`` runs them, so the check reads
nothing of the state's sense grid or flight storage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

from test_goldens import COMPACT_3CH, CONTENDED_CITY

from repro.experiments.dense_town import run_dense_trial
from repro.sim.contention import ContentionState

#: Forward neighbours (plus the cell itself): each unordered pair of
#: cells within one cell of each other is visited exactly once.
FORWARD = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


def granted_airtime(spec, seed=0):
    """Run one dense trial; return ``{(channel, cx, cy): [(start, done)]}``
    over every grant, keyed by the sender's cell at grant time, sorted."""
    grants = defaultdict(list)
    acquire = ContentionState.acquire

    def recording(self, sender_id, channel, x, y, airtime, priority=False):
        result = acquire(self, sender_id, channel, x, y, airtime, priority)
        granted, start, done = result
        if granted:
            cell = (channel, int(x // self._bin_m), int(y // self._bin_m))
            grants[cell].append((start, done))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContentionState, "acquire", recording)
        run_dense_trial(spec, seed=seed)
    return {cell: sorted(spans) for cell, spans in grants.items()}


def overlaps(grants):
    """Overlapping airtime between grants of neighbouring (or the same)
    sender cells, plus the number of grant pairs compared."""
    found = []
    pairs = 0
    for (channel, cx, cy), own in grants.items():
        for dx, dy in FORWARD:
            if (dx, dy) == (0, 0):
                merged = own
                pairs += len(own) * (len(own) - 1) // 2
            else:
                other = grants.get((channel, cx + dx, cy + dy))
                if other is None:
                    continue
                merged = sorted(own + other)
                pairs += len(own) * len(other)
            # Sorted by start, a set of spans is pairwise disjoint exactly
            # when every span ends by the time the next one starts.
            for (s1, d1), (s2, d2) in zip(merged, merged[1:]):
                if s2 < d1:
                    found.append(((channel, cx, cy), (dx, dy), (s1, d1), (s2, d2)))
    return found, pairs


def airtime_shares(grants):
    """Each cell's granted airtime over the span from its first start to
    its last end."""
    return {
        cell: sum(done - start for start, done in spans)
        / (max(done for _, done in spans) - spans[0][0])
        for cell, spans in grants.items()
    }


class TestOverlapChecker:
    """The checker itself, on hand-made grants."""

    def test_neighbouring_overlap_is_found(self):
        grants = {(1, 0, 0): [(0.0, 1.0)], (1, 1, 1): [(0.5, 1.5)]}
        found, pairs = overlaps(grants)
        assert len(found) == 1 and pairs == 1

    def test_same_cell_overlap_is_found(self):
        found, _ = overlaps({(1, 3, 3): [(0.0, 1.0), (0.999, 2.0)]})
        assert len(found) == 1

    def test_back_to_back_and_distant_grants_pass(self):
        grants = {
            (1, 0, 0): [(0.0, 1.0), (1.0, 2.0)],
            (1, 0, 1): [(2.0, 3.0)],
            (1, 2, 0): [(0.0, 3.0)],  # two cells out: a hidden terminal
            (6, 0, 0): [(0.5, 1.5)],  # another channel
        }
        found, _ = overlaps(grants)
        assert found == []
        assert max(airtime_shares(grants).values()) == 1.0


@pytest.mark.parametrize(
    "spec",
    [replace(CONTENDED_CITY, telemetry=True), COMPACT_3CH],
    ids=["contended_city", "compact_3ch"],
)
def test_no_overlapping_grants_in_a_sense_neighbourhood(spec):
    grants = granted_airtime(spec)
    found, pairs = overlaps(grants)
    assert found == [], found[:5]
    # The run must actually crowd neighbouring cells for this to mean
    # anything.
    assert sum(len(spans) for spans in grants.values()) > 1000
    assert pairs > 100_000
    shares = airtime_shares(grants)
    assert max(shares.values()) <= 1.0 + 1e-9
