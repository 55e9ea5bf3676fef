"""Byte-identity: contention OFF is indistinguishable from contention ABSENT.

The contention subsystem's contract: with the model off — whether because
the experiment spec's choice is absent (``contention=None``, the
historical default) or explicitly disabled
(``ContentionSpec(enabled=False)``) — every trial result must match byte
for byte, metrics *and* deterministic telemetry.
The disabled spec threads through the exact same construction path as an
enabled one (World → Medium), so this property proves the wiring itself
is inert: no stray RNG stream, no extra instrument, no reordered event.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.api import ExperimentSpec
from repro.experiments.common import TownTrialSpec, run_town_trial_spec
from repro.experiments.town_runs import standard_factories
from repro.sim.contention import ContentionSpec, resolve_contention
from repro.sim.engine import Simulator
from repro.sim.radio import Medium

TABLE2_LABELS = tuple(standard_factories())


def run_cell(label: str, seed: int, contention):
    spec = TownTrialSpec(
        factory=standard_factories()[label],
        label=label,
        seed=seed,
        duration_s=40.0,
        telemetry=True,
        stack=ExperimentSpec(contention=contention).stack,
    )
    return run_town_trial_spec(spec)


def strip_telemetry(metrics):
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
    def test_disabled_spec_is_byte_identical_to_none(self, label, seed):
        absent = run_cell(label, seed, contention=None)
        disabled = run_cell(
            label, seed, contention=ContentionSpec(enabled=False)
        )
        assert pickle.dumps(strip_telemetry(absent)) == pickle.dumps(
            strip_telemetry(disabled)
        )
        # Telemetry too: the contention instruments register only when the
        # model is on, so the deterministic exports match byte for byte.
        assert absent.telemetry is not None
        assert pickle.dumps(absent.telemetry.deterministic()) == pickle.dumps(
            disabled.telemetry.deterministic()
        )

    def test_cli_off_token_builds_the_disabled_spec(self):
        """``--contention off`` resolves to exactly the spec the grid uses."""
        assert resolve_contention("off") == ContentionSpec(enabled=False)
        assert resolve_contention(None) is None


class TestMediumStateIdentity:
    """At the Medium layer: the off paths share all observable state."""

    def states(self, contention):
        sim = Simulator(seed=11)
        medium = Medium(sim, loss_rate=0.0, contention=contention)
        return sim, medium

    @pytest.mark.parametrize(
        "off_spec", [None, ContentionSpec(enabled=False)]
    )
    def test_no_contention_stream_or_state(self, off_spec):
        sim, medium = self.states(off_spec)
        assert medium.contention is None
        # The dedicated RNG stream must never be drawn from — its mere
        # creation would shift no other stream (streams are independent),
        # but its absence is the cheapest proof nothing consulted it.
        assert "medium.contention" not in sim._streams
