"""The parallel trial runner: pool mechanics and determinism guarantees.

The load-bearing property is at the bottom: a parallel ``run_town_trials``
(workers=4) must produce **bit-identical** metrics to the serial path for
the same seeds, because every trial rebuilds its simulator from its spec
alone and results merge in submission order.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from unittest import mock

import pytest

from repro.core.schedule import OperationMode
from repro.experiments.common import (
    TownTrialSpec,
    run_town_trial_envelopes,
    run_town_trial_specs,
    run_town_trials,
    salvage_town_trials,
)
from repro.experiments.town_runs import spider_factory, stock_factory
from repro.runner import (
    TrialError,
    TrialJob,
    TrialResult,
    resolve_trial_retries,
    resolve_trial_timeout,
    resolve_workers,
    run_jobs,
    unwrap_all,
)
from repro.runner.pool import (
    RETRIES_ENV,
    TIMEOUT_ENV,
    WORKERS_ENV,
    TrialInterrupted,
)

# Trials in this module are deliberately short; determinism does not need
# long drives, only identical event sequences.
SHORT_TRIAL_S = 45.0


def _double(x):
    return 2 * x


def _fail(x):
    raise ValueError(f"boom {x}")


def _crash(x):
    os._exit(23)  # hard worker death: no exception crosses the pipe


def _hang(x):
    time.sleep(600.0)


def _flaky(marker_path):
    """Fails on the first call, succeeds once the marker file exists."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("x")
        raise RuntimeError("transient failure")
    return "recovered"


def _values(results):
    assert all(isinstance(r, TrialResult) for r in results)
    return [r.value for r in results]


class TestResolveWorkers:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_used_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_garbage_env_falls_back_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.warns(UserWarning):
            assert resolve_workers(None) == 1

    def test_negative_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="negative"):
            assert resolve_workers(-2) == 1

    def test_absurdly_large_clamped_with_warning(self):
        ceiling = max(32, 4 * (os.cpu_count() or 1))
        with pytest.warns(UserWarning, match="clamping"):
            assert resolve_workers(10**6) == ceiling

    def test_negative_env_clamped(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-4")
        with pytest.warns(UserWarning, match="negative"):
            assert resolve_workers(None) == 1


class TestResolveTrialKnobs:
    def test_timeout_defaults_off(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert resolve_trial_timeout(None) is None

    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        assert resolve_trial_timeout(None) == 2.5

    def test_timeout_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "99")
        assert resolve_trial_timeout(1.5) == 1.5

    def test_timeout_zero_disables(self):
        assert resolve_trial_timeout(0) is None

    def test_timeout_garbage_env_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.warns(UserWarning):
            assert resolve_trial_timeout(None) is None

    def test_timeout_negative_warns_and_disables(self):
        with pytest.warns(UserWarning, match="negative"):
            assert resolve_trial_timeout(-3.0) is None

    def test_retries_default_zero(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert resolve_trial_retries(None) == 0

    def test_retries_env(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "2")
        assert resolve_trial_retries(None) == 2

    def test_retries_garbage_env_warns(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "many")
        with pytest.warns(UserWarning):
            assert resolve_trial_retries(None) == 0

    def test_retries_negative_clamped(self):
        with pytest.warns(UserWarning, match="negative"):
            assert resolve_trial_retries(-1) == 0


class TestRunJobs:
    def test_empty(self):
        assert run_jobs([], workers=4) == []

    def test_results_in_submission_order(self):
        jobs = [TrialJob(_double, (i,)) for i in range(20)]
        assert _values(run_jobs(jobs, workers=4)) == [2 * i for i in range(20)]

    def test_serial_matches_parallel(self):
        jobs = [TrialJob(_double, (i,)) for i in range(8)]
        assert run_jobs(jobs, workers=1) == run_jobs(jobs, workers=4)

    def test_unpicklable_jobs_fall_back_to_serial(self):
        jobs = [TrialJob(lambda x: x + 1, (i,)) for i in range(3)]
        with pytest.warns(UserWarning, match="running serially"):
            assert _values(run_jobs(jobs, workers=2)) == [1, 2, 3]

    def test_serial_path_never_spawns_processes(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        with mock.patch("repro.runner.pool.ProcessPoolExecutor") as executor:
            run_jobs([TrialJob(_double, (3,))], workers=1)
            run_jobs([TrialJob(_double, (3,))], workers=None)
        executor.assert_not_called()

    def test_single_job_bypasses_pool(self):
        with mock.patch("repro.runner.pool.ProcessPoolExecutor") as executor:
            assert _values(run_jobs([TrialJob(_double, (4,))], workers=8)) == [8]
        executor.assert_not_called()

    def test_kwargs_and_tag(self):
        job = TrialJob(_double, kwargs={"x": 5}, tag=("label", 0))
        assert job.run() == 10
        assert pickle.loads(pickle.dumps(job)).tag == ("label", 0)


class TestFaultyJobs:
    """One bad trial must never take the suite (or its siblings) down."""

    def test_raising_job_enveloped_not_raised(self):
        jobs = [TrialJob(_fail, (1,), tag="bad"), TrialJob(_double, (3,), tag="good")]
        bad, good = run_jobs(jobs, workers=2)
        assert not bad.ok and "boom 1" in bad.error and bad.tag == "bad"
        assert good.ok and good.value == 6
        with pytest.raises(TrialError, match="boom 1"):
            bad.unwrap()
        with pytest.raises(TrialError, match="1/2 trials failed"):
            unwrap_all([bad, good])

    def test_raising_job_enveloped_serially_too(self):
        bad, good = run_jobs(
            [TrialJob(_fail, (7,)), TrialJob(_double, (7,))], workers=1
        )
        assert not bad.ok and "boom 7" in bad.error
        assert good.ok and good.value == 14

    def test_crashed_worker_blamed_precisely(self):
        # FIFO scheduling means the executor cannot say whose job killed the
        # pool; the isolation re-runs must pin it on the crasher alone.
        jobs = [TrialJob(_double, (i,), tag=i) for i in range(4)]
        jobs.insert(2, TrialJob(_crash, (0,), tag="crasher"))
        results = run_jobs(jobs, workers=2)
        assert [r.ok for r in results] == [True, True, False, True, True]
        crashed = results[2]
        assert "died" in crashed.error and crashed.tag == "crasher"
        assert [r.value for r in results if r.ok] == [0, 2, 4, 6]

    def test_hung_job_times_out_siblings_survive(self):
        jobs = [
            TrialJob(_double, (1,), tag="a"),
            TrialJob(_hang, (0,), tag="hung"),
            TrialJob(_double, (2,), tag="b"),
        ]
        results = run_jobs(jobs, workers=2, timeout_s=3.0)
        assert [r.ok for r in results] == [True, False, True]
        assert "timed out" in results[1].error
        assert _values([results[0], results[2]]) == [2, 4]

    def test_retry_recovers_flaky_job_serial(self, tmp_path):
        marker = str(tmp_path / "marker")
        [result] = run_jobs([TrialJob(_flaky, (marker,))], workers=1, retries=1)
        assert result.ok and result.value == "recovered"
        assert result.attempts == 2

    def test_retry_recovers_flaky_job_parallel(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [TrialJob(_flaky, (marker,)), TrialJob(_double, (5,))]
        flaky, good = run_jobs(jobs, workers=2, retries=2)
        assert flaky.ok and flaky.value == "recovered"
        assert flaky.attempts == 2
        assert good.ok and good.value == 10

    def test_retries_exhausted_reports_attempts(self):
        [result] = run_jobs([TrialJob(_fail, (9,))], workers=1, retries=2)
        assert not result.ok
        assert result.attempts == 3
        assert "boom 9" in result.error


class TestSpecPicklability:
    def test_factories_and_specs_pickle(self):
        for factory in (
            spider_factory(OperationMode.single_channel(1), 7),
            spider_factory(
                OperationMode.equal_split((1, 6, 11), 0.6),
                1,
                lock_channel_when_connected=True,
            ),
            stock_factory(),
        ):
            spec = TownTrialSpec(factory=factory, label="x", seed=1)
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec


def _assert_trials_identical(a, b):
    assert a.label == b.label
    assert a.seed == b.seed
    assert a.duration_s == b.duration_s
    assert a.average_throughput_kBps == b.average_throughput_kBps
    assert a.connectivity_pct == b.connectivity_pct
    assert a.connection_durations_s == b.connection_durations_s
    assert a.disruption_durations_s == b.disruption_durations_s
    assert a.instantaneous_kBps == b.instantaneous_kBps
    assert a.join_log.attempts == b.join_log.attempts
    assert a.links_established == b.links_established
    assert a.events_processed == b.events_processed


class TestParallelDeterminism:
    def test_parallel_town_trials_bit_identical_to_serial(self):
        factory = spider_factory(OperationMode.equal_split((1, 6), 0.4), 7)
        serial = run_town_trials(
            factory, "det", seeds=(0, 1, 2, 3), duration_s=SHORT_TRIAL_S, workers=1
        )
        parallel = run_town_trials(
            factory, "det", seeds=(0, 1, 2, 3), duration_s=SHORT_TRIAL_S, workers=4
        )
        assert len(serial.trials) == len(parallel.trials) == 4
        for s_trial, p_trial in zip(serial.trials, parallel.trials):
            _assert_trials_identical(s_trial, p_trial)

    def test_spec_batch_preserves_order(self):
        specs = [
            TownTrialSpec(factory=stock_factory(), label=f"l{i}", seed=i,
                          duration_s=20.0)
            for i in (3, 1, 2)
        ]
        trials = run_town_trial_specs(specs, workers=3)
        assert [(t.label, t.seed) for t in trials] == [
            ("l3", 3), ("l1", 1), ("l2", 2)
        ]

    def test_configuration_suite_parallel_matches_serial(self):
        from repro.experiments.town_runs import (
            CONFIG_CH1_SINGLE_AP,
            CONFIG_STOCK,
            run_configuration_suite,
        )

        labels = [CONFIG_CH1_SINGLE_AP, CONFIG_STOCK]
        kwargs = dict(
            seeds=(0, 1),
            duration_s=SHORT_TRIAL_S,
            include_cambridge=False,
            labels=labels,
        )
        serial = run_configuration_suite(workers=1, **kwargs)
        parallel = run_configuration_suite(workers=4, **kwargs)
        assert serial.labels() == parallel.labels() == labels
        for label in labels:
            for s_trial, p_trial in zip(
                serial[label].trials, parallel[label].trials
            ):
                _assert_trials_identical(s_trial, p_trial)

    def test_timeout_grid_parallel_matches_serial(self):
        from repro.experiments.timeout_grid import run_grid

        labels = ["ch1, ll=100ms, dhcp=200ms, 7if"]
        serial = run_grid(
            labels=labels, seeds=(0, 1), duration_s=SHORT_TRIAL_S, workers=1
        )
        parallel = run_grid(
            labels=labels, seeds=(0, 1), duration_s=SHORT_TRIAL_S, workers=4
        )
        for label in labels:
            for s_trial, p_trial in zip(
                serial[label].trials, parallel[label].trials
            ):
                _assert_trials_identical(s_trial, p_trial)

    def test_fleet_parallel_matches_serial(self):
        from repro.experiments.fleet import FleetSpec, run_spec

        kwargs = dict(fleet_sizes=(1, 2), seeds=(0,), duration_s=SHORT_TRIAL_S)
        serial = run_spec(FleetSpec(workers=1, **kwargs)).unwrap()
        parallel = run_spec(FleetSpec(workers=4, **kwargs)).unwrap()
        assert [
            (r.vehicles, r.per_vehicle_kBps, r.aggregate_kBps,
             r.mean_connectivity_pct)
            for r in serial.rows
        ] == [
            (r.vehicles, r.per_vehicle_kBps, r.aggregate_kBps,
             r.mean_connectivity_pct)
            for r in parallel.rows
        ]

    def test_speed_sweep_parallel_matches_serial(self):
        from repro.experiments.speed_sweep import SpeedSweepSpec, run_spec

        kwargs = dict(speeds_mps=(6.0, 12.0), seeds=(0,), duration_s=SHORT_TRIAL_S)
        serial = run_spec(SpeedSweepSpec(workers=1, **kwargs)).unwrap()
        parallel = run_spec(SpeedSweepSpec(workers=4, **kwargs)).unwrap()
        assert serial.series == parallel.series
        assert serial.speeds_mps == parallel.speeds_mps


@dataclass(frozen=True)
class CrashingFactory:
    """A picklable client factory that kills its worker process."""

    def __call__(self, sim, world, mobility):
        os._exit(29)


@dataclass(frozen=True)
class HangingFactory:
    """A picklable client factory that never returns."""

    def __call__(self, sim, world, mobility):
        time.sleep(600.0)


class TestSuiteSalvage:
    """The PR's acceptance scenario: a suite with one crashing and one hung
    trial completes, reports errors for exactly those trials, and every
    sibling's metrics are bit-identical to a fault-free serial run."""

    def test_crash_and_hang_salvaged_siblings_bit_identical(self):
        good = [
            TownTrialSpec(
                factory=stock_factory(), label=f"good{i}", seed=i, duration_s=20.0
            )
            for i in range(3)
        ]
        specs = [
            good[0],
            TownTrialSpec(factory=CrashingFactory(), label="crash", seed=0,
                          duration_s=20.0),
            good[1],
            TownTrialSpec(factory=HangingFactory(), label="hang", seed=0,
                          duration_s=20.0),
            good[2],
        ]
        envelopes = run_town_trial_envelopes(specs, workers=3, timeout_s=8.0)
        assert [r.ok for r in envelopes] == [True, False, True, False, True]
        by_label = {r.tag[0]: r for r in envelopes}
        assert "died" in by_label["crash"].error
        assert "timed out" in by_label["hang"].error

        with pytest.warns(UserWarning, match="dropping trial"):
            salvaged = salvage_town_trials(specs, envelopes)
        assert [spec.label for spec, _ in salvaged] == ["good0", "good1", "good2"]

        baseline = run_town_trial_specs(good, workers=1)
        for (_spec, salvaged_trial), reference in zip(salvaged, baseline):
            _assert_trials_identical(salvaged_trial, reference)


def _interrupt(x):
    raise KeyboardInterrupt


class TestInterruptHandling:
    """Ctrl-C teardown: no orphaned workers, partial results preserved."""

    def test_serial_interrupt_raises_with_partial(self):
        jobs = [
            TrialJob(_double, (1,), tag="a"),
            TrialJob(_interrupt, (0,), tag="b"),
            TrialJob(_double, (2,), tag="c"),
        ]
        with pytest.raises(TrialInterrupted) as excinfo:
            run_jobs(jobs, workers=1)
        partial = excinfo.value.partial
        assert len(partial) == 3  # one slot per job, submission order
        assert partial[0] is not None and partial[0].value == 2
        assert partial[1] is None and partial[2] is None
        assert "1/3" in str(excinfo.value)

    def test_parallel_interrupt_raises_and_reaps_workers(self):
        jobs = [
            TrialJob(_double, (1,), tag="a"),
            TrialJob(_interrupt, (0,), tag="b"),
            TrialJob(_double, (2,), tag="c"),
        ]
        children_before = len(multiprocessing.active_children())
        with pytest.raises(TrialInterrupted) as excinfo:
            run_jobs(jobs, workers=2)
        assert len(excinfo.value.partial) == 3
        # The finished sibling harvested before the interrupt is preserved.
        assert excinfo.value.partial[0] is not None
        assert excinfo.value.partial[0].value == 2
        # No orphaned pool processes survive the unwind.
        deadline = time.monotonic() + 10.0
        while (
            len(multiprocessing.active_children()) > children_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= children_before

    def test_interrupt_banks_finished_results_in_cache(self, tmp_path):
        from repro.cache import TrialCache

        store = TrialCache(tmp_path, fingerprint="pin")
        jobs = [
            TrialJob(_double, (1,), tag="a"),
            TrialJob(_interrupt, (0,), tag="b"),
        ]
        with pytest.raises(TrialInterrupted):
            run_jobs(jobs, workers=1, cache=store)
        # The finished trial's value was stored before the re-raise, so a
        # resumed sweep replays it instead of re-running.
        key = store.key_for(jobs[0])
        hit, value = store.get(key)
        assert hit and value == 2

    def test_interrupted_is_a_trial_error(self):
        # Callers catching TrialError for cleanup also see interrupts.
        assert issubclass(TrialInterrupted, TrialError)
