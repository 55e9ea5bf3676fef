"""Parallel execution of independent simulation trials.

:mod:`repro.runner` fans independent ``(factory, seed, duration, town)``
jobs out across worker processes and merges the results deterministically
(submission order, never completion order).  Every job returns in a
:class:`TrialResult` envelope so one crashed or hung trial never takes a
whole suite down.  See :mod:`repro.runner.pool` for the execution model and
:mod:`repro.experiments.common` for the town-trial specs built on top of it.
"""

from .pool import (
    RETRIES_ENV,
    TIMEOUT_ENV,
    WORKERS_ENV,
    TrialError,
    TrialJob,
    TrialResult,
    resolve_trial_retries,
    resolve_trial_timeout,
    resolve_workers,
    run_jobs,
    unwrap_all,
)

__all__ = [
    "TrialJob",
    "TrialResult",
    "TrialError",
    "resolve_workers",
    "resolve_trial_timeout",
    "resolve_trial_retries",
    "run_jobs",
    "unwrap_all",
    "WORKERS_ENV",
    "TIMEOUT_ENV",
    "RETRIES_ENV",
]
