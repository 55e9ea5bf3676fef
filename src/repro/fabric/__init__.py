"""Fault-tolerant distributed sweep fabric: coordinator/worker job leasing.

:mod:`repro.runner.pool` stops at one machine's cores.  This package turns
the runner into a multi-host job fabric in the PATHspider
configurator→workers→merger mold: a coordinator leases canonical job
tokens to worker agents, survives their crashes, stalls, and partitions
(lease expiry → reassignment, per-job exponential backoff, poison-job
quarantine), dedupes identical in-flight work by content address, and
merges :class:`~repro.runner.TrialResult` envelopes in submission order —
so a sweep interrupted by killed workers converges to the same bytes as a
clean serial run.

Layers
------
* :mod:`repro.fabric.coordinator` — the pure leasing state machine.
* :mod:`repro.fabric.chaos` — deterministic in-process fleet + chaos plans
  (virtual clock; how the fault paths are tested in tier-1).
* :mod:`repro.fabric.http` — the asyncio HTTP shell (coordinator service,
  synchronous client) for real multi-host runs.
* :mod:`repro.fabric.worker` — the worker agent loop (lease → execute in a
  sandboxed subprocess with wall-clock timeouts → heartbeat → complete).

Enablement mirrors :mod:`repro.cache` (first match wins): an explicit
``fabric=`` argument to :func:`repro.experiments.api.run_experiment`, the
fabric activated by an enclosing :func:`activate` context (how the
``--fabric`` CLI flag plumbs through), or the ``REPRO_FABRIC`` environment
variable holding a spec string.  Specs:

* ``local`` / ``local:N`` — in-process fabric, N simulated workers;
* ``chaos:SEED`` / ``local:N,chaos:SEED`` — same, under the seeded
  :class:`~repro.fabric.chaos.FabricChaosPlan` preset (≥1 kill, ≥1 stall,
  ≥1 dropped and ≥1 duplicated completion);
* ``http://host:port`` — submit batches to a remote coordinator.

Graceful degradation is the contract: no fabric configured → the runner's
local process pool, untouched; a fabric that fails outright → a warning
and the local pool; a partially dead fleet → the coordinator drains it on
the survivors.  The fabric is deliberately *not* part of
:class:`~repro.experiments.api.ExperimentSpec` — where a sweep ran must
never change what it produced.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Any, List, Optional, Sequence

from ..obs.telemetry import Telemetry, TelemetrySnapshot
from ..runner.pool import (
    TrialJob,
    TrialResult,
    resolve_trial_retries,
    resolve_trial_timeout,
    resolve_workers,
)
from .chaos import FabricChaosPlan, run_chaos_fabric
from .coordinator import CoordinatorState, Lease

__all__ = [
    "FABRIC_ENV",
    "FABRIC_CHAOS_ENV",
    "CoordinatorState",
    "Lease",
    "FabricChaosPlan",
    "run_chaos_fabric",
    "InProcessFabric",
    "parse_fabric_spec",
    "resolve_fabric",
    "activate",
    "active_fabric",
]

#: Spec string enabling the fabric for every runner fan-out (see module doc).
FABRIC_ENV = "REPRO_FABRIC"
#: Chaos preset seed applied when the spec itself names no plan.
FABRIC_CHAOS_ENV = "REPRO_FABRIC_CHAOS"


class InProcessFabric:
    """The whole fabric — coordinator plus simulated fleet — in one process.

    This is both the graceful-degradation floor (no remote workers needed)
    and the chaos test bed: ``plan`` injects seeded kills/stalls/drops/
    duplicates while the virtual clock keeps every run deterministic.  One
    ``Telemetry`` registry spans all batches run through this instance, so
    lease/retry/reassignment counters accumulate across an experiment's
    fan-outs and export once at the end.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        plan: Optional[FabricChaosPlan] = None,
        lease_ttl_s: float = 5.0,
        telemetry: Optional[Telemetry] = None,
    ):
        self.workers = workers
        self.plan = plan or FabricChaosPlan()
        self.lease_ttl_s = float(lease_ttl_s)
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=True, key=("fabric", "local"))
        )

    def run(
        self,
        jobs: Sequence[TrialJob],
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        cache: Any = None,
    ) -> List[TrialResult]:
        """Drain ``jobs`` through the fabric; submission-order envelopes.

        The fabric's own configured worker count wins over the caller's
        (``--fabric local:3`` means 3 simulated workers no matter what the
        pool would have used).  The ambient fabric is masked while jobs
        execute so a job that itself fans out (calls
        :func:`~repro.runner.run_jobs`) uses the plain pool instead of
        recursing into the fabric.
        """
        count = resolve_workers(workers if self.workers is None else self.workers)
        with _mask():
            return run_chaos_fabric(
                jobs,
                plan=self.plan,
                workers=count,
                lease_ttl_s=self.lease_ttl_s,
                timeout_s=resolve_trial_timeout(timeout_s),
                retries=resolve_trial_retries(retries),
                cache=cache,
                telemetry=self.telemetry,
            )

    # -- introspection -------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        return self.telemetry.snapshot()

    def describe(self) -> str:
        snap = self.telemetry.snapshot()
        stats = {
            name.split("fabric.", 1)[1]: int(value)
            for name, value in snap.counters
            if name.startswith("fabric.")
        }
        chaos = "" if self.plan.is_noop() else f", chaos seed {self.plan.seed}"
        return (
            f"fabric local ({self.workers or 'auto'} worker(s){chaos}): "
            f"{stats.get('jobs_completed', 0)} job(s), "
            f"{stats.get('leases_issued', 0)} lease(s), "
            f"{stats.get('reassignments', 0)} reassignment(s), "
            f"{stats.get('retries', 0)} retry(ies), "
            f"{stats.get('quarantined', 0)} quarantined, "
            f"{stats.get('duplicate_completions', 0)} duplicate completion(s)"
        )

    def __repr__(self) -> str:
        return f"InProcessFabric(workers={self.workers!r}, plan={self.plan!r})"


def demo_trial(seed: int, spins: int = 5000) -> dict:
    """A tiny deterministic stand-in trial for smoke-testing the fabric.

    Module-level (not in ``__main__``) so its pickle resolves by import
    path in worker agents running as separate processes.
    """
    acc = seed & 0xFFFFFFFF
    for _ in range(spins):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return {"seed": seed, "value": acc}


def demo_jobs(count: int, base_seed: int = 0) -> List[TrialJob]:
    """``count`` demo trials tagged ``("demo", seed)`` in seed order."""
    return [
        TrialJob(demo_trial, (base_seed + i,), tag=("demo", base_seed + i))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Resolution and ambient activation (mirrors repro.cache)
# ---------------------------------------------------------------------------
_ACTIVE: List[Optional[Any]] = []


def active_fabric() -> Optional[Any]:
    """The innermost fabric activated via :func:`activate`, or ``None``.

    A masked slot (``None`` pushed by :func:`_mask`) hides any outer
    fabric, which is how the fabric keeps its own job executions from
    re-entering it.
    """
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(fabric: Optional[Any]):
    """Make ``fabric`` ambient for every runner fan-out inside the block.

    ``activate(None)`` is a transparent no-op so callers can resolve once
    and wrap unconditionally — exactly like :func:`repro.cache.activate`.
    """
    if fabric is None:
        yield None
        return
    _ACTIVE.append(fabric)
    try:
        yield fabric
    finally:
        _ACTIVE.pop()


@contextmanager
def _mask():
    """Hide the ambient fabric (jobs executing inside it must not recurse)."""
    if not _ACTIVE:
        yield
        return
    _ACTIVE.append(None)
    try:
        yield
    finally:
        _ACTIVE.pop()


def parse_fabric_spec(spec: str, chaos_seed: Optional[int] = None):
    """Turn a ``--fabric`` / ``REPRO_FABRIC`` spec string into a fabric.

    Comma-separated clauses: ``local``, ``local:N``, ``chaos:SEED``, or an
    ``http(s)://`` coordinator URL (exclusive of the others).  An explicit
    ``chaos_seed`` argument (the ``--fabric-chaos`` flag) applies when the
    spec itself names no chaos clause.  Raises ``ValueError`` on garbage —
    a misspelled fabric silently running serial would be a silent lie.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty fabric spec")
    if spec.startswith(("http://", "https://")):
        from .http import HttpFabric  # late: keep asyncio out of the fast path

        return HttpFabric(spec)
    workers: Optional[int] = None
    plan: Optional[FabricChaosPlan] = None
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        head, _, arg = clause.partition(":")
        head = head.lower()
        if head == "local":
            workers = int(arg) if arg else None
        elif head == "chaos":
            plan = FabricChaosPlan.preset(int(arg) if arg else 0)
        else:
            raise ValueError(
                f"unknown fabric spec clause {clause!r} "
                "(expected local[:N], chaos[:SEED], or an http(s):// URL)"
            )
    if plan is None and chaos_seed is not None:
        plan = FabricChaosPlan.preset(chaos_seed)
    return InProcessFabric(workers=workers, plan=plan)


def resolve_fabric(fabric: Any = None, chaos_seed: Optional[int] = None):
    """Turn a fabric request into a fabric instance or ``None``.

    ``fabric`` may be a fabric object (used as-is), a spec string,
    ``False`` (forced off), or ``None`` — which defers to the ambient
    :func:`activate` context and then the ``REPRO_FABRIC`` environment
    variable.  ``chaos_seed`` defaults from ``REPRO_FABRIC_CHAOS``.
    """
    if fabric is False:
        return None
    if chaos_seed is None:
        raw = os.environ.get(FABRIC_CHAOS_ENV, "").strip()
        if raw:
            try:
                chaos_seed = int(raw)
            except ValueError:
                warnings.warn(f"ignoring non-integer {FABRIC_CHAOS_ENV}={raw!r}")
    if isinstance(fabric, str):
        return parse_fabric_spec(fabric, chaos_seed)
    if fabric is not None:
        return fabric
    if _ACTIVE:
        # The top of the stack wins even when it is a mask slot (None):
        # falling through to the environment here would let a fabric's own
        # job executions re-enter the fabric.
        return _ACTIVE[-1]
    env = os.environ.get(FABRIC_ENV, "").strip()
    if env:
        try:
            return parse_fabric_spec(env, chaos_seed)
        except ValueError as exc:
            warnings.warn(f"ignoring bad {FABRIC_ENV}: {exc}")
    return None
