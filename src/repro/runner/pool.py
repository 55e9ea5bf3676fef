"""Process-pool execution of independent trial jobs.

Every paper artifact repeats independent ``(config, seed)`` drives, so the
natural unit of parallelism is *one whole trial*: each job rebuilds its own
:class:`~repro.sim.engine.Simulator` from a seed, runs it to completion, and
returns a picklable metrics object.  Nothing is shared between jobs, which
is what makes the fan-out embarrassingly parallel *and* deterministic — a
trial's outcome is a pure function of its job spec.

The architecture follows PATHspider's worker/merger split: jobs are fanned
out to a pool of worker processes and the results are merged back in
**submission order**, never completion order, so a parallel run is
bit-identical to the serial one.

Every job comes back wrapped in a :class:`TrialResult` envelope: one trial
raising, crashing its worker, or hanging past the per-trial timeout no
longer aborts the whole suite.  Failed trials can be retried
(``REPRO_TRIAL_RETRIES``), hung trials are killed after
``REPRO_TRIAL_TIMEOUT`` seconds, and a crashed worker (which breaks the
whole pool without saying whose job did it) triggers isolation re-runs —
each unfinished job alone in a fresh single-worker pool — so blame lands on
exactly the trial that crashed, never on an innocent sibling.

Worker-count resolution (first match wins):

1. an explicit ``workers=`` argument (``0`` means "all cores"),
2. the ``REPRO_WORKERS`` environment variable (``0`` means "all cores"),
3. serial execution (``1``).

Serial execution short-circuits the pool entirely — no processes, no
pickling — so ``workers=1`` (or an unset environment) behaves exactly like
the historical in-process loop; exceptions are still enveloped and retried,
but timeouts are not enforced (there is no process to kill) and a hard
crash takes the parent down with it.  Jobs that cannot be pickled (e.g.
ad-hoc lambda factories from a notebook) also degrade to the serial path
rather than failing.

Telemetry rides the same envelopes: a trial that captures a
:class:`~repro.obs.telemetry.TelemetrySnapshot` (frozen and picklable by
design) returns it inside its result object, and the submission-order merge
discipline above is exactly what makes
:func:`~repro.obs.telemetry.merge_snapshots` deterministic across worker
counts — snapshots arrive in the same order whether the pool ran serial,
parallel, or sharded (replica captures deduplicate by snapshot ``key``).

Because a trial is a pure function of its job spec, the pool can also skip
it entirely: when a :class:`~repro.cache.TrialCache` is in effect (explicit
``cache=`` argument, an ambient :func:`repro.cache.activate` context, or
``REPRO_CACHE=1``), :func:`run_jobs` looks every job up by content address
before dispatching, replays hits as ordinary ``ok=True`` envelopes
(bit-identical to a fresh run, telemetry snapshot included), runs only the
misses, and stores their successful values.  Lookups and stores happen in
the submitting process, so worker children never touch the cache.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Set, Tuple

import multiprocessing

__all__ = [
    "TrialJob",
    "TrialResult",
    "TrialError",
    "TrialInterrupted",
    "ShardedJob",
    "resolve_workers",
    "resolve_trial_timeout",
    "resolve_trial_retries",
    "run_jobs",
    "run_sharded",
    "split_shards",
    "unwrap_all",
    "WORKERS_ENV",
    "TIMEOUT_ENV",
    "RETRIES_ENV",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"
#: Per-trial wall-clock timeout in seconds (unset/0 disables).
TIMEOUT_ENV = "REPRO_TRIAL_TIMEOUT"
#: How many times a failed/crashed/hung trial is re-run before giving up.
RETRIES_ENV = "REPRO_TRIAL_RETRIES"

#: Poll interval while waiting for a future to start running (seconds).
_RUNNING_POLL_S = 0.005


class TrialError(RuntimeError):
    """A trial (or a suite of trials) failed and the caller demanded values."""


class TrialInterrupted(TrialError):
    """The suite was interrupted (Ctrl-C) with some trials still unfinished.

    ``partial`` holds one slot per submitted job in submission order:
    the finished envelopes, ``None`` for trials the interrupt cut short.
    Worker processes are terminated before this is raised — an interrupted
    sweep never leaks orphaned children.
    """

    def __init__(self, message: str, partial: Sequence[Optional["TrialResult"]] = ()):
        super().__init__(message)
        self.partial: List[Optional[TrialResult]] = list(partial)


@dataclass(frozen=True)
class TrialJob:
    """One picklable unit of work: ``fn(*args, **kwargs)``.

    ``fn`` must be importable from a worker process — a module-level
    function or a picklable callable object (the experiment factories are
    dataclass callables for exactly this reason).  ``tag`` is an opaque
    caller-side key (e.g. ``(label, seed)``) carried along for regrouping;
    the pool itself never inspects it.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    tag: Any = None

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.fn(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class TrialResult:
    """The envelope one job comes back in: value or diagnosis, never both.

    ``attempts`` counts every execution charged to this job, including the
    final one.  A job that was merely rescheduled because a *sibling* hung
    or crashed is not charged — innocent reruns are free.
    """

    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    tag: Any = None

    def unwrap(self) -> Any:
        """The trial's value, or :class:`TrialError` if it failed."""
        if not self.ok:
            raise TrialError(
                f"trial {self.tag!r} failed after {self.attempts} attempt(s): "
                f"{self.error}"
            )
        return self.value


def unwrap_all(results: Sequence[TrialResult]) -> List[Any]:
    """Values of all trials, or one :class:`TrialError` naming every failure."""
    failures = [r for r in results if not r.ok]
    if failures:
        shown = "; ".join(f"{r.tag!r}: {r.error}" for r in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise TrialError(
            f"{len(failures)}/{len(results)} trials failed: {shown}{more}"
        )
    return [r.value for r in results]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Turn an explicit/env worker request into a concrete count (>= 1).

    ``None`` defers to ``REPRO_WORKERS``; ``0`` (explicit or in the
    environment) means "one worker per core".  Out-of-range requests are
    clamped with a warning rather than raising — a bad environment variable
    should never kill an overnight suite.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            warnings.warn(f"ignoring non-integer {WORKERS_ENV}={env!r}")
            return 1
    if workers < 0:
        warnings.warn(f"clamping negative worker count {workers!r} to 1")
        return 1
    if workers == 0:
        workers = os.cpu_count() or 1
    ceiling = max(32, 4 * (os.cpu_count() or 1))
    if workers > ceiling:
        warnings.warn(f"clamping worker count {workers!r} to {ceiling}")
        return ceiling
    return workers


def resolve_trial_timeout(timeout_s: Optional[float] = None) -> Optional[float]:
    """Per-trial timeout in seconds, or ``None`` when disabled.

    ``None`` defers to ``REPRO_TRIAL_TIMEOUT``; ``0`` (explicit or in the
    environment) disables the timeout.  Garbage values warn and disable.
    """
    if timeout_s is None:
        env = os.environ.get(TIMEOUT_ENV, "").strip()
        if not env:
            return None
        try:
            timeout_s = float(env)
        except ValueError:
            warnings.warn(f"ignoring non-numeric {TIMEOUT_ENV}={env!r}")
            return None
    if timeout_s < 0:
        warnings.warn(f"ignoring negative trial timeout {timeout_s!r}")
        return None
    if timeout_s == 0:
        return None
    return float(timeout_s)


def resolve_trial_retries(retries: Optional[int] = None) -> int:
    """How many re-runs a failed trial gets (>= 0).

    ``None`` defers to ``REPRO_TRIAL_RETRIES`` (default 0).  Garbage or
    negative values warn and fall back to 0.
    """
    if retries is None:
        env = os.environ.get(RETRIES_ENV, "").strip()
        if not env:
            return 0
        try:
            retries = int(env)
        except ValueError:
            warnings.warn(f"ignoring non-integer {RETRIES_ENV}={env!r}")
            return 0
    if retries < 0:
        warnings.warn(f"clamping negative retry count {retries!r} to 0")
        return 0
    return retries


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _execute(payload: bytes) -> bytes:
    """Worker-side entry point: unpickle a job, run it, pickle the result.

    Shipping pre-pickled payloads keeps the executor's own serialization
    trivially cheap and makes pickling errors surface in the parent (where
    they can trigger the serial fallback) instead of killing a worker.
    """
    job: TrialJob = pickle.loads(payload)
    return pickle.dumps(job.run(), protocol=pickle.HIGHEST_PROTOCOL)


def _pool_context():
    """Prefer fork (cheap, shares the warmed-up interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _wait_until_running(future) -> None:
    """Block until a future is actually executing (or already settled).

    ``Future.result(timeout=...)`` measures from *now*, so waiting for the
    running state first makes the timeout bound a job's execution rather
    than its time in the queue behind slow siblings.
    """
    while not (future.running() or future.done()):
        time.sleep(_RUNNING_POLL_S)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool whose worker is stuck mid-job (no graceful path)."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _run_serial(jobs: Sequence[TrialJob], retries: int) -> List[TrialResult]:
    results: List[TrialResult] = []
    try:
        for job in jobs:
            attempts = 0
            while True:
                attempts += 1
                try:
                    value = job.run()
                except Exception as exc:
                    if attempts <= retries:
                        continue
                    results.append(
                        TrialResult(
                            ok=False,
                            error=_describe(exc),
                            attempts=attempts,
                            tag=job.tag,
                        )
                    )
                    break
                results.append(
                    TrialResult(ok=True, value=value, attempts=attempts, tag=job.tag)
                )
                break
    except KeyboardInterrupt as exc:
        partial = list(results) + [None] * (len(jobs) - len(results))
        raise TrialInterrupted(
            f"interrupted with {len(results)}/{len(jobs)} trial(s) finished",
            partial,
        ) from exc
    return results


def _run_isolated(
    job: TrialJob, payload: bytes, timeout_s: Optional[float]
) -> TrialResult:
    """Run one job alone in a fresh single-worker pool.

    With the job isolated, a broken pool is an unambiguous diagnosis: *this*
    trial crashed its worker.  The returned envelope carries ``attempts=1``;
    the caller folds it into the job's running total.
    """
    pool = ProcessPoolExecutor(max_workers=1, mp_context=_pool_context())
    try:
        future = pool.submit(_execute, payload)
        try:
            if timeout_s is not None:
                _wait_until_running(future)
                raw = future.result(timeout=timeout_s)
            else:
                raw = future.result()
        except FuturesTimeoutError as exc:
            if timeout_s is None:  # the job itself raised a TimeoutError
                return TrialResult(ok=False, error=_describe(exc), tag=job.tag)
            _kill_pool(pool)
            return TrialResult(
                ok=False, error=f"timed out after {timeout_s:.6g}s", tag=job.tag
            )
        except BrokenProcessPool:
            return TrialResult(
                ok=False, error="worker process died (crash/OOM)", tag=job.tag
            )
        except Exception as exc:
            return TrialResult(ok=False, error=_describe(exc), tag=job.tag)
        return TrialResult(ok=True, value=pickle.loads(raw), tag=job.tag)
    except BaseException:
        # Ctrl-C (or any non-Exception) while the sandbox runs: terminate
        # the worker before unwinding so no orphaned child outlives us.
        _kill_pool(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _run_round(
    jobs: Sequence[TrialJob],
    payloads: Sequence[bytes],
    count: int,
    timeout_s: Optional[float],
    retries: int,
    results: List[Optional[TrialResult]],
    attempts: List[int],
    pending: Sequence[int],
) -> Tuple[List[int], Set[int]]:
    """One pool pass over ``pending`` job indices.

    Harvests futures in submission order; under the executor's FIFO
    scheduling the future being waited on is always running, so
    ``result(timeout=...)`` bounds that job's own execution.  Returns the
    indices still unfinished plus the subset that must re-run in isolation
    (a broken pool hides which job crashed it).
    """
    retry: List[int] = []
    isolate: Set[int] = set()
    pool = ProcessPoolExecutor(
        max_workers=min(count, len(pending)), mp_context=_pool_context()
    )
    try:
        futures = {i: pool.submit(_execute, payloads[i]) for i in pending}
        aborted = False
        pool_broken = False
        for i in pending:
            future = futures[i]
            if aborted:
                # The pool is gone: salvage buffered successes, requeue the
                # rest free of charge (they were never proven guilty).
                if future.done():
                    try:
                        raw = future.result()
                    except Exception:
                        retry.append(i)
                        if pool_broken:
                            isolate.add(i)
                        continue
                    attempts[i] += 1
                    results[i] = TrialResult(
                        ok=True,
                        value=pickle.loads(raw),
                        attempts=attempts[i],
                        tag=jobs[i].tag,
                    )
                else:
                    retry.append(i)
                    if pool_broken:
                        isolate.add(i)
                continue
            try:
                if timeout_s is not None and not future.done():
                    _wait_until_running(future)
                    raw = future.result(timeout=timeout_s)
                else:
                    raw = future.result()
            except FuturesTimeoutError as exc:
                attempts[i] += 1
                if timeout_s is None:  # the job itself raised a TimeoutError
                    message = _describe(exc)
                else:
                    message = f"timed out after {timeout_s:.6g}s"
                    _kill_pool(pool)
                    aborted = True
                if attempts[i] <= retries:
                    retry.append(i)
                else:
                    results[i] = TrialResult(
                        ok=False, error=message, attempts=attempts[i], tag=jobs[i].tag
                    )
                continue
            except BrokenProcessPool:
                # A worker died but FIFO scheduling does not say whose job
                # killed it — charge no one; isolation runs will pinpoint
                # the crasher without smearing blame onto siblings.
                aborted = True
                pool_broken = True
                retry.append(i)
                isolate.add(i)
                continue
            except Exception as exc:
                attempts[i] += 1
                if attempts[i] <= retries:
                    retry.append(i)
                else:
                    results[i] = TrialResult(
                        ok=False,
                        error=_describe(exc),
                        attempts=attempts[i],
                        tag=jobs[i].tag,
                    )
                continue
            attempts[i] += 1
            results[i] = TrialResult(
                ok=True, value=pickle.loads(raw), attempts=attempts[i], tag=jobs[i].tag
            )
    except BaseException:
        # Ctrl-C mid-harvest: terminate the workers before unwinding so an
        # interrupted sweep never leaks orphaned children (shutdown alone
        # only abandons them).
        _kill_pool(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return retry, isolate


def _run_parallel(
    jobs: Sequence[TrialJob],
    payloads: Sequence[bytes],
    count: int,
    timeout_s: Optional[float],
    retries: int,
) -> List[TrialResult]:
    total = len(jobs)
    results: List[Optional[TrialResult]] = [None] * total
    attempts = [0] * total
    pending: List[int] = list(range(total))
    isolate: Set[int] = set()
    try:
        return _drain_parallel(
            jobs, payloads, count, timeout_s, retries, results, attempts,
            pending, isolate,
        )
    except KeyboardInterrupt as exc:
        done = sum(1 for r in results if r is not None)
        raise TrialInterrupted(
            f"interrupted with {done}/{total} trial(s) finished", list(results)
        ) from exc


def _drain_parallel(
    jobs: Sequence[TrialJob],
    payloads: Sequence[bytes],
    count: int,
    timeout_s: Optional[float],
    retries: int,
    results: List[Optional[TrialResult]],
    attempts: List[int],
    pending: List[int],
    isolate: Set[int],
) -> List[TrialResult]:
    while pending:
        if isolate:
            still_pending: List[int] = []
            next_isolate: Set[int] = set()
            for i in pending:
                if i not in isolate:
                    still_pending.append(i)
                    continue
                outcome = _run_isolated(jobs[i], payloads[i], timeout_s)
                attempts[i] += 1
                if outcome.ok or attempts[i] > retries:
                    results[i] = TrialResult(
                        ok=outcome.ok,
                        value=outcome.value,
                        error=outcome.error,
                        attempts=attempts[i],
                        tag=jobs[i].tag,
                    )
                else:
                    # A crasher stays isolated: re-running it inside a shared
                    # pool would break the pool again and stall siblings.
                    still_pending.append(i)
                    next_isolate.add(i)
            pending, isolate = still_pending, next_isolate
            continue
        pending, isolate = _run_round(
            jobs, payloads, count, timeout_s, retries, results, attempts, pending
        )
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class ShardedJob:
    """One trial whose per-item work can be split across workers.

    ``fn(shard, *args, **kwargs)`` receives a contiguous subsequence of
    ``items`` and must return one result per shard item, in shard order.
    The canonical use is a fleet drive: the simulation's dynamics are a
    pure function of the seed, so every shard replays the identical run
    and extracts only its own vehicles' metrics; concatenating the shard
    outputs in item order is then bit-identical to one process extracting
    everything.  ``tag`` plays the same opaque-key role as on
    :class:`TrialJob`.
    """

    fn: Callable[..., Sequence[Any]]
    items: Tuple[Any, ...] = ()
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    tag: Any = None


def split_shards(items: Sequence[Any], shards: int) -> List[Tuple[Any, ...]]:
    """Deterministic contiguous split of ``items`` into ``shards`` chunks.

    Early chunks get the remainder, every chunk is non-empty, and
    concatenating the chunks reproduces ``items`` exactly — the property
    the sharded merge relies on.
    """
    items = tuple(items)
    if not items:
        return []
    count = max(1, min(shards, len(items)))
    base, extra = divmod(len(items), count)
    out: List[Tuple[Any, ...]] = []
    start = 0
    for k in range(count):
        size = base + (1 if k < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def _shard_capacity() -> int:
    """How many shards are worth running as separate processes.

    Every shard *replays the whole coupled simulation* and extracts only its
    own items, so shards beyond the physical core count are pure overhead —
    the same work re-simulated on a timeshared core (the committed
    ``fleet_sharded`` bench once recorded a 0.477x "speedup" from exactly
    that on a 1-core container).
    """
    return os.cpu_count() or 1


def run_sharded(
    job: ShardedJob,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    cache: Any = None,
) -> TrialResult:
    """Run one :class:`ShardedJob` across workers and merge deterministically.

    Items are split into contiguous shards (one per worker), each shard runs
    as an ordinary :class:`TrialJob` — inheriting the envelope, per-shard
    timeout, retry, crash-isolation, and result-cache machinery — and the
    per-item results are concatenated in item order.  The merged envelope's
    ``attempts`` is the worst shard's count.  Any failed shard fails the
    whole trial (a partial fleet row is not a meaningful result), with every
    shard's diagnosis preserved in ``error``.

    The shard count is capped at the machine's core count (see
    :func:`_shard_capacity`); when that leaves one shard — one core, one
    item, or ``workers<=1`` — the job runs in-process with no worker
    processes and no pickling, exactly like the serial trial path.  The
    merged value is bit-identical across every layout either way.
    """
    items = tuple(job.items)
    if not items:
        return TrialResult(ok=True, value=[], tag=job.tag)
    count = min(resolve_workers(workers), len(items), _shard_capacity())
    shards = split_shards(items, count)
    subjobs = [
        TrialJob(
            job.fn,
            (shard,) + tuple(job.args),
            job.kwargs,
            tag=(job.tag, index),
        )
        for index, shard in enumerate(shards)
    ]
    envelopes = run_jobs(
        subjobs, workers=count, timeout_s=timeout_s, retries=retries, cache=cache
    )
    attempts = max(e.attempts for e in envelopes)
    failures = [e for e in envelopes if not e.ok]
    if failures:
        shown = "; ".join(f"shard {e.tag[1]}: {e.error}" for e in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        return TrialResult(
            ok=False,
            error=f"{len(failures)}/{len(shards)} shards failed: {shown}{more}",
            attempts=attempts,
            tag=job.tag,
        )
    merged: List[Any] = []
    for index, (shard, envelope) in enumerate(zip(shards, envelopes)):
        part = list(envelope.value)
        if len(part) != len(shard):
            return TrialResult(
                ok=False,
                error=(
                    f"shard {index} returned {len(part)} results for "
                    f"{len(shard)} items"
                ),
                attempts=attempts,
                tag=job.tag,
            )
        merged.extend(part)
    return TrialResult(ok=True, value=merged, attempts=attempts, tag=job.tag)


def _dispatch_jobs(
    jobs: List[TrialJob],
    workers: Optional[int],
    timeout_s: Optional[float],
    retries: Optional[int],
) -> List[TrialResult]:
    """The cache-free execution path: serial short-circuit or process pool."""
    count = min(resolve_workers(workers), len(jobs))
    timeout = resolve_trial_timeout(timeout_s)
    tries = resolve_trial_retries(retries)
    if count <= 1:
        return _run_serial(jobs, tries)

    try:
        payloads = [
            pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL) for job in jobs
        ]
    except Exception as exc:  # unpicklable ad-hoc factory: degrade gracefully
        warnings.warn(
            f"trial jobs are not picklable ({exc!r}); running serially"
        )
        return _run_serial(jobs, tries)
    return _run_parallel(jobs, payloads, count, timeout, tries)


def _dispatch_or_fabric(
    jobs: List[TrialJob],
    workers: Optional[int],
    timeout_s: Optional[float],
    retries: Optional[int],
) -> List[TrialResult]:
    """Route a fan-out through the ambient sweep fabric, if one is active.

    Graceful degradation is the contract: no fabric resolved (the common
    case) or a fabric that fails outright both land on the local
    :func:`_dispatch_jobs` path.  The fabric's merge discipline matches the
    pool's (submission order, identical envelopes), so which path ran is
    unobservable in the results.
    """
    from ..fabric import resolve_fabric  # late import: fabric pulls in obs

    fabric = resolve_fabric()
    if fabric is None:
        return _dispatch_jobs(jobs, workers, timeout_s, retries)
    try:
        return fabric.run(
            jobs, workers=workers, timeout_s=timeout_s, retries=retries
        )
    except (KeyboardInterrupt, TrialInterrupted):
        raise
    except Exception as exc:
        warnings.warn(
            f"sweep fabric {fabric!r} failed ({_describe(exc)}); "
            "falling back to the local pool"
        )
        return _dispatch_jobs(jobs, workers, timeout_s, retries)


def run_jobs(
    jobs: Sequence[TrialJob],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    cache: Any = None,
) -> List[TrialResult]:
    """Run jobs, returning :class:`TrialResult` envelopes in submission order.

    The deterministic merge is the contract callers rely on: submit jobs
    sorted by ``(config, seed)`` and the result list lines up regardless of
    which worker finished first.  With one worker (or one job) the pool is
    bypassed entirely.

    A raising, crashing, or hung trial yields ``TrialResult(ok=False, ...)``
    for exactly that trial; siblings still complete and their values are
    bit-identical to a fault-free run.  ``timeout_s``/``retries`` default to
    the ``REPRO_TRIAL_TIMEOUT``/``REPRO_TRIAL_RETRIES`` environment knobs.
    Timeouts require worker processes, so the serial path does not enforce
    them.

    ``cache`` resolves via :func:`repro.cache.resolve_cache` (a
    :class:`~repro.cache.TrialCache`, ``True``/``False``, or ``None`` for
    the ambient/environment default).  With a cache in effect, every job is
    looked up by content address first; hits come back as ``ok=True``
    envelopes with ``attempts=1`` — indistinguishable from a first-try
    success, which is what keeps warm reruns byte-identical to cold ones —
    and only misses are dispatched.  Successful miss values are stored;
    failures are never cached, so a flaky trial re-runs until it succeeds.
    Uncacheable jobs (no stable content address) silently bypass the cache.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    from ..cache import resolve_cache  # late import: cache pulls in repro.obs

    store = resolve_cache(cache)
    if store is None:
        return _dispatch_or_fabric(jobs, workers, timeout_s, retries)

    keys: List[Optional[str]] = [store.key_for(job) for job in jobs]
    results: List[Optional[TrialResult]] = [None] * len(jobs)
    misses: List[int] = []
    for i, (job, key) in enumerate(zip(jobs, keys)):
        if key is not None:
            hit, value = store.get(key)
            if hit:
                results[i] = TrialResult(ok=True, value=value, tag=job.tag)
                continue
        misses.append(i)
    if misses:
        try:
            fresh = _dispatch_or_fabric(
                [jobs[i] for i in misses], workers, timeout_s, retries
            )
        except TrialInterrupted as exc:
            # Bank what finished before re-raising: a resumed sweep replays
            # these as cache hits instead of re-running them.
            for i, envelope in zip(misses, exc.partial):
                if envelope is not None and envelope.ok and keys[i] is not None:
                    store.put(keys[i], envelope.value)
            raise
        for i, envelope in zip(misses, fresh):
            results[i] = envelope
            if envelope.ok and keys[i] is not None:
                store.put(keys[i], envelope.value)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
