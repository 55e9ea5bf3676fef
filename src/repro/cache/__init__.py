"""Content-addressed, cross-run memoization of trial results.

Every paper artifact is a sweep of independent ``(spec, seed)`` trials, and
PR 3 made each trial a pure deterministic function of its frozen spec.  That
purity is worth money: the same trial re-simulated by Figure 11-13, the
Table 2 suite, a bench run, and a CI job produces byte-identical results
every time, so computing it once and replaying the stored envelope is
indistinguishable from re-running it.  :class:`TrialCache` makes that
replay automatic for every experiment routed through
:mod:`repro.runner.pool`.

Keying
------
A cache key is ``sha256(canonical job token || code fingerprint)``:

* :func:`canonical_token` renders a :class:`~repro.runner.TrialJob` — its
  function, the frozen spec dataclasses in its arguments, seeds, durations,
  fault plans — into a canonical string.  Dataclasses serialize as
  ``module.QualName`` plus *sorted* field/value pairs, mappings sort by key,
  and sets sort by element token, so the token is independent of dict/set
  iteration order (and therefore of ``PYTHONHASHSEED``).  Objects with no
  canonical form fall back to their pickle bytes — pickling is exactly what
  ships the job to a worker, so two jobs with equal pickles are
  interchangeable by construction.  Anything unpicklable makes the job
  *uncacheable* (key ``None``), never wrong.
* :func:`code_fingerprint` hashes the source bytes of every module under
  :mod:`repro.sim`, :mod:`repro.core`, and :mod:`repro.workloads` (the
  packages whose behavior determines a trial's outcome).  Any edit to any
  of those files changes every key, so stale entries are invalidated
  automatically — they simply stop matching and age out via ``prune``.

Storage
-------
Entries live under ``<root>/<key[:2]>/<key>.pkl`` as a pickled
``(schema, key, value)`` tuple.  Writes go to a temporary file in the same
directory followed by :func:`os.replace`, so concurrent writers (parallel
CI jobs sharing a cache volume) can never expose a torn entry; readers
treat any unreadable/corrupt/mismatched entry as a miss and delete it.
Only *successful* trial values are stored — failures always re-run.

Instrumentation
---------------
Each cache owns a :class:`repro.obs.Telemetry` registry with
``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.bytes_read`` / ``cache.bytes_written`` / ``cache.errors``
counters; :meth:`TrialCache.snapshot` freezes them for export and
:meth:`TrialCache.describe` renders the one-line summary the CLI prints.

Enablement (first match wins): an explicit ``cache=`` argument to
:func:`repro.runner.run_jobs`, the cache activated by the enclosing
:func:`activate` context (how ``ExperimentSpec.cache`` and the
``--cache`` CLI flag plumb through), or the ``REPRO_CACHE`` environment
variable.  The cache directory defaults to ``REPRO_CACHE_DIR`` or
``.repro_cache``.  The cache is **off** unless one of those turns it on —
a cold run's behavior is the contract, the cache only skips work whose
outcome is already known byte-for-byte.

``python -m repro.cache stats|prune|verify`` operates on the store from
the command line.  ``REPRO_CACHE_MAX_BYTES`` (or ``TrialCache(...,
max_bytes=)``) puts the store on a size budget: after enough stores the
cache prunes itself back under the cap, least-recently-used first (hits
refresh mtime), under an advisory file lock (``cache_lock``) so
concurrent coordinators/workers sharing a volume never race each other's
maintenance scans.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.telemetry import Telemetry, TelemetrySnapshot

__all__ = [
    "CACHE_ENV",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_CACHE_DIR",
    "cache_lock",
    "resolve_cache_max_bytes",
    "TrialCache",
    "CacheEntry",
    "canonical_token",
    "cache_key",
    "code_fingerprint",
    "fingerprint_sources",
    "resolve_cache",
    "resolve_cache_dir",
    "shared_cache",
    "activate",
    "active_cache",
    "iter_entries",
    "cache_stats",
    "prune_cache",
    "verify_cache",
]

#: Turns the cache on for every runner fan-out when truthy ("1", "true", ...).
CACHE_ENV = "REPRO_CACHE"
#: Overrides the on-disk location of the store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"
#: Size budget for the store (bytes; suffixes K/M/G accepted).  When set,
#: every :class:`TrialCache` self-maintains: after enough stores it prunes
#: least-recently-used entries back under the budget (under the file lock,
#: skipped if another process is already maintaining).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Stamped into every entry; bump on any incompatible layout change.
ENTRY_SCHEMA = "repro.cache/v1"

#: Packages whose source bytes define a trial's behavior.
DEFAULT_FINGERPRINT_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.workloads",
)


# ---------------------------------------------------------------------------
# Canonical tokens and keys
# ---------------------------------------------------------------------------
def canonical_token(obj: Any) -> str:
    """A canonical, hash-order-independent string for a job's value graph.

    Raises ``TypeError``/``pickle.PicklingError`` (via the pickle fallback)
    for objects with no stable form; callers treat that as "uncacheable".
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        # repr() is the shortest round-trip form: exact and canonical.
        return repr(obj)
    if isinstance(obj, bytes):
        return f"b:{obj.hex()}"
    if isinstance(obj, enum.Enum):
        cls = type(obj)
        return f"e:{cls.__module__}.{cls.__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        body = ",".join(
            f"{name}={canonical_token(getattr(obj, name))}"
            for name in sorted(f.name for f in dataclasses.fields(obj))
        )
        return f"d:{cls.__module__}.{cls.__qualname__}({body})"
    if isinstance(obj, (list, tuple)):
        kind = "l" if isinstance(obj, list) else "t"
        return f"{kind}:[{','.join(canonical_token(v) for v in obj)}]"
    if isinstance(obj, dict):
        items = sorted(
            (canonical_token(k), canonical_token(v)) for k, v in obj.items()
        )
        return f"m:{{{','.join(f'{k}:{v}' for k, v in items)}}}"
    if isinstance(obj, (set, frozenset)):
        return f"s:{{{','.join(sorted(canonical_token(v) for v in obj))}}}"
    if callable(obj) and hasattr(obj, "__qualname__"):
        module = getattr(obj, "__module__", None)
        if module and "<locals>" not in obj.__qualname__:
            return f"f:{module}.{obj.__qualname__}"
    # Last resort: the pickle bytes are exactly what a worker would execute,
    # so equal pickles mean interchangeable jobs.  Unpicklable -> raises,
    # which the caller maps to "uncacheable".
    return f"p:{pickle.dumps(obj, protocol=4).hex()}"


def cache_key(token: str, fingerprint: str) -> str:
    """The content address for one job under one code fingerprint."""
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(token.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_sources(paths: Sequence[Path]) -> str:
    """Hash file contents (sorted by name) into a hex fingerprint."""
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(str(path.name).encode("utf-8"))
        digest.update(b"\x00")
        try:
            digest.update(path.read_bytes())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\x01")
    return digest.hexdigest()


_FINGERPRINTS: Dict[Tuple[str, ...], str] = {}


def code_fingerprint(
    packages: Sequence[str] = DEFAULT_FINGERPRINT_PACKAGES,
) -> str:
    """Fingerprint of the simulation code: any behavioral edit changes it.

    Hashes every ``*.py`` under each package's directory tree (sorted,
    path-relative) so refactors, new modules, and deletions all invalidate.
    Computed once per process per package set.
    """
    key = tuple(packages)
    cached = _FINGERPRINTS.get(key)
    if cached is not None:
        return cached
    import importlib

    digest = hashlib.sha256()
    for name in key:
        module = importlib.import_module(name)
        roots = list(getattr(module, "__path__", []))
        if not roots:  # a plain module: hash its own file
            roots = [os.path.dirname(module.__file__ or "")]
        for root in roots:
            root_path = Path(root)
            for source in sorted(root_path.rglob("*.py")):
                digest.update(
                    str(source.relative_to(root_path)).encode("utf-8")
                )
                digest.update(b"\x00")
                digest.update(source.read_bytes())
                digest.update(b"\x01")
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[key] = fingerprint
    return fingerprint


# ---------------------------------------------------------------------------
# Concurrency: the maintenance file lock
# ---------------------------------------------------------------------------
_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def resolve_cache_max_bytes(max_bytes: Optional[int] = None) -> Optional[int]:
    """Explicit budget, else ``REPRO_CACHE_MAX_BYTES``, else ``None`` (no cap).

    The environment form accepts a plain byte count or a ``K``/``M``/``G``
    suffix (``512M``).  Garbage or non-positive values warn and disable the
    cap — a bad environment variable must never delete a cache.
    """
    if max_bytes is not None:
        return int(max_bytes) if max_bytes > 0 else None
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip().lower()
    if not raw:
        return None
    scale = _SIZE_SUFFIXES.get(raw[-1:], 1)
    digits = raw[:-1] if scale != 1 else raw
    try:
        value = int(digits) * scale
    except ValueError:
        warnings.warn(f"ignoring non-numeric {CACHE_MAX_BYTES_ENV}={raw!r}")
        return None
    if value <= 0:
        warnings.warn(f"ignoring non-positive {CACHE_MAX_BYTES_ENV}={raw!r}")
        return None
    return value


@contextmanager
def cache_lock(root: os.PathLike, blocking: bool = True):
    """Exclusive advisory lock on ``<root>/.lock`` for store maintenance.

    Entry writes are already safe unlocked (atomic ``os.replace``); the
    lock exists so concurrent *maintenance* — two coordinators pruning the
    same shared volume, a worker pruning while the CLI verifies — cannot
    race each other's directory scans.  Yields ``True`` when the lock was
    taken; with ``blocking=False`` yields ``False`` immediately if another
    process holds it (auto-maintenance skips rather than stalls).  On
    platforms without ``fcntl`` the lock degrades to a no-op ``True``.
    """
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        handle = open(root / ".lock", "a+b")
    except OSError:
        yield False
        return
    try:
        try:
            import fcntl
        except ImportError:
            yield True
            return
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(handle.fileno(), flags)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
    finally:
        handle.close()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class TrialCache:
    """A concurrency-safe, content-addressed store of trial values.

    ``fingerprint`` defaults to :func:`code_fingerprint`; tests pass an
    explicit one (e.g. from :func:`fingerprint_sources`) to pin or perturb
    invalidation.  All I/O failures degrade to misses — a broken cache
    volume can slow a sweep down, never corrupt it.
    """

    def __init__(
        self,
        root: os.PathLike,
        fingerprint: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        self.max_bytes = resolve_cache_max_bytes(max_bytes)
        self._unmaintained_bytes = 0
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=True, key=("cache", str(self.root)))
        )
        self._hits = self.telemetry.counter("cache.hits")
        self._misses = self.telemetry.counter("cache.misses")
        self._stores = self.telemetry.counter("cache.stores")
        self._bytes_read = self.telemetry.counter("cache.bytes_read")
        self._bytes_written = self.telemetry.counter("cache.bytes_written")
        self._errors = self.telemetry.counter("cache.errors")

    # -- keys ----------------------------------------------------------
    def key_for(self, job: Any) -> Optional[str]:
        """The job's content address, or ``None`` when uncacheable."""
        try:
            return cache_key(canonical_token(job), self.fingerprint)
        except Exception:
            return None

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- read/write ----------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` otherwise."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._misses.inc()
            return False, None
        try:
            schema, stored_key, value = pickle.loads(blob)
            if schema != ENTRY_SCHEMA or stored_key != key:
                raise ValueError("entry schema/key mismatch")
        except Exception:
            # Torn or stale-format entry: count it, drop it, treat as miss.
            self._errors.inc()
            self._misses.inc()
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self._hits.inc()
        self._bytes_read.inc(len(blob))
        try:
            os.utime(path)  # refresh mtime so LRU pruning keeps hot entries
        except OSError:
            pass
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Atomically store one value; ``False`` (never raises) on failure."""
        path = self.path_for(key)
        try:
            blob = pickle.dumps(
                (ENTRY_SCHEMA, key, value), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            self._errors.inc()
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".pkl", dir=path.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)  # atomic: readers see old or new, never torn
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._errors.inc()
            warnings.warn(f"cache write failed for {path}: {exc}")
            return False
        self._stores.inc()
        self._bytes_written.inc(len(blob))
        if self.max_bytes is not None:
            self._unmaintained_bytes += len(blob)
            # Maintain once enough new bytes have landed to matter (an
            # eighth of the budget), not on every store — directory scans
            # on a large store are not free.
            if self._unmaintained_bytes >= max(1, self.max_bytes // 8):
                self.maintain()
        return True

    def maintain(self) -> Optional[Dict[str, int]]:
        """Prune LRU entries back under ``max_bytes`` (no cap: no-op).

        Takes the maintenance lock non-blocking: if another process is
        already pruning this store, skip — the budget is about to be
        enforced anyway.  Returns the prune summary, or ``None`` when
        skipped/uncapped.
        """
        if self.max_bytes is None:
            return None
        self._unmaintained_bytes = 0
        with cache_lock(self.root, blocking=False) as held:
            if not held:
                return None
            return prune_cache(self.root, max_bytes=self.max_bytes)

    # -- introspection -------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Process-local counters: hits/misses/stores/bytes/errors."""
        return {
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
            "stores": int(self._stores.value),
            "bytes_read": int(self._bytes_read.value),
            "bytes_written": int(self._bytes_written.value),
            "errors": int(self._errors.value),
        }

    def snapshot(self) -> TelemetrySnapshot:
        """Frozen :mod:`repro.obs` snapshot of the cache counters."""
        return self.telemetry.snapshot()

    def describe(self) -> str:
        """One-line human summary (the CLI prints this after a cached run)."""
        s = self.stats
        return (
            f"cache {self.root}: {s['hits']} hit(s), {s['misses']} miss(es), "
            f"{s['stores']} store(s), {s['bytes_read']} B read, "
            f"{s['bytes_written']} B written"
        )


# ---------------------------------------------------------------------------
# Resolution and ambient activation
# ---------------------------------------------------------------------------
_ACTIVE: List[Optional[TrialCache]] = []
_SHARED: Dict[Path, TrialCache] = {}


def shared_cache(root: os.PathLike) -> TrialCache:
    """The process-wide :class:`TrialCache` for ``root`` (one per directory).

    Sharing one instance keeps the hit/miss counters coherent when the CLI,
    the experiment API, and the runner all resolve the same directory.
    """
    path = Path(root).resolve()
    cache = _SHARED.get(path)
    if cache is None:
        cache = _SHARED[path] = TrialCache(path)
    return cache


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    """Explicit directory, else ``REPRO_CACHE_DIR``, else the default."""
    if cache_dir:
        return cache_dir
    return os.environ.get(CACHE_DIR_ENV, "").strip() or DEFAULT_CACHE_DIR


def _env_enabled() -> bool:
    raw = os.environ.get(CACHE_ENV, "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


def resolve_cache(
    cache: Any = None, cache_dir: Optional[str] = None
) -> Optional[TrialCache]:
    """Turn a cache request into a :class:`TrialCache` or ``None``.

    ``cache`` may be a :class:`TrialCache` (used as-is), ``True``/``False``
    (forced on/off), or ``None`` — which defers to the ambient
    :func:`activate` context and then the ``REPRO_CACHE`` environment
    variable, mirroring how the runner resolves worker counts.
    """
    if isinstance(cache, TrialCache):
        return cache
    if cache is False:
        return None
    if cache is None:
        ambient = active_cache()
        if ambient is not None:
            return ambient
        if not _env_enabled():
            return None
    return shared_cache(resolve_cache_dir(cache_dir))


def active_cache() -> Optional[TrialCache]:
    """The innermost cache activated via :func:`activate`, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(cache: Optional[TrialCache]):
    """Make ``cache`` ambient for every runner fan-out inside the block.

    ``activate(None)`` is a transparent no-op, so callers can resolve once
    and wrap unconditionally.
    """
    if cache is None:
        yield None
        return
    _ACTIVE.append(cache)
    try:
        yield cache
    finally:
        _ACTIVE.pop()


# ---------------------------------------------------------------------------
# Maintenance (shared by ``python -m repro.cache`` and tests)
# ---------------------------------------------------------------------------
class CacheEntry(NamedTuple):
    """One on-disk entry, as seen by the maintenance commands."""

    path: Path
    key: str
    size: int
    mtime: float


def iter_entries(root: os.PathLike) -> Iterator[CacheEntry]:
    """Every ``*.pkl`` entry under ``root`` (missing dir -> empty)."""
    root = Path(root)
    if not root.is_dir():
        return
    for path in sorted(root.glob("*/*.pkl")):
        try:
            stat = path.stat()
        except OSError:
            continue
        yield CacheEntry(
            path=path, key=path.stem, size=stat.st_size, mtime=stat.st_mtime
        )


def cache_stats(root: os.PathLike) -> Dict[str, Any]:
    """Aggregate on-disk stats: entry count, total bytes, mtime range."""
    entries = list(iter_entries(root))
    return {
        "dir": str(root),
        "entries": len(entries),
        "bytes": sum(e.size for e in entries),
        "oldest_mtime": min((e.mtime for e in entries), default=None),
        "newest_mtime": max((e.mtime for e in entries), default=None),
    }


def prune_cache(
    root: os.PathLike,
    max_age_s: Optional[float] = None,
    max_bytes: Optional[int] = None,
    drop_all: bool = False,
    now: Optional[float] = None,
) -> Dict[str, int]:
    """Delete entries by age and/or total-size budget (oldest first).

    ``max_age_s`` drops entries older than the cutoff; ``max_bytes`` then
    evicts least-recently-used survivors until the store fits the budget
    (hits refresh mtime, so "oldest" means "least recently useful").
    Returns ``{"removed": n, "freed_bytes": b, "kept": k}``.
    """
    import time as _time

    entries = sorted(iter_entries(root), key=lambda e: (e.mtime, e.path))
    reference = _time.time() if now is None else now
    removed = 0
    freed = 0
    kept: List[CacheEntry] = []
    for entry in entries:
        drop = drop_all or (
            max_age_s is not None and reference - entry.mtime > max_age_s
        )
        if drop:
            try:
                entry.path.unlink()
                removed += 1
                freed += entry.size
            except OSError:
                kept.append(entry)
        else:
            kept.append(entry)
    if max_bytes is not None:
        total = sum(e.size for e in kept)
        survivors: List[CacheEntry] = []
        for entry in kept:  # still oldest-first: evict LRU until we fit
            if total > max_bytes:
                try:
                    entry.path.unlink()
                    removed += 1
                    freed += entry.size
                    total -= entry.size
                    continue
                except OSError:
                    pass
            survivors.append(entry)
        kept = survivors
    return {"removed": removed, "freed_bytes": freed, "kept": len(kept)}


def verify_cache(root: os.PathLike, fix: bool = False) -> List[str]:
    """Check every entry unpickles and matches its content address.

    Returns a list of problem descriptions (empty = healthy).  ``fix``
    deletes each bad entry as it is found — safe, because a deleted entry
    is just a future miss.
    """
    problems: List[str] = []
    for entry in iter_entries(root):
        problem = None
        try:
            schema, stored_key, _value = pickle.loads(entry.path.read_bytes())
            if schema != ENTRY_SCHEMA:
                problem = f"{entry.path}: unknown schema {schema!r}"
            elif stored_key != entry.key:
                problem = (
                    f"{entry.path}: stored key {stored_key!r} does not match "
                    f"filename"
                )
            elif entry.path.parent.name != entry.key[:2]:
                problem = f"{entry.path}: misfiled (expected {entry.key[:2]}/)"
        except Exception as exc:
            problem = f"{entry.path}: unreadable ({type(exc).__name__}: {exc})"
        if problem is not None:
            problems.append(problem)
            if fix:
                try:
                    entry.path.unlink()
                except OSError:
                    pass
    return problems
