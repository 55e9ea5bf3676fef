"""Result digests: canonical JSON of a run's result rows, hashed.

Two runs of one (workload, seed) must produce the same digest, and so must
a traced and an untraced run.  Keys that name wall-clock or CPU figures
are dropped before hashing, because those differ on every run.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

from repro.experiments.api import to_jsonable

#: Keys of timing fields, excluded from digests.
WALL_CLOCK_KEY = re.compile(r"(wall|cpu|elapsed|perf_counter)", re.IGNORECASE)


def strip_wall_clock(obj: Any) -> Any:
    """``obj`` with every dict entry whose key names a timing removed."""
    if isinstance(obj, dict):
        return {
            k: strip_wall_clock(v)
            for k, v in obj.items()
            if not WALL_CLOCK_KEY.search(str(k))
        }
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


def canonical(obj: Any) -> str:
    """Canonical JSON: key order ignored, timing fields excluded."""
    return json.dumps(
        strip_wall_clock(to_jsonable(obj)), sort_keys=True, separators=(",", ":")
    )


def digest(obj: Any) -> str:
    """SHA-256 of :func:`canonical`, first 16 hex digits."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]
