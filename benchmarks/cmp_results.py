"""Compare two ``--json-out`` result files, embedded telemetry stripped.

Usage::

    python benchmarks/cmp_results.py default.json other.json

Per-trial telemetry snapshots embedded in a result file carry wall-clock
(nondeterministic) instruments that differ between *any* two runs, so
every ``telemetry`` key is dropped before the two ``value`` payloads are
compared.  Compare the deterministic telemetry exports with ``cmp``.
Exit code 0 when the results match, 1 when they differ, 2 on bad usage.
"""

from __future__ import annotations

import json
import sys


def strip(node):
    """``node`` with every ``telemetry`` key removed, recursively."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k != "telemetry"}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    values = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            values.append(strip(json.load(handle)["value"]))
    if values[0] != values[1]:
        print(f"table rows differ: {paths[0]} vs {paths[1]}", file=sys.stderr)
        return 1
    print("metrics identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
