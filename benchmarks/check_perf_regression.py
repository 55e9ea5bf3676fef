"""Fail CI when the perf harness regresses against the committed baseline.

Usage::

    git show HEAD:BENCH_perf.json > baseline.json
    python benchmarks/check_perf_regression.py baseline.json BENCH_perf.json

Every ``*events_per_sec`` field present in *both* files is compared; a
drop larger than the threshold (default 10 %) on any of them fails the
run with exit code 1.  A gated field the baseline has but the current
file lacks is reported ``MISSING`` and also fails the run: otherwise a
rate that stopped being measured would pass silently.  Fields only the
current file has are skipped — new benches appear.  The compared fields
are *rates*, so they are insensitive to the seed-count/duration knobs
even when the baseline was produced at full scale and the check at CI's
quick scale.

``--strict bench.field:FRACTION`` (repeatable) pins a tighter per-metric
threshold — e.g. ``--strict telemetry_overhead.events_per_sec:0.02``
enforces the "disabled telemetry is free" budget at 2 % while the rest of
the harness keeps the default slack, and ``--strict
dense_town.events_per_sec:0.15`` holds the vectorized dense-world rate
within 15 % of its committed baseline (its >= 3x advantage over
``dense_town.scalar_events_per_sec`` is asserted inside the bench
itself).  Naming a gate that is absent from the compared files is a
configuration error (exit 2 with the known gate list), not a silent
no-op.

Fields ending in ``speedup`` (wall-clock ratios such as
``dense_town.speedup``) are *strict-only* gates: ratios of two timed runs
are noisier than single rates, so they are ignored by the default sweep
and compared only when pinned explicitly — e.g. ``--strict
dense_town.speedup:0.2`` would keep the vectorization win within 20 % of
its committed baseline (the >= 3x floor itself is asserted inside the
bench).

``--list`` prints every gate name and its committed baseline value, then
exits — handy for discovering what ``--strict`` can pin::

    python benchmarks/check_perf_regression.py --list BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, List, Tuple

#: Metric fields treated as throughput (higher is better).
RATE_SUFFIX = "events_per_sec"

#: Higher-is-better ratio fields, compared only under ``--strict``.
SPEEDUP_SUFFIX = "speedup"


def iter_rates(payload: dict) -> Iterator[Tuple[str, float]]:
    """Yield ``(bench.field, value)`` for every gateable field."""
    for bench, fields in sorted(payload.get("results", {}).items()):
        if not isinstance(fields, dict):
            continue
        for field, value in sorted(fields.items()):
            if (
                field.endswith(RATE_SUFFIX) or field.endswith(SPEEDUP_SUFFIX)
            ) and isinstance(value, (int, float)):
                yield f"{bench}.{field}", float(value)


def compare(
    baseline: dict,
    current: dict,
    threshold: float,
    strict: Dict[str, float] = None,
) -> Tuple[Dict[str, Tuple[float, float, float]], Dict[str, Tuple[float, float, float]]]:
    """Split shared rate metrics into (passed, regressed) mappings.

    Each value is ``(baseline, current, ratio)`` with ``ratio =
    current / baseline``.  ``strict`` maps metric names to per-metric
    thresholds that override the default.
    """
    base_rates = dict(iter_rates(baseline))
    cur_rates = dict(iter_rates(current))
    strict = strict or {}
    passed: Dict[str, Tuple[float, float, float]] = {}
    regressed: Dict[str, Tuple[float, float, float]] = {}
    for name in sorted(set(base_rates) & set(cur_rates)):
        if name.endswith(SPEEDUP_SUFFIX) and name not in strict:
            # Speedup ratios divide two timed runs — too noisy for the
            # default sweep; they gate only when pinned via --strict.
            continue
        base, cur = base_rates[name], cur_rates[name]
        ratio = cur / base if base > 0 else float("inf")
        limit = strict.get(name, threshold)
        bucket = regressed if ratio < 1.0 - limit else passed
        bucket[name] = (base, cur, ratio)
    return passed, regressed


def vanished(
    baseline: dict, current: dict, strict: Dict[str, float] = None
) -> List[str]:
    """Gated rates the baseline reports and ``current`` no longer does.

    Speedup ratios count only when pinned via ``strict``, exactly as in
    :func:`compare`.
    """
    strict = strict or {}
    cur_rates = dict(iter_rates(current))
    return [
        name
        for name, _ in iter_rates(baseline)
        if name not in cur_rates
        and (not name.endswith(SPEEDUP_SUFFIX) or name in strict)
    ]


def parse_strict(entries) -> Dict[str, float]:
    """Parse repeated ``bench.field:FRACTION`` options into a mapping."""
    strict: Dict[str, float] = {}
    for entry in entries or ():
        name, sep, frac = entry.rpartition(":")
        if not sep or not name:
            raise ValueError(f"--strict wants bench.field:FRACTION, got {entry!r}")
        strict[name] = float(frac)
    return strict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_perf.json")
    parser.add_argument(
        "current",
        nargs="?",
        default=None,
        help="freshly generated BENCH_perf.json (not needed with --list)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="maximum tolerated fractional drop (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--strict",
        action="append",
        default=[],
        metavar="NAME:FRACTION",
        help="per-metric threshold override, e.g. "
        "telemetry_overhead.events_per_sec:0.02 (repeatable)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print gate names and committed baseline values, then exit",
    )
    args = parser.parse_args(argv)
    try:
        strict = parse_strict(args.strict)
    except ValueError as exc:
        parser.error(str(exc))
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if args.list:
        rates = dict(iter_rates(baseline))
        if not rates:
            print(f"no events/sec gates in {args.baseline}", file=sys.stderr)
            return 2
        width = max(len(name) for name in rates)
        for name, value in rates.items():
            print(f"{name:<{width}}  {value:12.1f}")
        return 0
    if args.current is None:
        parser.error("current BENCH_perf.json is required (or use --list)")
    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    passed, regressed = compare(baseline, current, args.threshold, strict)
    missing = vanished(baseline, current, strict)
    known = set(passed) | set(regressed) | set(missing)
    unknown = sorted(set(strict) - known)
    if unknown:
        names = ", ".join(sorted(known)) or "(none)"
        print(
            f"unknown gate(s) {', '.join(unknown)} named via --strict; "
            f"gates present in both files: {names}",
            file=sys.stderr,
        )
        return 2
    if not passed and not regressed:
        print("no shared events/sec metrics to compare", file=sys.stderr)
        return 2
    for name, (base, cur, ratio) in {**passed, **regressed}.items():
        verdict = "REGRESSED" if name in regressed else "ok"
        print(f"{name:45s} {base:12.1f} -> {cur:12.1f}  ({ratio:5.2f}x)  {verdict}")
    base_rates = dict(iter_rates(baseline))
    for name in missing:
        print(f"{name:45s} {base_rates[name]:12.1f} -> {'absent':>12}           MISSING")
    if regressed:
        print(
            f"{len(regressed)} metric(s) dropped more than "
            f"{100 * args.threshold:.0f}% vs baseline",
            file=sys.stderr,
        )
    if missing:
        print(
            f"{len(missing)} baseline metric(s) missing from {args.current}",
            file=sys.stderr,
        )
    return 1 if regressed or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
