"""Command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro list                          # show available experiments
    python -m repro fig2                          # regenerate Figure 2
    python -m repro table2 --trials 4 --workers 4 # more seeds, in parallel
    python -m repro fleet --json-out fleet.json   # machine-readable envelope

Every experiment shares one flag vocabulary, parsed here once:

``--workers N``
    fan trials across N worker processes (where the experiment runs
    town trials; analytic experiments ignore it),
``--trials N``
    run N seeds starting at ``--seed`` (default 0),
``--seed S``
    base seed (alone: run just that one seed),
``--duration S``
    simulated seconds per trial (finite and positive),
``--json-out PATH``
    also write the :class:`~repro.runner.TrialResult` envelope as strict
    JSON (a NaN or infinite float is written as ``null``),
``--telemetry PATH``
    capture :mod:`repro.obs` telemetry in every trial and export the
    snapshots (plus their deterministic merge and a Chrome
    ``traceEvents`` view) as one JSON payload,
``--telemetry-summary``
    capture telemetry and print the merged ASCII summary after the
    experiment's own rendering (combinable with ``--telemetry``),
``--telemetry-deterministic``
    strip wall-clock profiling instruments from the ``--telemetry``
    export (the deterministic projection byte-equality gates compare),
``--cache`` / ``--no-cache``
    force the content-addressed trial-result cache on/off (default:
    the ``REPRO_CACHE`` environment variable; see :mod:`repro.cache`),
``--cache-dir PATH``
    where the cache lives (default: ``REPRO_CACHE_DIR`` or
    ``.repro_cache``).  A warm re-run replays cached trials and is
    byte-identical — results and telemetry — to the cold run.
``--fabric SPEC``
    route trial fan-outs through the distributed sweep fabric
    (``local``, ``local:N``, ``chaos:SEED``, or an ``http://host:port``
    coordinator; default: the ``REPRO_FABRIC`` environment variable; see
    :mod:`repro.fabric`).  Results are byte-identical to a local run.
``--fabric-chaos SEED``
    inject the seeded chaos preset (worker kills, stalls, dropped and
    duplicated completions) into an in-process fabric — the
    fault-tolerance proof knob: results still match serial exactly.
``--cc {reno,cubic,bbr,quic0rtt}``
    congestion controller for every TCP flow the experiment spawns
    (default Reno; ``--cc reno`` is byte-identical to the default),
``--split`` / ``--no-split``
    terminate TCP at the AP and relay over a split connection (see
    :class:`repro.sim.ap.SplitTcpProxy`; default: no split).
``--contention MODE``
    replace the global per-channel airtime FIFO with the CSMA/CA
    multi-cell MAC (:mod:`repro.sim.contention`) in every world the
    experiment builds: ``on``/``off``, optionally with the ``stagger``
    modifier (``on,stagger`` / ``off,stagger``) to also stagger AP
    beacon phases.  Default: the historical global FIFO.

These three flags are the only way to choose the world stack from the
command line: they fill the spec's ``transport`` and ``contention``,
which its ``stack`` carries to every world the experiment builds.

Flags map onto the experiment's spec via
:func:`repro.experiments.api.spec_from_options`, so fields a given spec
does not declare are simply ignored and new experiments get the flags for
free by registering a spec.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Tuple

# Importing the package registers every experiment in REGISTRY.
from .experiments.api import (
    REGISTRY,
    run_experiment,
    spec_from_options,
    to_jsonable,
)
from .sim.cc import CC_NAMES, resolve_transport
from .sim.contention import resolve_contention


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the Spider paper.",
    )
    parser.add_argument(
        "experiment",
        help="artifact id (see 'list') or 'list' to enumerate them",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for trial fan-out (default: serial)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="run N seeds starting at --seed (default: the spec's seeds)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="base seed (without --trials: run only this seed)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated seconds per trial",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the result envelope as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="capture per-trial telemetry and export it (JSON + Chrome "
        "trace_event) to PATH",
    )
    parser.add_argument(
        "--telemetry-summary",
        action="store_true",
        help="capture telemetry and print the merged ASCII summary",
    )
    parser.add_argument(
        "--telemetry-deterministic",
        action="store_true",
        help="strip wall-clock profiling instruments from the --telemetry "
        "export so byte-equality holds across layouts/fabrics",
    )
    parser.add_argument(
        "--cache",
        dest="cache",
        action="store_const",
        const=True,
        default=None,
        help="memoize trial results in the content-addressed cache",
    )
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_const",
        const=False,
        help="disable the trial-result cache (overrides REPRO_CACHE)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--fabric",
        default=None,
        metavar="SPEC",
        help="route trial fan-outs through the sweep fabric: local[:N], "
        "chaos:SEED, or http://host:port (default: $REPRO_FABRIC)",
    )
    parser.add_argument(
        "--fabric-chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="inject the seeded chaos preset into the in-process fabric "
        "(implies --fabric local if not given)",
    )
    parser.add_argument(
        "--cc",
        choices=CC_NAMES,
        default=None,
        help="congestion controller for every TCP flow; experiments "
        "without TCP traffic (analytic figures, table1) ignore it "
        "(default: reno)",
    )
    parser.add_argument(
        "--split",
        dest="split",
        action="store_const",
        const=True,
        default=None,
        help="terminate TCP at the AP and relay over a split connection",
    )
    parser.add_argument(
        "--no-split",
        dest="split",
        action="store_const",
        const=False,
        help="keep TCP end-to-end (the default, spelled out)",
    )
    parser.add_argument(
        "--contention",
        default=None,
        metavar="MODE",
        help="CSMA/CA multi-cell MAC: on/off, plus the stagger modifier "
        "(on,stagger / off,stagger) (default: the global airtime FIFO)",
    )
    return parser


def _seeds_from_flags(
    seed: Optional[int], trials: Optional[int]
) -> Optional[Tuple[int, ...]]:
    """The seed tuple the flags ask for, or ``None`` for the spec default."""
    if trials is not None:
        base = seed if seed is not None else 0
        return tuple(range(base, base + trials))
    if seed is not None:
        return (seed,)
    return None


def _finite_or_null(node):
    """``node`` with every non-finite float replaced by ``None``.

    JSON has no NaN or infinity; ``--json-out`` writes them as ``null``
    (a dividing speed of ``inf`` means switching paid at every probed
    speed).  :func:`to_jsonable` itself is left alone: the golden
    digests hash its output.
    """
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _finite_or_null(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_finite_or_null(value) for value in node]
    return node


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        width = max(len(name) for name in REGISTRY)
        for name, experiment in REGISTRY.items():
            print(f"{name:<{width}}  {experiment.summary}")
        return 0
    experiment = REGISTRY.get(args.experiment)
    if experiment is None:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    if args.duration is not None and not 0 < args.duration < math.inf:
        print("--duration must be finite and > 0", file=sys.stderr)
        return 2
    want_telemetry = args.telemetry is not None or args.telemetry_summary
    try:
        contention = resolve_contention(args.contention)
    except ValueError as exc:
        print(f"bad --contention mode: {exc}", file=sys.stderr)
        return 2
    spec = spec_from_options(
        experiment.spec_cls,
        seeds=_seeds_from_flags(args.seed, args.trials),
        duration_s=args.duration,
        workers=args.workers,
        telemetry=True if want_telemetry else None,
        cache=args.cache,
        cache_dir=args.cache_dir,
        transport=resolve_transport(args.cc, args.split),
        contention=contention,
    )
    # Resolve the cache here too (same shared instance the experiment
    # registry will activate) so its hit/miss stats can be reported below.
    from .cache import resolve_cache

    store = resolve_cache(args.cache, args.cache_dir)
    from .fabric import resolve_fabric

    fabric_spec = args.fabric
    if fabric_spec is None and args.fabric_chaos is not None:
        fabric_spec = "local"
    try:
        fabric = resolve_fabric(fabric_spec, chaos_seed=args.fabric_chaos)
    except ValueError as exc:
        print(f"bad --fabric spec: {exc}", file=sys.stderr)
        return 2
    envelope = run_experiment(args.experiment, spec, fabric=fabric)
    if store is not None:
        print(store.describe(), file=sys.stderr)
    if fabric is not None and hasattr(fabric, "describe"):
        print(fabric.describe(), file=sys.stderr)
    if args.json_out is not None:
        payload = json.dumps(
            _finite_or_null(to_jsonable(envelope)),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    if not envelope.ok:
        print(f"experiment failed: {envelope.error}", file=sys.stderr)
        return 1
    snapshots = []
    if want_telemetry:
        from .obs import collect_snapshots

        snapshots = collect_snapshots(envelope.value)
        if not snapshots:
            print(
                f"warning: {args.experiment!r} produced no telemetry "
                "(analytic experiments ignore --telemetry)",
                file=sys.stderr,
            )
    if args.telemetry is not None and snapshots:
        from .obs import write_payload

        write_payload(
            args.telemetry, snapshots, deterministic=args.telemetry_deterministic
        )
        print(
            f"telemetry: {len(snapshots)} snapshot(s) -> {args.telemetry}",
            file=sys.stderr,
        )
    if args.json_out == "-":
        # Keep stdout pure JSON for piping into jq and friends.
        return 0
    result = envelope.value
    if hasattr(result, "render"):
        print(result.render())
    else:
        print(result)
    if args.telemetry_summary and snapshots:
        from .analysis.reporting import telemetry_summary
        from .obs import merge_snapshots

        print()
        print(telemetry_summary(merge_snapshots(snapshots)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
