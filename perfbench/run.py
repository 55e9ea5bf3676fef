"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload town_grid --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the workload runs untraced, pass after pass, until
``--seconds`` of wall time have gone (at least three passes), and the run
prints the end-to-end metrics.  The loop CPU is the sum over slices of
simulated time of each slice's fastest pass (:mod:`timing`), set-up is the
median over passes, and both are scaled to a quiet host by the reference
kernel timed before every loop (:mod:`reference`).
With ``--trace 1`` it runs one untraced pass and then one traced pass,
and prints the per-layer metrics.  Every pass's result rows are hashed;
all digests of a run must agree, and every output check must hold, or the
run exits non-zero.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untraced passes per run, at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Largest allowed gap between the layers' summed self time and the traced
#: loop CPU, as a share of the loop CPU.
SELF_TIME_TOLERANCE = 0.01
#: Smallest share of the traced loop CPU that named layers must account for.
MIN_ATTRIBUTED_SHARE = 0.95


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def strip_repro_env() -> List[str]:
    """Remove every ``REPRO_*`` variable, so the shell cannot change the run."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Pass:
    """One call of the workload and what was measured around it."""

    traced: bool
    probe: Any = None
    call_cpu_s: float = 0.0
    digest: str = ""
    outcomes: Dict[str, float] = field(default_factory=dict)
    paths: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.call_cpu_s - self.probe.loop_cpu_s - sum(self.probe.bursts)


def run_pass(workload, spec, traced: bool) -> Pass:
    from probe import Probe
    from results import digest

    # Collect the previous pass's worlds now, not inside this pass's timing.
    gc.collect()
    done = Pass(traced=traced, probe=Probe(traced))
    probe = done.probe
    probe.install()
    try:
        start = time.process_time()
        result = workload.call(spec)
        done.call_cpu_s = time.process_time() - start
    except Exception:  # a failed run is counted, not fatal
        done.problems.append("workload raised:\n" + traceback.format_exc())
        return done
    finally:
        probe.uninstall()
    done.paths = paths_taken(probe)
    if not traced:
        # Keep only what the metrics need, so passes do not pile up worlds.
        probe.media.clear()
    done.problems += workload.problems(spec, result)
    if done.problems:
        return done
    done.digest = digest(workload.rows(result))
    done.outcomes = workload.outcomes(result)
    for until, now in probe.runs:
        if now < until:
            done.problems.append(f"Simulator.run(until={until}) stopped at {now}")
    if not probe.sim_s > 0 or not probe.loop_cpu_s > 0:
        done.problems.append("no simulated time advanced")
    return done


def paths_taken(probe) -> Dict[str, Any]:
    """Which delivery and contention implementations the worlds used."""
    from repro.sim.radio import VECTOR_MIN_STATIONS

    media = probe.media
    return {
        "vector_index": sorted(
            {m.vector_delivery and len(m.stations()) >= VECTOR_MIN_STATIONS for m in media}
        ),
        "contention_state": sorted(
            {type(m.contention).__name__ if m.contention else "none" for m in media}
        ),
    }


def environment(removed: List[str], spec, paths: Dict[str, Any]) -> Dict[str, Any]:
    """What the run resolved to, for the record."""
    from repro.cache import resolve_cache
    from repro.fabric import resolve_fabric

    try:
        import numpy  # noqa: F401

        numpy_present = True
    except ImportError:
        numpy_present = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_present,
        "commit": git_commit(ROOT),
        "removed_env": removed,
        "workers": spec.workers,
        "cache": repr(resolve_cache(spec.cache, spec.cache_dir)),
        "fabric": repr(resolve_fabric(None)),
        **paths,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(untraced: List[Pass], slices: int) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics of a run's untraced passes (name -> (value, unit)).

    The CPU figures are in CPU seconds on a quiet host: measured CPU
    divided by the host's slowdown over the run (:mod:`reference`).
    """
    from reference import slowdown
    from timing import fastest_loop_cpu_s

    outcomes = untraced[0].outcomes
    sim_s = untraced[0].probe.sim_s
    host = slowdown([b for p in untraced for b in p.probe.bursts])
    loop_cpu_s = fastest_loop_cpu_s([p.probe.trajectories for p in untraced], slices) / host
    print(
        f"host slowdown {host:.3f}; fastest slices: loop {loop_cpu_s:.3f} "
        f"quiet-host CPU-s for {sim_s:g} sim-s"
    )
    return {
        "sim_s_per_cpu_s": (sim_s / loop_cpu_s, "sim-s/CPU-s"),
        "setup_s": (statistics.median(p.setup_s for p in untraced) / host, "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "goodput_kBps": (outcomes["goodput_kBps"], "kB/s"),
        "connectivity_pct": (outcomes["connectivity_pct"], "%"),
        "join_completion": (outcomes["join_completion"], "ratio"),
    }


def layer_metrics(traced: Pass, untraced_loop_cpu_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced pass (name -> (value, unit))."""
    from layers import LAYER_MODULES
    from probe import CLIENT_KEYS

    probe = traced.probe
    calls = probe.timer.calls
    loop = probe.loop_cpu_s
    self_s = probe.loop_self_s
    media = probe.media
    states = [m.contention for m in media if m.contention is not None]
    attempts = [a for log in probe.join_logs for a in log.attempts]
    associated = sum(a.associated for a in attempts)
    delivered = sum(m.frames_delivered for m in media)
    lost = sum(m.frames_lost for m in media)
    acquires = calls["ContentionState.acquire"]
    segments = calls["TcpReceiver.on_segment"]
    town_s = probe.timer.inclusive_s.get("build_town", 0.0)
    clients_s = sum(probe.timer.inclusive_s.get(k, 0.0) for k in CLIENT_KEYS)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYER_MODULES:
        if layer not in ("faults", "setup", "runner"):
            out[f"{layer}.self_cpu_s"] = (self_s.get(layer, 0.0), "s")
            if layer != "mobility":
                out[f"{layer}.share"] = (ratio(self_s.get(layer, 0.0), loop), "ratio")
    us = 1e6
    out.update({
        "engine.events": (probe.events, "count"),
        "engine.dispatched": (probe.dispatched, "count"),
        "engine.folded_share": (1.0 - ratio(probe.dispatched, probe.events), "ratio"),
        "engine.events_per_cpu_s": (ratio(probe.events, untraced_loop_cpu_s), "1/s"),
        "engine.heap_high_water": (probe.heap_high_water, "count"),
        "engine.compactions": (probe.compactions, "count"),
        "medium.transmits": (calls["Medium.transmit"], "count"),
        "medium.frames_delivered": (delivered, "count"),
        "medium.frames_lost": (lost, "count"),
        "medium.drops": (lost + probe.interference_hits, "count"),
        "medium.self_us_per_delivery": (us * ratio(self_s.get("medium", 0.0), delivered), "us"),
        "medium.vector": (int(calls["VectorIndex.survivors"] > 0), "flag"),
        "contention.acquires": (acquires, "count"),
        "contention.deferrals": (sum(s.deferrals for s in states), "count"),
        "contention.grants": (sum(s.grants for s in states), "count"),
        "contention.grant_ratio": (ratio(sum(s.grants for s in states), acquires), "ratio"),
        "contention.collision_scans": (probe.collision_scans, "count"),
        "contention.collisions": (sum(s.collisions for s in states), "count"),
        "contention.self_us_per_acquire": (us * ratio(self_s.get("contention", 0.0), acquires), "us"),
        "mac.beacons": (calls["tick:AccessPoint._send_beacon"], "count"),
        "mac.tunes": (calls["dispatch:WifiNic._finish_tune"], "count"),
        "mac.assoc_attempts": (calls["Associator.start"], "count"),
        "mac.assoc_success_ratio": (ratio(associated, len(attempts)), "ratio"),
        "dhcp.attempts": (calls["DhcpClient.start"], "count"),
        "dhcp.timeouts": (calls["dispatch:DhcpClient._on_timeout"], "count"),
        "dhcp.success_ratio": (ratio(sum(a.leased for a in attempts), associated), "ratio"),
        "tcp.segments": (segments, "count"),
        "tcp.acks": (calls["TcpSender.on_ack"], "count"),
        "tcp.rtos": (calls["dispatch:TcpSender._on_rto"], "count"),
        "tcp.fast_retransmits": (calls["TcpSender._fast_retransmit"], "count"),
        "tcp.self_us_per_segment": (us * ratio(self_s.get("tcp", 0.0), segments), "us"),
        "traffic.pings": (calls["PingService.send"], "count"),
        "lmm.ticks": (probe.ticks("lmm"), "count"),
        "lmm.joins_started": (len(attempts), "count"),
        "lmm.joins_completed": (sum(a.join_time_s is not None for a in attempts), "count"),
        "mobility.calls": (probe.position_queries, "count"),
        "setup.town_cpu_s": (town_s, "s"),
        "setup.clients_cpu_s": (clients_s, "s"),
        "runner.overhead_cpu_s": (traced.setup_s - town_s - clients_s, "s"),
        "trace.overhead_ratio": (ratio(loop, untraced_loop_cpu_s), "ratio"),
        "trace.unattributed_share": (1.0 - ratio(probe.attributed_s, loop), "ratio"),
    })
    return out


def trace_problems(traced: Pass) -> List[str]:
    """Coverage and consistency checks of a traced pass."""
    probe = traced.probe
    out = []
    if probe.unattributed:
        out.append(f"callbacks outside the layer map: {sorted(probe.unattributed)}")
    loop = probe.loop_cpu_s
    summed = sum(probe.loop_self_s.values())
    if abs(summed - loop) > SELF_TIME_TOLERANCE * loop:
        out.append(f"layer self times sum to {summed:.4f} s, traced loop took {loop:.4f} s")
    if ratio(probe.attributed_s, loop) < MIN_ATTRIBUTED_SHARE:
        out.append(f"named layers cover {ratio(probe.attributed_s, loop):.3f} of the loop")
    states = [m.contention for m in probe.media if m.contention is not None]
    granted = sum(s.grants + s.deferrals for s in states)
    if probe.timer.calls["ContentionState.acquire"] != granted:
        out.append(
            f"{probe.timer.calls['ContentionState.acquire']} acquires, "
            f"{granted} grants + deferrals"
        )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    removed = strip_repro_env()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workload.spec(args.seed)
    print(f"workload {workload.name} seed {args.seed}: {spec}")

    passes: List[Pass] = []
    wall_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, spec, traced=False))
        if args.trace or passes[-1].problems:
            break
        if len(passes) >= MIN_PASSES and time.perf_counter() - wall_start >= args.seconds:
            break
    if args.trace and not passes[-1].problems:
        passes.append(run_pass(workload, spec, traced=True))
        passes[-1].problems += trace_problems(passes[-1])

    digests = {p.digest for p in passes if not p.problems}
    for index, p in enumerate(passes, 1):
        if len(digests) > 1:
            p.problems.append(f"digest {p.digest} differs from the other passes")
        kind = "traced" if p.traced else "untraced"
        status = "ok" if not p.problems else "FAILED"
        print(
            f"pass {index} {kind} {status}: digest {p.digest} "
            f"loop {p.probe.loop_cpu_s:.3f} CPU-s for {p.probe.sim_s:g} sim-s, "
            f"set-up {p.setup_s:.3f} CPU-s"
        )
        for problem in p.problems:
            print(f"  problem: {problem}")
    print("env " + json.dumps(environment(removed, spec, passes[0].paths), sort_keys=True))

    failed = sum(1 for p in passes if p.problems)
    correct = failed == 0
    metrics: Dict[str, Tuple[float, str]] = {}
    if correct:
        untraced = [p for p in passes if not p.traced]
        loop_cpu = statistics.median(p.probe.loop_cpu_s for p in untraced)
        if args.trace:
            metrics = layer_metrics(passes[-1], loop_cpu)
        else:
            metrics = end_to_end_metrics(untraced, workload.slices)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    # error_rate is printed but not reported as a metric: it is 0 whenever
    # the run is correct, and the JSON carries it as failed / attempted.
    print(f"{'error_rate':32s} {failed / len(passes):.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
