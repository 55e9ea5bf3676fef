"""Tests of the benchmark harness's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import importlib
import json
import pkgutil
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core
import repro.sim
from layers import SelfTimer, layer_of_module
from reference import QUIET_BURST_CPU_S, slowdown, timed_bursts
from probe import COUNT_METHODS, SPAN_METHODS, CpuSampler, Probe
from results import canonical, digest
from run import Pass, end_to_end_metrics, layer_metrics
from timing import cpu_at, fastest_loop_cpu_s, slice_cpu

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that only moves when the synthetic workload says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def contention():
        clock.work(1.0)

    def medium():
        clock.work(2.0)
        timer.wrap("contention", contention, "acquire")()
        clock.work(0.5)

    def mac():
        clock.work(3.0)

    def engine():
        clock.work(4.0)
        timer.wrap("medium", medium, "transmit")()
        timer.wrap("mac", mac, "on_frame")()
        timer.wrap("medium", medium, "transmit")()
        clock.work(1.0)

    timer.wrap("engine", engine, "run")()

    assert timer.self_s == {"engine": 5.0, "medium": 5.0, "contention": 2.0, "mac": 3.0}
    assert sum(timer.self_s.values()) == clock.now == timer.inclusive_s["run"]
    assert timer.calls == {"run": 1, "transmit": 2, "acquire": 2, "on_frame": 1}
    assert timer.inclusive_s["transmit"] == 7.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def failing():
        clock.work(1.0)
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            timer.wrap("mac", failing, "fail")()
        clock.work(2.0)

    timer.wrap("engine", outer, "outer")()
    assert timer.self_s == {"mac": 1.0, "engine": 2.0}


def _modules_under(package):
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        yield info.name


@pytest.mark.parametrize("package", [repro.sim, repro.core])
def test_layer_map_covers_every_module(package):
    unmapped = [name for name in _modules_under(package) if layer_of_module(name) is None]
    assert unmapped == []


def test_layer_of_module_prefers_the_longest_prefix():
    assert layer_of_module("repro.sim.contention_vec") == "contention"
    assert layer_of_module("repro.core.link_manager") == "lmm"
    assert layer_of_module("repro.sim") is None
    assert layer_of_module("collections") is None
    assert layer_of_module(None) is None


def test_digest_ignores_dict_order():
    a = {"seed": 1, "rows": [{"x": 1.5, "y": [1, 2]}, {"z": None}]}
    b = {"rows": [{"y": [1, 2], "x": 1.5}, {"z": None}], "seed": 1}
    assert canonical(a) == canonical(b)
    assert digest(a) == digest(b)


def test_digest_excludes_wall_clock_fields():
    base = {"events": 10, "nested": {"kBps": 2.0}}
    timed = {
        "events": 10,
        "wall_s": 0.3,
        "nested": {"kBps": 2.0, "sim_cpu_s": 1.2, "engine.wall.run_s": 0.4},
    }
    assert digest(base) == digest(timed)
    assert digest(base) != digest({"events": 11, "nested": {"kBps": 2.0}})


def test_digest_of_list_order_matters():
    assert digest([1, 2]) != digest([2, 1])


def _patched_state():
    owners = {cls for cls, _name, _layer in SPAN_METHODS} | {cls for cls, _ in COUNT_METHODS}
    from repro.sim.engine import Simulator
    from repro.sim.metrics import JoinLog
    from repro.sim.radio import Medium

    owners |= {Simulator, JoinLog, Medium}
    state = {cls: dict(vars(cls)) for cls in owners}
    modules = {
        name: getattr(module, "build_town", None)
        for name, module in sys.modules.items()
        if name.startswith("repro.")
    }
    return state, modules


@pytest.mark.parametrize("traced", [False, True])
def test_install_then_uninstall_restores_the_program(traced):
    importlib.import_module("repro.experiments.dense_town")
    importlib.import_module("repro.experiments.common")
    before = _patched_state()
    probe = Probe(traced=traced)
    probe.install()
    during = _patched_state()
    probe.uninstall()
    after = _patched_state()
    assert during != before
    assert after == before


def test_traced_world_counts_and_restores():
    from repro.core.link_manager import SpiderConfig
    from repro.core.schedule import OperationMode
    from repro.core.spider import SpiderClient
    from repro.sim.engine import Simulator
    from repro.workloads import town

    probe = Probe(traced=True)
    probe.install()
    try:
        sim = Simulator(seed=0)
        built = town.build_town(sim, preset="amherst")
        config = SpiderConfig.spider_defaults(OperationMode.single_channel(1))
        client = SpiderClient(sim, built.world, built.make_vehicle_mobility(10.0), config)
        client.start()
        sim.run(until=20.0)
    finally:
        probe.uninstall()
    assert probe.sim_s == 20.0
    assert probe.runs == [(20.0, 20.0)]
    assert probe.unattributed == set()
    assert probe.dispatched > 0 and probe.timer.calls["Medium.transmit"] > 0
    assert probe.timer.calls["build_town"] == 1
    assert abs(sum(probe.loop_self_s.values()) - probe.loop_cpu_s) <= 0.01 * probe.loop_cpu_s
    assert len(probe.media) == 1 and probe.join_logs

    metrics = layer_metrics(Pass(traced=True, probe=probe, call_cpu_s=probe.loop_cpu_s), 1.0)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert sorted((name, unit) for name, (_, unit) in metrics.items()) == sorted(declared)


def test_end_to_end_metrics_match_the_declared_ones():
    # Two passes of one 10 sim-s loop, cut into two slices; the first pass
    # is fastest on the first slice, the second on the second.
    trajectories = ([(0.0, 0.0), (1.0, 5.0), (2.0, 10.0)], [(0.0, 0.0), (3.0, 5.0), (3.5, 10.0)])
    passes = [
        Pass(
            traced=False,
            probe=SimpleNamespace(
                loop_cpu_s=points[-1][0],
                sim_s=10.0,
                trajectories=[points],
                bursts=[QUIET_BURST_CPU_S] * 5,
            ),
            call_cpu_s=points[-1][0] + setup + 5 * QUIET_BURST_CPU_S,
            outcomes={"goodput_kBps": 1.0, "connectivity_pct": 2.0, "join_completion": 0.5},
        )
        for points, setup in zip(trajectories, (0.5, 0.7))
    ]
    metrics = end_to_end_metrics(passes, slices=2)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(name, unit) for name, (_, unit) in metrics.items()] == declared
    assert metrics["sim_s_per_cpu_s"][0] == pytest.approx(10.0 / 1.5)
    assert metrics["setup_s"][0] == pytest.approx(0.6)


def test_cpu_at_interpolates_between_samples():
    points = [(1.0, 0.0), (2.0, 4.0), (2.0, 4.0), (5.0, 10.0)]
    assert cpu_at(points, 0.0) == 1.0
    assert cpu_at(points, 2.0) == 1.5
    assert cpu_at(points, 4.0) == 2.0
    assert cpu_at(points, 8.0) == 4.0
    assert cpu_at(points, 10.0) == 5.0


def test_slices_cover_the_whole_loop():
    points = [(0.0, 20.0), (0.4, 21.0), (1.0, 23.0), (1.2, 24.0)]
    cpu = slice_cpu(points, 4)
    assert cpu == pytest.approx([0.4, 0.3, 0.3, 0.2])
    assert sum(cpu) == pytest.approx(1.2)


def test_fastest_loop_takes_each_slice_from_its_fastest_pass():
    quiet = [[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [(2.0, 0.0), (3.0, 1.0)]]
    loaded = [[(0.0, 0.0), (2.0, 1.0), (2.5, 2.0)], [(2.5, 0.0), (4.5, 1.0)]]
    assert fastest_loop_cpu_s([quiet, loaded], slices=2) == pytest.approx(1.0 + 0.5 + 0.5 + 0.5)
    assert fastest_loop_cpu_s([quiet], slices=2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fastest_loop_cpu_s([quiet, loaded[:1]], slices=2)


def test_sampler_records_both_clocks_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGPROF)
    sim = SimpleNamespace(now=0.0)
    with CpuSampler(sim, time.process_time, 0.001) as sampler:
        end = time.process_time() + 0.05
        while time.process_time() < end:
            sim.now += 1e-6
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.points) > 3
    assert sampler.points == sorted(sampler.points)
    assert sampler.points[-1][1] == sim.now


def test_slowdown_is_the_fast_end_of_the_bursts():
    quiet = QUIET_BURST_CPU_S
    assert slowdown([quiet] * 10) == pytest.approx(1.0)
    # A run that was loaded throughout is slowed by its quietest moments.
    assert slowdown([1.5 * quiet] * 9 + [3 * quiet]) == pytest.approx(1.5)
    # A few slow bursts do not move it.
    assert slowdown([quiet] * 18 + [4 * quiet] * 2) == pytest.approx(1.0)


def test_reference_bursts_take_cpu_time():
    bursts = timed_bursts(3)
    assert len(bursts) == 3 and all(b > 0 for b in bursts)
