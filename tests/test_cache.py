"""Tests for the content-addressed trial-result cache (``repro.cache``).

The cache's contract is absolute: a warm run must be *byte-identical* to a
cold run — same ``TrialResult`` envelopes, same merged telemetry, same JSON
— and any behavioral change to the simulation code must invalidate every
stale entry.  These tests pin the keying algebra, the storage layer's
crash-safety, the runner wiring (serial, parallel, sharded), the
hypothesis-level cold/warm equivalence, and fingerprint invalidation.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    TrialCache,
    activate,
    active_cache,
    cache_key,
    cache_stats,
    canonical_token,
    code_fingerprint,
    fingerprint_sources,
    iter_entries,
    prune_cache,
    resolve_cache,
    verify_cache,
)
from repro.obs.telemetry import Telemetry, merge_snapshots
from repro.obs.export import snapshot_to_jsonable
from repro.runner import ShardedJob, TrialJob, run_jobs, run_sharded


# ---------------------------------------------------------------------------
# Module-level job functions (cacheable: importable + stable addresses)
# ---------------------------------------------------------------------------
_CALLS = {"count": 0}


def _double(x):
    _CALLS["count"] += 1
    return x * 2


def _boom(x):
    raise ValueError(f"boom {x}")


def _tiny_trial(seed, duration):
    """A deterministic stand-in for a town trial, telemetry included."""
    tele = Telemetry(enabled=True, key=("tiny", seed))
    tele.counter("tiny.trials").inc()
    tele.counter("tiny.work").inc(seed * 3 + 1)
    tele.histogram("tiny.duration_s").observe(duration)
    return {
        "seed": seed,
        "duration": duration,
        "metric": (seed + 1) * duration,
        "telemetry": tele.snapshot(),
    }


def _shard_pids(shard, *args):
    return [os.getpid() for _ in shard]


@dataclass(frozen=True)
class _SpecLike:
    label: str
    seed: int = 0
    weights: tuple = (0.5, 1.5)


# ---------------------------------------------------------------------------
# Canonical tokens and keys
# ---------------------------------------------------------------------------
class TestCanonicalToken:
    def test_primitives_round_trip(self):
        for obj in (None, True, 3, -7, "x", 2.5, b"\x00\x01"):
            assert canonical_token(obj) == canonical_token(obj)

    def test_dict_order_independent(self):
        assert canonical_token({"a": 1, "b": 2}) == canonical_token(
            {"b": 2, "a": 1}
        )

    def test_set_order_independent(self):
        assert canonical_token({"x", "y", "zz"}) == canonical_token(
            {"zz", "y", "x"}
        )

    def test_list_vs_tuple_distinct(self):
        assert canonical_token([1, 2]) != canonical_token((1, 2))

    def test_float_int_distinct(self):
        assert canonical_token(1.0) != canonical_token(1)

    def test_dataclass_includes_class_and_fields(self):
        token = canonical_token(_SpecLike(label="t2"))
        assert "_SpecLike" in token and "t2" in token
        assert canonical_token(_SpecLike(label="t2")) == token
        assert canonical_token(_SpecLike(label="t2", seed=1)) != token

    def test_function_by_qualified_name(self):
        assert canonical_token(_double) == canonical_token(_double)
        assert canonical_token(_double) != canonical_token(_boom)

    def test_trial_job_token_covers_args(self):
        a = canonical_token(TrialJob(_double, (1,)))
        b = canonical_token(TrialJob(_double, (2,)))
        assert a != b

    def test_key_depends_on_fingerprint(self):
        token = canonical_token(TrialJob(_double, (1,)))
        assert cache_key(token, "fp-a") != cache_key(token, "fp-b")

    def test_unpicklable_raises(self):
        with pytest.raises(Exception):
            canonical_token(lambda: None)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class TestTrialCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key = cache.key_for(TrialJob(_double, (21,)))
        assert cache.get(key) == (False, None)
        assert cache.put(key, {"answer": 42})
        hit, value = cache.get(key)
        assert hit and value == {"answer": 42}
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key = cache.key_for(TrialJob(_double, (1,)))
        cache.put(key, 2)
        path = cache.path_for(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()
        assert cache.stats["errors"] == 1

    def test_key_mismatch_rejected(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key_a = cache.key_for(TrialJob(_double, (1,)))
        key_b = cache.key_for(TrialJob(_double, (2,)))
        cache.put(key_a, 2)
        # Copy A's bytes under B's address: stored key no longer matches.
        cache.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key_b).write_bytes(cache.path_for(key_a).read_bytes())
        hit, _ = cache.get(key_b)
        assert not hit

    def test_uncacheable_job_keys_none(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        assert cache.key_for(TrialJob(lambda: None)) is None

    def test_telemetry_counters_exported(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key = cache.key_for(TrialJob(_double, (1,)))
        cache.get(key)
        cache.put(key, 2)
        cache.get(key)
        counters = dict(cache.snapshot().counters)
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 1
        assert counters["cache.bytes_read"] > 0

    def test_describe_mentions_hits_and_misses(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        assert "0 hit(s)" in cache.describe()


class TestResolveActivate:
    def test_explicit_cache_wins(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        assert resolve_cache(cache) is cache

    def test_false_disables_even_with_ambient(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        with activate(cache):
            assert resolve_cache(False) is None

    def test_none_picks_up_ambient(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        assert resolve_cache(None) is None or active_cache() is not None
        with activate(cache):
            assert resolve_cache(None) is cache
        assert active_cache() is None

    def test_env_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = resolve_cache(None)
        assert cache is not None
        assert Path(cache.root) == (tmp_path / "envcache").resolve()

    def test_env_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None

    def test_activate_none_is_noop(self):
        with activate(None):
            assert active_cache() is None


# ---------------------------------------------------------------------------
# Runner wiring
# ---------------------------------------------------------------------------
class TestRunJobsCaching:
    def test_warm_rerun_skips_execution(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        jobs = [TrialJob(_double, (i,), tag=i) for i in range(4)]
        _CALLS["count"] = 0
        cold = run_jobs(jobs, cache=cache)
        assert _CALLS["count"] == 4
        warm = run_jobs([TrialJob(_double, (i,), tag=i) for i in range(4)], cache=cache)
        assert _CALLS["count"] == 4  # no re-execution
        assert cold == warm
        assert cache.stats["hits"] == 4

    def test_failures_never_cached(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        first = run_jobs([TrialJob(_boom, (1,), tag="b")], cache=cache)
        second = run_jobs([TrialJob(_boom, (1,), tag="b")], cache=cache)
        assert not first[0].ok and not second[0].ok
        assert cache.stats["stores"] == 0
        assert cache.stats["misses"] == 2

    def test_parallel_cold_serial_warm_identical(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        jobs = lambda: [TrialJob(_tiny_trial, (i, 10.0), tag=i) for i in range(5)]
        cold = run_jobs(jobs(), workers=2, cache=cache)
        warm = run_jobs(jobs(), workers=1, cache=cache)
        assert [r.value for r in cold] == [r.value for r in warm]
        assert cache.stats["hits"] == 5

    def test_hit_envelope_matches_fresh_success(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        fresh = run_jobs([TrialJob(_double, (3,), tag="t")], cache=cache)[0]
        cached = run_jobs([TrialJob(_double, (3,), tag="t")], cache=cache)[0]
        assert fresh == cached  # ok/value/error/attempts/tag all equal

    def test_no_cache_keeps_legacy_path(self):
        _CALLS["count"] = 0
        run_jobs([TrialJob(_double, (1,))])
        run_jobs([TrialJob(_double, (1,))])
        assert _CALLS["count"] == 2

    def test_ambient_activation_reaches_run_jobs(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        with activate(cache):
            run_jobs([TrialJob(_double, (9,))])
            run_jobs([TrialJob(_double, (9,))])
        assert cache.stats["hits"] == 1


class TestRunShardedFallback:
    def test_single_core_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        job = ShardedJob(fn=_shard_pids, items=tuple(range(6)), tag="pids")
        envelope = run_sharded(job, workers=4)
        assert envelope.ok
        assert envelope.value == [os.getpid()] * 6  # parent process, no pool

    def test_overcommit_escape_hatch(self, monkeypatch):
        # More reported cores than shards lifts the clamp, whatever the
        # machine running the test has.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        job = ShardedJob(fn=_shard_pids, items=tuple(range(4)), tag="pids")
        envelope = run_sharded(job, workers=2)
        assert envelope.ok
        assert any(pid != os.getpid() for pid in envelope.value)

    def test_clamped_results_equal_sharded(self, monkeypatch):
        job = ShardedJob(fn=_tiny_shard, items=tuple(range(7)), args=(3,))
        wide = run_sharded(job, workers=4)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        narrow = run_sharded(job, workers=4)
        assert wide.ok and narrow.ok and wide.value == narrow.value

    def test_sharded_cache_hits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        job = ShardedJob(fn=_tiny_shard, items=tuple(range(5)), args=(2,), tag="s")
        cold = run_sharded(job, workers=2, cache=cache)
        warm = run_sharded(job, workers=2, cache=cache)
        assert cold == warm
        assert cache.stats["hits"] >= 1


def _tiny_shard(shard, offset):
    return [x * x + offset for x in shard]


# ---------------------------------------------------------------------------
# Cold vs warm equivalence (hypothesis property)
# ---------------------------------------------------------------------------
class TestColdWarmProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        grid=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.sampled_from([10.0, 30.0, 60.0]),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        workers=st.sampled_from([1, 2]),
    )
    def test_cold_and_warm_runs_identical(self, tmp_path_factory, grid, workers):
        root = tmp_path_factory.mktemp("cache")
        cache = TrialCache(root, fingerprint="prop-fp")
        jobs = lambda: [
            TrialJob(_tiny_trial, (seed, duration), tag=(seed, duration))
            for seed, duration in grid
        ]
        cold = run_jobs(jobs(), workers=workers, cache=cache)
        warm = run_jobs(jobs(), workers=1, cache=cache)
        # Same TrialResult envelopes, element for element.
        assert cold == warm
        # Identical merged telemetry, down to the exported JSON bytes.
        cold_merged = merge_snapshots([r.value["telemetry"] for r in cold])
        warm_merged = merge_snapshots([r.value["telemetry"] for r in warm])
        assert cold_merged == warm_merged
        assert json.dumps(
            snapshot_to_jsonable(cold_merged), sort_keys=True
        ) == json.dumps(snapshot_to_jsonable(warm_merged), sort_keys=True)
        # Every job was computed exactly once across both runs.
        assert cache.stats["stores"] == len(grid)
        assert cache.stats["hits"] == len(grid)


# ---------------------------------------------------------------------------
# Fingerprint invalidation
# ---------------------------------------------------------------------------
class TestInvalidation:
    def test_editing_a_fingerprint_input_forces_a_miss(self, tmp_path):
        source = tmp_path / "fake_sim_module.py"
        source.write_text("RATE = 1.0\n")
        cache_v1 = TrialCache(
            tmp_path / "c", fingerprint=fingerprint_sources([source])
        )
        job = TrialJob(_double, (5,), tag="inv")
        key_v1 = cache_v1.key_for(job)
        assert run_jobs([job], cache=cache_v1)[0].value == 10
        assert cache_v1.get(key_v1)[0]

        source.write_text("RATE = 2.0\n")  # a behavioral edit
        cache_v2 = TrialCache(
            tmp_path / "c", fingerprint=fingerprint_sources([source])
        )
        key_v2 = cache_v2.key_for(job)
        assert key_v2 != key_v1
        assert cache_v2.get(key_v2) == (False, None)  # stale entry never hits

    def test_code_fingerprint_is_stable_and_covers_sim(self):
        assert code_fingerprint() == code_fingerprint()
        import repro.sim as sim_pkg

        sim_root = Path(sim_pkg.__path__[0])
        sources = sorted(sim_root.rglob("*.py"))
        assert sources, "repro.sim sources must exist for fingerprinting"
        # A different package set fingerprints differently.
        assert code_fingerprint(("repro.sim",)) != code_fingerprint(
            ("repro.core",)
        )

    def test_cc_module_is_inside_the_fingerprinted_tree(self):
        """The CC subsystem must invalidate cached trials when edited."""
        import repro.sim as sim_pkg
        from repro.cache import DEFAULT_FINGERPRINT_PACKAGES

        assert "repro.sim" in DEFAULT_FINGERPRINT_PACKAGES
        assert (Path(sim_pkg.__path__[0]) / "cc.py").is_file()

    def test_cc_byte_change_alters_fingerprint(self, tmp_path):
        import repro.sim as sim_pkg

        source = Path(sim_pkg.__path__[0]) / "cc.py"
        copy = tmp_path / "cc.py"
        copy.write_bytes(source.read_bytes())
        before = fingerprint_sources([copy])
        copy.write_bytes(source.read_bytes() + b"\n# behavioral tweak\n")
        assert fingerprint_sources([copy]) != before

    def test_transport_spec_changes_canonical_token(self):
        from repro.experiments.common import TownTrialSpec
        from repro.sim.cc import TransportSpec

        def spec(transport):
            return TownTrialSpec(
                factory=_double, label="t", seed=0, transport=transport
            )

        default = canonical_token(spec(None))
        reno = canonical_token(spec(TransportSpec()))
        cubic = canonical_token(spec(TransportSpec(cc="cubic")))
        split = canonical_token(spec(TransportSpec(split=True)))
        assert len({default, reno, cubic, split}) == 4


# ---------------------------------------------------------------------------
# Maintenance helpers (stats / prune / verify)
# ---------------------------------------------------------------------------
class TestMaintenance:
    def _seed_cache(self, root):
        cache = TrialCache(root, fingerprint="fp")
        for i in range(4):
            cache.put(cache.key_for(TrialJob(_double, (i,))), i * 2)
        return cache

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        self._seed_cache(tmp_path / "c")
        stats = cache_stats(tmp_path / "c")
        assert stats["entries"] == 4 and stats["bytes"] > 0

    def test_prune_all(self, tmp_path):
        self._seed_cache(tmp_path / "c")
        outcome = prune_cache(tmp_path / "c", drop_all=True)
        assert outcome["removed"] == 4 and outcome["kept"] == 0
        assert cache_stats(tmp_path / "c")["entries"] == 0

    def test_prune_by_age(self, tmp_path):
        cache = self._seed_cache(tmp_path / "c")
        entries = list(iter_entries(tmp_path / "c"))
        old = entries[0]
        os.utime(old.path, (old.mtime - 7200, old.mtime - 7200))
        outcome = prune_cache(tmp_path / "c", max_age_s=3600.0)
        assert outcome["removed"] == 1 and outcome["kept"] == 3

    def test_prune_by_size_evicts_lru_first(self, tmp_path):
        self._seed_cache(tmp_path / "c")
        entries = list(iter_entries(tmp_path / "c"))
        total = sum(e.size for e in entries)
        keep_budget = total - entries[0].size  # forces exactly one eviction
        outcome = prune_cache(tmp_path / "c", max_bytes=keep_budget)
        assert outcome["removed"] == 1
        assert cache_stats(tmp_path / "c")["bytes"] <= keep_budget

    def test_verify_clean_cache(self, tmp_path):
        self._seed_cache(tmp_path / "c")
        assert verify_cache(tmp_path / "c") == []

    def test_verify_flags_and_fixes_corruption(self, tmp_path):
        self._seed_cache(tmp_path / "c")
        victim = next(iter_entries(tmp_path / "c"))
        victim.path.write_bytes(b"garbage")
        problems = verify_cache(tmp_path / "c")
        assert len(problems) == 1 and "unreadable" in problems[0]
        assert verify_cache(tmp_path / "c", fix=True)  # deletes it
        assert verify_cache(tmp_path / "c") == []

    def test_verify_flags_key_mismatch(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key = cache.key_for(TrialJob(_double, (1,)))
        cache.put(key, 2)
        path = cache.path_for(key)
        bogus = path.with_name("ab" * 32 + ".pkl")
        bogus.write_bytes(path.read_bytes())
        problems = verify_cache(tmp_path / "c")
        assert any("does not match" in p for p in problems)


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
class TestCacheCli:
    def test_stats_prune_verify(self, tmp_path, capsys):
        from repro.cache.__main__ import main

        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        cache.put(cache.key_for(TrialJob(_double, (1,))), 2)
        assert main(["stats", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "entries   : 1" in capsys.readouterr().out
        assert main(["verify", "--cache-dir", str(tmp_path / "c")]) == 0
        assert main(["prune", "--cache-dir", str(tmp_path / "c"), "--all"]) == 0
        assert "pruned 1" in capsys.readouterr().out

    def test_prune_requires_a_policy(self, tmp_path, capsys):
        from repro.cache.__main__ import main

        assert main(["prune", "--cache-dir", str(tmp_path / "c")]) == 2

    def test_verify_exit_one_on_problems(self, tmp_path, capsys):
        from repro.cache.__main__ import main

        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        key = cache.key_for(TrialJob(_double, (1,)))
        cache.put(key, 2)
        cache.path_for(key).write_bytes(b"junk")
        assert main(["verify", "--cache-dir", str(tmp_path / "c")]) == 1
        assert main(["verify", "--cache-dir", str(tmp_path / "c"), "--fix"]) == 0
        assert main(["verify", "--cache-dir", str(tmp_path / "c")]) == 0

    def test_repro_cli_cache_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "fig5",
            "--seed",
            "0",
            "--duration",
            "30",
            "--cache",
            "--cache-dir",
            str(tmp_path / "clicache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "miss" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out  # rendered artifact byte-identical
        assert "hit" in warm.err


# ---------------------------------------------------------------------------
# End-to-end: a real town-trial grid, cold vs warm
# ---------------------------------------------------------------------------
class TestTownTrialsEndToEnd:
    def test_table2_style_grid_cold_warm_identical(self, tmp_path):
        from repro.core.schedule import OperationMode
        from repro.experiments.common import (
            TownTrialSpec,
            aggregate_town_trials,
        )
        from repro.experiments.town_runs import spider_factory, stock_factory

        specs = [
            TownTrialSpec(
                factory=factory,
                label=label,
                seed=seed,
                duration_s=40.0,
                telemetry=True,
            )
            for label, factory in (
                ("spider", spider_factory(OperationMode.single_channel(1), 2)),
                ("stock", stock_factory()),
            )
            for seed in (0, 1)
        ]
        cache = TrialCache(tmp_path / "c")
        cold = aggregate_town_trials(specs, cache=cache)
        warm = aggregate_town_trials(specs, cache=cache)
        assert cache.stats["stores"] == 4 and cache.stats["hits"] == 4
        for label in cold:
            c, w = cold[label], warm[label]
            assert [t.average_throughput_kBps for t in c.trials] == [
                t.average_throughput_kBps for t in w.trials
            ]
            assert [t.events_processed for t in c.trials] == [
                t.events_processed for t in w.trials
            ]
            cm, wm = c.merged_telemetry(), w.merged_telemetry()
            assert cm == wm
            assert json.dumps(
                snapshot_to_jsonable(cm), sort_keys=True
            ) == json.dumps(snapshot_to_jsonable(wm), sort_keys=True)


class TestSizeCap:
    """The LRU size budget: env parsing, auto-maintenance, and the lock."""

    def test_resolve_max_bytes_explicit_and_suffixes(self, monkeypatch):
        from repro.cache import CACHE_MAX_BYTES_ENV, resolve_cache_max_bytes

        assert resolve_cache_max_bytes(1234) == 1234
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "512k")
        assert resolve_cache_max_bytes() == 512 * 1024
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "2M")
        assert resolve_cache_max_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "1g")
        assert resolve_cache_max_bytes() == 1 << 30
        monkeypatch.delenv(CACHE_MAX_BYTES_ENV)
        assert resolve_cache_max_bytes() is None

    def test_resolve_max_bytes_garbage_warns(self, monkeypatch):
        from repro.cache import CACHE_MAX_BYTES_ENV, resolve_cache_max_bytes

        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "bogus")
        with pytest.warns(UserWarning):
            assert resolve_cache_max_bytes() is None
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "-5")
        with pytest.warns(UserWarning):
            assert resolve_cache_max_bytes() is None

    def test_put_auto_maintains_within_budget(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp", max_bytes=2000)
        for i in range(40):
            cache.put(cache.key_for(TrialJob(_double, (i,))), list(range(20)))
        cache.maintain()  # flush the tail below the maintenance threshold
        assert cache_stats(tmp_path / "c")["bytes"] <= 2000
        # The cache stayed useful: recent entries survive the evictions.
        assert cache_stats(tmp_path / "c")["entries"] > 0

    def test_uncapped_cache_never_maintains(self, tmp_path):
        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        assert cache.max_bytes is None
        for i in range(10):
            cache.put(cache.key_for(TrialJob(_double, (i,))), i)
        assert cache.maintain() is None
        assert cache_stats(tmp_path / "c")["entries"] == 10

    def test_cache_lock_serializes_maintainers(self, tmp_path):
        from repro.cache import cache_lock

        root = tmp_path / "c"
        root.mkdir()
        with cache_lock(root) as held:
            assert held
            # flock is per-fd: a second non-blocking acquire (another
            # pruner) must report contention, not deadlock.
            with cache_lock(root, blocking=False) as second:
                assert second is False
        with cache_lock(root, blocking=False) as again:
            assert again is True

    def test_prune_cli_uses_env_budget(self, tmp_path, monkeypatch, capsys):
        from repro.cache import CACHE_MAX_BYTES_ENV
        from repro.cache.__main__ import main as cache_main

        cache = TrialCache(tmp_path / "c", fingerprint="fp")
        for i in range(6):
            cache.put(cache.key_for(TrialJob(_double, (i,))), list(range(50)))
        before = cache_stats(tmp_path / "c")["bytes"]
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, str(before // 2))
        assert cache_main(["prune", "--cache-dir", str(tmp_path / "c")]) == 0
        assert cache_stats(tmp_path / "c")["bytes"] <= before // 2
        assert "pruned" in capsys.readouterr().out

    def test_prune_cli_without_any_budget_errors(self, tmp_path, monkeypatch, capsys):
        from repro.cache import CACHE_MAX_BYTES_ENV
        from repro.cache.__main__ import main as cache_main

        monkeypatch.delenv(CACHE_MAX_BYTES_ENV, raising=False)
        assert cache_main(["prune", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err
