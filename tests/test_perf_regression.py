"""Unit tests for the CI bench-regression gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_perf_regression.py"
_spec = importlib.util.spec_from_file_location("check_perf_regression", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def payload(**rates):
    return {
        "schema": 1,
        "results": {
            name: {"events_per_sec": value, "wall_s": 1.0}
            for name, value in rates.items()
        },
    }


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestIterRates:
    def test_extracts_all_rate_fields(self):
        data = {
            "results": {
                "a": {"events_per_sec": 10.0, "wall_s": 2.0},
                "b": {"serial_events_per_sec": 5.0},
                "c": {"speedup": 2.0},
            }
        }
        # Speedup ratios are gateable (so --strict can pin them) but the
        # default compare() sweep skips them — see the strict-only tests.
        assert dict(check.iter_rates(data)) == {
            "a.events_per_sec": 10.0,
            "b.serial_events_per_sec": 5.0,
            "c.speedup": 2.0,
        }

    def test_speedup_skipped_by_default_sweep(self):
        data = {"results": {"c": {"speedup": 2.0}}}
        passed, regressed = check.compare(
            data, {"results": {"c": {"speedup": 1.0}}}, threshold=0.10
        )
        assert not passed and not regressed

    def test_speedup_gated_when_pinned_strict(self):
        base = {"results": {"c": {"speedup": 2.0}}}
        cur = {"results": {"c": {"speedup": 1.0}}}
        passed, regressed = check.compare(
            base, cur, threshold=0.10, strict={"c.speedup": 0.2}
        )
        assert "c.speedup" in regressed and not passed

    def test_ignores_non_dict_results(self):
        assert dict(check.iter_rates({"results": {"a": 3}})) == {}


class TestCompare:
    def test_within_threshold_passes(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=95.0), threshold=0.10
        )
        assert "x.events_per_sec" in passed and not regressed

    def test_drop_beyond_threshold_regresses(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=85.0), threshold=0.10
        )
        assert "x.events_per_sec" in regressed and not passed

    def test_improvement_passes(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=180.0), threshold=0.10
        )
        assert passed["x.events_per_sec"][2] == pytest.approx(1.8)

    def test_unshared_metrics_not_compared(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(y=1.0), threshold=0.10
        )
        assert not passed and not regressed


class TestVanished:
    def test_rate_missing_from_current_is_reported(self):
        assert check.vanished(payload(x=100.0, y=5.0), payload(x=100.0)) == [
            "y.events_per_sec"
        ]

    def test_rates_only_in_current_are_not_vanished(self):
        assert check.vanished(payload(x=100.0), payload(x=100.0, y=5.0)) == []

    def test_speedup_counts_only_when_pinned(self):
        base = {"results": {"c": {"speedup": 2.0}}}
        assert check.vanished(base, {"results": {}}) == []
        assert check.vanished(base, {"results": {}}, {"c.speedup": 0.2}) == [
            "c.speedup"
        ]


class TestMain:
    def test_exit_one_when_a_rate_vanishes(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        cur = write(tmp_path, "cur.json", payload(x=100.0))
        assert check.main([base, cur]) == 1
        captured = capsys.readouterr()
        assert "y.events_per_sec" in captured.out and "MISSING" in captured.out
        assert "missing" in captured.err

    def test_pinned_gate_that_vanished_is_missing_not_unknown(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        cur = write(tmp_path, "cur.json", payload(x=100.0))
        assert check.main([base, cur, "--strict", "y.events_per_sec:0.1"]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_exit_zero_when_no_regression(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        cur = write(tmp_path, "cur.json", payload(x=120.0, y=49.0))
        assert check.main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=80.0))
        assert check.main([base, cur]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_two_when_nothing_shared(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(y=80.0))
        assert check.main([base, cur]) == 2

    def test_threshold_flag(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=80.0))
        assert check.main([base, cur, "--threshold", "0.25"]) == 0

    def test_strict_gate_tightens_one_metric(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0, y=100.0))
        cur = write(tmp_path, "cur.json", payload(x=95.0, y=95.0))
        assert check.main([base, cur]) == 0
        assert (
            check.main([base, cur, "--strict", "y.events_per_sec:0.02"]) == 1
        )

    def test_unknown_strict_gate_is_a_config_error(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=100.0))
        rc = check.main([base, cur, "--strict", "bogus.events_per_sec:0.02"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown gate(s) bogus.events_per_sec" in err
        assert "x.events_per_sec" in err  # tells you what exists


class TestList:
    def test_list_prints_gates_and_baselines(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        assert check.main(["--list", base]) == 0
        out = capsys.readouterr().out
        assert "x.events_per_sec" in out and "y.events_per_sec" in out
        assert "100.0" in out and "50.0" in out

    def test_list_needs_no_current_file(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0))
        assert check.main(["--list", base]) == 0

    def test_list_exit_two_when_no_gates(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", {"results": {}})
        assert check.main(["--list", base]) == 2
        assert "no events/sec gates" in capsys.readouterr().err

    def test_missing_current_without_list_errors(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        with pytest.raises(SystemExit) as excinfo:
            check.main([base])
        assert excinfo.value.code == 2
