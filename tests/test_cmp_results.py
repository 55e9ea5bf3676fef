"""Unit tests for the CI result comparator (``benchmarks/cmp_results.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "cmp_results.py"
_spec = importlib.util.spec_from_file_location("cmp_results", _SCRIPT)
cmp_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cmp_results)


def write(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(json.dumps({"ok": True, "value": value}))
    return str(path)


def test_embedded_telemetry_is_ignored(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"rows": [{"kBps": 1.5, "telemetry": {"wall": 1}}]})
    b = write(tmp_path, "b.json", {"rows": [{"kBps": 1.5, "telemetry": {"wall": 2}}]})
    assert cmp_results.main([a, b]) == 0
    assert "metrics identical" in capsys.readouterr().out


def test_differing_rows_fail(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"rows": [{"kBps": 1.5}]})
    b = write(tmp_path, "b.json", {"rows": [{"kBps": 1.6}]})
    assert cmp_results.main([a, b]) == 1
    assert "differ" in capsys.readouterr().err


def test_wrong_argument_count_is_usage_error(tmp_path):
    assert cmp_results.main([write(tmp_path, "a.json", {})]) == 2
