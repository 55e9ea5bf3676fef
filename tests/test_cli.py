"""Tests for the `python -m repro` command-line entry point."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.experiments.api import REGISTRY


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig3_runs_end_to_end(self, capsys):
        assert main(["fig3"]) == 0
        assert "Fig3" in capsys.readouterr().out

    def test_knapsack_runs_end_to_end(self, capsys):
        assert main(["knapsack"]) == 0
        assert "Appendix A" in capsys.readouterr().out

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-5", "0"])
    def test_bad_duration_is_a_usage_error(self, duration, capsys, monkeypatch):
        import repro.__main__ as cli

        def must_not_run(*args, **kwargs):
            pytest.fail(f"--duration {duration} reached the experiment")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        assert main(["table2", "--trials", "1", f"--duration={duration}"]) == 2
        assert "--duration must be finite and > 0" in capsys.readouterr().err


def load_strict(path):
    """Parse a ``--json-out`` file, refusing ``NaN`` and ``Infinity``."""

    def refuse(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


class TestCliJsonOutIsStrict:
    def test_knapsack_writes_skipped_rows_as_null(self, tmp_path, capsys):
        path = tmp_path / "knapsack.json"
        assert main(["knapsack", "--json-out", str(path)]) == 0
        rows = load_strict(path)["value"]["rows"]
        skipped = [row for row in rows if row["brute_value"] is None]
        assert skipped and all(row["brute_time_ms"] is None for row in skipped)
        # The rendered table still marks the skipped brute-force cells.
        last = capsys.readouterr().out.splitlines()[-2].split()
        assert last[0] == str(rows[-1]["n_aps"]) and last[3] == last[6] == "-"

    def test_fig4_writes_an_infinite_dividing_speed_as_null(
        self, tmp_path, monkeypatch
    ):
        """Switching pays at every probed speed, so each scenario's
        dividing speed is ``inf``.  One speed on a coarse grid over a short
        radio range keeps the analytic optimizer to about a second."""
        import repro.__main__ as cli

        run = cli.run_experiment

        def small(name, spec, **kwargs):
            spec = replace(spec, speeds_mps=(2.5,), grid_steps=4, range_m=20.0)
            return run(name, spec, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", small)
        path = tmp_path / "fig4.json"
        assert main(["fig4", "--json-out", str(path)]) == 0
        scenarios = load_strict(path)["value"]["scenarios"]
        assert [s["dividing_speed_mps"] for s in scenarios] == [None] * 3


class TestCliTelemetry:
    def test_telemetry_flags_export_and_summarize(self, tmp_path, capsys):
        from repro.obs import load_payload, validate_payload

        path = tmp_path / "tele.json"
        assert (
            main(
                [
                    "fleet",
                    "--trials", "1",
                    "--duration", "20",
                    "--telemetry", str(path),
                    "--telemetry-summary",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Fleet scaling" in captured.out
        assert "top counters" in captured.out  # the ASCII summary
        assert "telemetry:" in captured.err  # export confirmation
        payload = load_payload(str(path))
        assert validate_payload(payload) == []
        assert payload["snapshot_count"] > 0

    def test_analytic_experiment_warns_without_snapshots(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["fig3", "--telemetry", str(path)]) == 0
        assert "produced no telemetry" in capsys.readouterr().err
        assert not path.exists()


class TestCliTransportFlags:
    """--cc/--split thread a TransportSpec into every experiment's spec."""

    def capture_spec(self, monkeypatch, argv):
        import repro.__main__ as cli
        from repro.runner import TrialResult

        captured = {}

        def fake_run(name, spec, fabric=None):
            captured["spec"] = spec
            return TrialResult(ok=True, value="done", tag=(name, spec))

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(argv) == 0
        return captured["spec"]

    def test_cc_and_split_flags_build_transport(self, monkeypatch):
        from repro.sim.cc import TransportSpec

        spec = self.capture_spec(
            monkeypatch, ["table2", "--cc", "cubic", "--split"]
        )
        assert spec.transport == TransportSpec(cc="cubic", split=True)

    def test_no_flags_leave_transport_unset(self, monkeypatch):
        # The environment has no say: only the flags choose a transport.
        monkeypatch.setenv("REPRO_CC", "bbr")
        monkeypatch.setenv("REPRO_SPLIT", "1")
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.transport is None

    def test_no_split_overrides_env(self, monkeypatch):
        from repro.sim.cc import TransportSpec

        monkeypatch.setenv("REPRO_SPLIT", "1")
        spec = self.capture_spec(monkeypatch, ["table2", "--no-split"])
        assert spec.transport == TransportSpec(split=False)

    def test_unknown_cc_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--cc", "vegas"])
        assert "invalid choice" in capsys.readouterr().err

    def test_transport_matrix_registered(self, capsys):
        assert main(["list"]) == 0
        assert "transport-matrix" in capsys.readouterr().out


class TestCliContentionFlag:
    """--contention threads a ContentionSpec into every experiment's spec."""

    capture_spec = TestCliTransportFlags.capture_spec

    def test_on_builds_the_default_spec(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        spec = self.capture_spec(monkeypatch, ["table2", "--contention", "on"])
        assert spec.contention == ContentionSpec()

    def test_off_builds_the_disabled_spec(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        spec = self.capture_spec(monkeypatch, ["table2", "--contention", "off"])
        assert spec.contention == ContentionSpec(enabled=False)

    def test_stagger_token_composes(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        spec = self.capture_spec(
            monkeypatch, ["table2", "--contention", "on,stagger"]
        )
        assert spec.contention == ContentionSpec(beacon_stagger=True)

    def test_no_flag_leaves_contention_unset(self, monkeypatch):
        # The environment has no say: only the flag chooses contention.
        monkeypatch.setenv("REPRO_CONTENTION", "on")
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.contention is None

    def test_flag_wins_over_env(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        monkeypatch.setenv("REPRO_CONTENTION", "on")
        spec = self.capture_spec(monkeypatch, ["table2", "--contention", "off"])
        assert spec.contention == ContentionSpec(enabled=False)

    def test_bad_mode_is_a_usage_error(self, capsys):
        assert main(["table2", "--contention", "maybe"]) == 2
        assert "bad --contention mode" in capsys.readouterr().err

    def test_channel_assign_registered(self, capsys):
        assert main(["list"]) == 0
        assert "channel-assign" in capsys.readouterr().out
