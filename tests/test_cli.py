"""Tests for the `python -m repro` command-line entry point."""

from __future__ import annotations

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
        monkeypatch.delenv("REPRO_CC", raising=False)
        monkeypatch.delenv("REPRO_SPLIT", raising=False)
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.transport is None

    def test_env_knobs_fill_transport(self, monkeypatch):
        from repro.sim.cc import TransportSpec

        monkeypatch.setenv("REPRO_CC", "bbr")
        monkeypatch.setenv("REPRO_SPLIT", "1")
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.transport == TransportSpec(cc="bbr", split=True)

    def test_no_split_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPLIT", "1")
        monkeypatch.delenv("REPRO_CC", raising=False)
        spec = self.capture_spec(monkeypatch, ["table2", "--no-split"])
        assert spec.transport is not None and not spec.transport.split

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

        monkeypatch.delenv("REPRO_CONTENTION", raising=False)
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
        monkeypatch.delenv("REPRO_CONTENTION", raising=False)
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.contention is None

    def test_env_knob_fills_contention(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        monkeypatch.setenv("REPRO_CONTENTION", "on")
        spec = self.capture_spec(monkeypatch, ["table2"])
        assert spec.contention == ContentionSpec()

    def test_flag_wins_over_env(self, monkeypatch):
        from repro.sim.contention import ContentionSpec

        monkeypatch.setenv("REPRO_CONTENTION", "on")
        spec = self.capture_spec(monkeypatch, ["table2", "--contention", "off"])
        assert spec.contention == ContentionSpec(enabled=False)

    def test_bad_mode_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CONTENTION", raising=False)
        assert main(["table2", "--contention", "maybe"]) == 2
        assert "bad --contention mode" in capsys.readouterr().err

    def test_channel_assign_registered(self, capsys):
        assert main(["list"]) == 0
        assert "channel-assign" in capsys.readouterr().out
