"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compare_args(self):
        args = build_parser().parse_args(["compare", "ubc", "gdrive", "--size-mb", "50"])
        assert args.client == "ubc" and args.size_mb == 50.0

    def test_invalid_client_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "mit", "gdrive"])


class TestCommands:
    def test_compare(self, capsys):
        assert main(["compare", "ubc", "gdrive", "--size-mb", "20", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "via ualberta" in out and "fastest" in out

    def test_upload(self, capsys):
        assert main(["upload", "ubc", "onedrive", "--size-mb", "20"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out  # OneDrive from UBC: direct wins

    def test_traceroute(self, capsys):
        assert main(["traceroute", "ubc-pl", "gdrive-frontend"]) == 0
        out = capsys.readouterr().out
        assert "vncv1rtr2.canarie.ca" in out and "ms" in out

    def test_figure_fast(self, capsys):
        assert main(["figure", "fig4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Dropbox" in out and "10 MB" in out

    def test_figure_traceroute_ids(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("traceroute to www.googleapis.com")

    def test_table_fast(self, capsys):
        assert main(["table", "2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "UBC-to-Google Drive" in out

    def test_table1_fast(self, capsys):
        assert main(["table", "1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fastest" in out

    def test_routeviews(self, capsys):
        assert main(["routeviews", "google"]) == 0
        out = capsys.readouterr().out
        assert "RIB snapshot" in out
        assert "AS4444" in out  # the pacificwave anomaly

    def test_tiv(self, capsys):
        assert main(["tiv", "--margin", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "probed 20 pairs" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestBrokerCommand:
    FLEET = ["--sites", "ubc", "--uploads-per-site", "3",
             "--size-mb", "20", "--no-cross-traffic"]

    def test_simulate(self, capsys):
        assert main(["broker", "simulate", *self.FLEET, "--uploads"]) == 0
        out = capsys.readouterr().out
        assert "fleet [broker]: 3 uploads" in out
        assert "directory hit rate" in out
        assert out.count("#") == 3  # one ledger line per upload

    def test_simulate_direct_mode(self, capsys):
        assert main(["broker", "simulate", *self.FLEET,
                     "--mode", "direct"]) == 0
        out = capsys.readouterr().out
        assert "fleet [direct]" in out and "probes 0" in out

    def test_simulate_metrics_and_profile_trace(self, capsys, tmp_path):
        """Acceptance: a fleet run exports per-site metrics and a
        Chrome trace that Perfetto can load."""
        import json

        trace = tmp_path / "fleet_trace.json"
        prom = tmp_path / "fleet.prom"
        assert main(["broker", "simulate", *self.FLEET,
                     "--mode", "direct", "--metrics", str(prom),
                     "--profile-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert str(trace) in out
        text = prom.read_text(encoding="utf-8")
        assert 'repro_broker_fleet_uploads_total{mode="direct",site="ubc"}' \
            in text
        assert "repro_broker_fleet_payload_bytes_total" in text
        payload = json.loads(trace.read_text(encoding="utf-8"))
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert xs
        assert all(e["ts"] >= 0 and e["dur"] >= 0 and "sim_time_s" in e["args"]
                   for e in xs)

    def test_eval_metrics_export(self, capsys, tmp_path):
        store = str(tmp_path / "cells")
        assert main(["broker", "eval", *self.FLEET,
                     "--modes", "direct", "--cache-dir", store,
                     "--metrics", "-"]) == 0
        out = capsys.readouterr().out
        assert "repro_broker_sweep_mean_transfer_seconds" in out
        assert "repro_broker_sweep_regret_mean_seconds" in out

    def test_eval_and_export(self, capsys, tmp_path):
        store = str(tmp_path / "cells")
        assert main(["broker", "eval", *self.FLEET,
                     "--modes", "direct;broker", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "executed 2, cached 0" in out
        assert "regret" in out

        # a second eval answers fully from the store
        assert main(["broker", "eval", *self.FLEET,
                     "--modes", "direct;broker", "--cache-dir", store]) == 0
        assert "executed 0, cached 2" in capsys.readouterr().out

        out_file = tmp_path / "export.json"
        assert main(["broker", "export", *self.FLEET,
                     "--modes", "direct;broker", "--cache-dir", store,
                     "--out", str(out_file)]) == 0
        doc = out_file.read_text()
        assert '"cell_type": "broker-fleet"' in doc

    def test_export_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["broker", "export", *self.FLEET])


class TestLintCli:
    @pytest.mark.parametrize("flag", [["--fix-mode", "suppress"], ["--dot"],
                                      ["--focus", "repro.sim"], ["--fix"],
                                      ["--dry-run"], ["--changed"]],
                             ids=["fix-mode", "dot", "focus", "fix", "dry-run",
                                  "changed"])
    def test_retired_lint_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "graph", *flag])
