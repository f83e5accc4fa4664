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


def _surface(parser) -> list:
    """Every action of *parser* and of each subparser below it, as plain
    data: the CLI's whole declared surface, independent of how
    ``format_help()`` wraps it."""
    import argparse

    def plain(value):
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return repr(value)

    rows = [{"prog": parser.prog, "description": parser.description}]
    for action in parser._actions:
        row = {
            "kind": type(action).__name__,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": plain(action.default),
            "type": getattr(action.type, "__name__", plain(action.type)),
            "nargs": plain(action.nargs),
            "required": action.required,
            "metavar": plain(action.metavar),
            "help": action.help,
            "version": getattr(action, "version", None),
        }
        if isinstance(action, argparse._SubParsersAction):
            row["choices"] = [[c.dest, c.help]
                              for c in action._choices_actions]
            rows.append(row)
            for name, sub in action.choices.items():
                rows.extend(_surface(sub))
            continue
        row["choices"] = (None if action.choices is None
                          else [plain(c) for c in action.choices])
        rows.append(row)
    return rows


class TestParserSurface:
    """Pins every parser's flags, defaults, types, choices and help text.

    The digest is sha256 over the canonical JSON of ``_surface``, so a
    refactor of ``build_parser`` may move code but not the CLI a user
    sees.  It reads the parsers' actions, not ``format_help()`` output,
    so it does not depend on the Python version or the terminal width.
    A deliberate change to a flag must re-pin it.
    """

    DIGEST = "63d77d15067ff40ce220f56cf260315e7b71b39c5091ad3530f74319d3530a02"

    def test_parser_count(self):
        progs = [row["prog"] for row in _surface(build_parser())
                 if "prog" in row]
        assert len(progs) == 32 and len(set(progs)) == 32

    def test_surface_digest(self):
        import hashlib
        import json

        text = json.dumps(_surface(build_parser()), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestLibraryErrors:
    """A library error is one ``repro: error:`` line on stderr and exit
    status 1, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["shard", "status", "--root", "{tmp}/no-run"],
         "repro: error: no shard run at {tmp}/no-run"),
        (["campaign", "run", "--jobs", "0", "--clients", "ubc",
          "--providers", "gdrive", "--sizes-mb", "10", "--fast"],
         "repro: error: jobs must be >= 1, got 0"),
        (["topo", "inspect", "{tmp}/missing.topo.json"],
         "repro: error: [Errno 2] No such file or directory: "
         "'{tmp}/missing.topo.json'"),
    ], ids=["shard-status-no-run", "campaign-run-jobs-0",
            "topo-inspect-missing"])
    def test_one_line_on_stderr(self, argv, message, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(message.format(tmp=tmp_path))
        assert "Traceback" not in captured.err + captured.out


class TestShardCommand:
    def test_run_status_merge_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "run")
        assert main(["shard", "run", "--root", root, "--sites", "ubc",
                     "--uploads-per-site", "2", "--modes", "direct",
                     "--no-cross-traffic", "--metrics", "-",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "executed 1, cached 0; root: " + root in captured.out
        assert "\n\nmetrics (" in captured.out
        assert "repro_shard_cells_count" in captured.out
        assert "finished    #0   ok" in captured.err

        assert main(["shard", "status", "--root", root]) == 0
        out = capsys.readouterr().out
        assert f"cells ok 1  error 0  missing 0  (root: {root})" in out
        assert "site reports 1/1; merged snapshot published" in out

        prom = tmp_path / "merge.prom"
        assert main(["shard", "merge", "--root", root, "--per-site",
                     "--metrics", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "    ubc   mean " in out
        # only compare, upload and report put a blank line before the note
        assert out.endswith(f")\nwrote Prometheus metrics to {prom}\n")
        assert "repro_shard_merged_sites_count 1" in prom.read_text()


class TestMetricsEpilogue:
    def test_world_commands_print_a_blank_line_first(self, tmp_path, capsys):
        prom = tmp_path / "compare.prom"
        trace = tmp_path / "compare.jsonl"
        assert main(["compare", "ubc", "gdrive", "--size-mb", "20",
                     "--runs", "2", "--metrics", str(prom),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f" dropped\n\nwrote Prometheus metrics to {prom}\n"
                            f"\nwrote 206 JSON lines to {trace}\n")
        assert prom.read_text().startswith("# HELP ")
