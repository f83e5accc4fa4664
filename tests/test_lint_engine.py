"""Engine mechanics: suppressions, baseline, output formats, CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.lint import (
    Baseline,
    BaselineEntry,
    Finding,
    LintEngine,
    LintReport,
    Severity,
    run_lint,
)
from repro.lint.graph import ProjectAnalyzer

CLOCK_SNIPPET = "import time\n\ndef stamp():\n    return time.time()\n"


def write_module(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestSuppressions:
    def test_same_line_ignore_suppresses(self):
        report = LintReport()
        findings = LintEngine().lint_source(
            "import time\nt = time.time()  # simlint: ignore[SL101] -- fixture\n",
            rel="sim/clock.py", report=report)
        assert findings == []
        assert [f.rule for f in report.suppressed] == ["SL101"]

    def test_wrong_rule_id_does_not_suppress(self):
        findings = LintEngine().lint_source(
            "import time\nt = time.time()  # simlint: ignore[SL999]\n",
            rel="sim/clock.py")
        assert [f.rule for f in findings] == ["SL101"]

    def test_star_suppresses_everything_on_the_line(self):
        findings = LintEngine().lint_source(
            "import time\nt = time.time()  # simlint: ignore[*]\n",
            rel="sim/clock.py")
        assert findings == []

    def test_multiple_ids_in_one_comment(self):
        src = ("import time\n"
               "import numpy as np\n"
               "rng = np.random.default_rng(0); t = time.time()"
               "  # simlint: ignore[SL101, SL103]\n")
        assert LintEngine().lint_source(src, rel="sim/clock.py") == []

    def test_suppression_on_other_line_has_no_effect(self):
        findings = LintEngine().lint_source(
            "# simlint: ignore[SL101]\nimport time\nt = time.time()\n",
            rel="sim/clock.py")
        assert [f.rule for f in findings] == ["SL101"]


class TestEngineBehaviour:
    def test_syntax_error_becomes_sl001(self):
        findings = LintEngine().lint_source("def broken(:\n", rel="net/bad.py")
        assert [f.rule for f in findings] == ["SL001"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_sorted_by_location(self):
        src = ("import time\n"
               "def f(acc=[]):\n"
               "    return time.time()\n")
        findings = LintEngine().lint_source(src, rel="sim/clock.py")
        assert findings == sorted(findings, key=Finding.sort_key)

    def test_lint_tree_counts_files_and_uses_posix_rel_paths(self, tmp_path):
        write_module(tmp_path, "net/a.py", CLOCK_SNIPPET)
        write_module(tmp_path, "analysis/b.py", "x = 1\n")
        report = ProjectAnalyzer().run([tmp_path]).report
        assert report.files_scanned == 2
        assert [f.file for f in report.findings] == ["net/a.py"]
        assert "\\" not in report.findings[0].file

    def test_report_error_warning_split(self):
        report = LintReport(findings=[
            Finding("a.py", 1, "SL101", Severity.ERROR, "m"),
            Finding("a.py", 2, "SL203", Severity.WARNING, "m"),
        ])
        assert len(report.errors) == 1
        assert len(report.warnings) == 1


class TestFindingSchema:
    def test_to_dict_schema_is_exactly_the_documented_one(self):
        f = Finding("net/a.py", 12, "SL101", Severity.ERROR, "no wall clock")
        d = f.to_dict()
        assert set(d) == {"file", "line", "rule", "severity", "message"}
        assert d["file"] == "net/a.py"
        assert d["line"] == 12
        assert d["rule"] == "SL101"
        assert d["severity"] == "error"
        assert d["message"] == "no wall clock"

    def test_render_is_file_line_rule(self):
        f = Finding("net/a.py", 12, "SL101", Severity.ERROR, "no wall clock")
        assert f.render().startswith("net/a.py:12: SL101")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        Baseline(entries=[
            BaselineEntry("net/a.py", "SL101", count=2, justification="legacy"),
        ]).save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == [
            BaselineEntry("net/a.py", "SL101", count=2, justification="legacy")]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_filter_forgives_up_to_count_and_keeps_excess(self):
        baseline = Baseline(entries=[BaselineEntry("net/a.py", "SL101", count=1)])
        findings = [
            Finding("net/a.py", 3, "SL101", Severity.ERROR, "m"),
            Finding("net/a.py", 9, "SL101", Severity.ERROR, "m"),
            Finding("net/b.py", 1, "SL102", Severity.ERROR, "m"),
        ]
        kept, baselined, stale = baseline.filter(findings)
        assert [f.line for f in baselined] == [3]
        assert [(f.file, f.line) for f in kept] == [("net/a.py", 9), ("net/b.py", 1)]
        assert stale == []

    def test_stale_entries_detected(self):
        baseline = Baseline(entries=[BaselineEntry("net/gone.py", "SL101")])
        kept, baselined, stale = baseline.filter([])
        assert kept == [] and baselined == []
        assert [e.key() for e in stale] == [("net/gone.py", "SL101")]

    def test_from_findings_preserves_old_justifications(self):
        previous = Baseline(entries=[
            BaselineEntry("net/a.py", "SL101", justification="known debt")])
        findings = [
            Finding("net/a.py", 3, "SL101", Severity.ERROR, "m"),
            Finding("net/a.py", 9, "SL101", Severity.ERROR, "m"),
            Finding("net/b.py", 1, "SL201", Severity.ERROR, "m"),
        ]
        rebuilt = Baseline.from_findings(findings, previous=previous)
        by_key = {e.key(): e for e in rebuilt.entries}
        assert by_key[("net/a.py", "SL101")].count == 2
        assert by_key[("net/a.py", "SL101")].justification == "known debt"
        assert by_key[("net/b.py", "SL201")].justification.startswith("TODO")


class TestRunner:
    def test_dirty_tree_exits_nonzero(self, tmp_path):
        """The acceptance fixture: time.time() in a sim module must fail."""
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        lines = []
        code = run_lint([tmp_path], no_baseline=True, no_cache=True,
                        out=lines.append)
        assert code == 1
        assert any("SL101" in line for line in lines)

    def test_clean_tree_exits_zero(self, tmp_path):
        write_module(tmp_path, "sim/ok.py", "def f(sim):\n    return sim.now\n")
        assert run_lint([tmp_path], no_baseline=True, no_cache=True,
                        out=lambda s: None) == 0

    def test_warnings_do_not_fail_the_gate(self, tmp_path):
        write_module(tmp_path, "net/conv.py",
                     "def f(link_bps):\n    speed_mbps = link_bps * 2\n"
                     "    return speed_mbps\n")
        lines = []
        code = run_lint([tmp_path], no_baseline=True, no_cache=True,
                        out=lines.append)
        assert code == 0
        assert any("SL203" in line for line in lines)

    def test_json_output_schema(self, tmp_path):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        lines = []
        code = run_lint([tmp_path], fmt="json", no_baseline=True,
                        no_cache=True, out=lines.append)
        assert code == 1
        payload = json.loads("\n".join(lines))
        assert set(payload) == {"files_scanned", "findings", "baselined",
                                "suppressed", "stale_baseline_entries"}
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"file", "line", "rule", "severity", "message"}
        assert finding["rule"] == "SL101"

    def test_baseline_forgives_and_stale_is_reported(self, tmp_path):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        baseline_path = tmp_path / "lint_baseline.json"
        Baseline(entries=[
            BaselineEntry("sim/clock.py", "SL101", justification="fixture"),
            BaselineEntry("sim/gone.py", "SL102", justification="paid off"),
            BaselineEntry("net/engine.py", "SL802", justification="retired"),
            BaselineEntry("util/__init__.py", "SL904",
                          justification="retired"),
        ]).save(baseline_path)
        lines = []
        code = run_lint([tmp_path], baseline_path=baseline_path,
                        no_cache=True, out=lines.append)
        assert code == 0
        assert any("stale" in line for line in lines)
        # Retired rule ids are stale even though no rule of theirs ran.
        assert any("[SL802]" in line and "stale" in line for line in lines)
        assert any("[SL904]" in line and "stale" in line for line in lines)

    def test_nonexistent_scan_path_is_operational_error(self, tmp_path):
        lines = []
        code = run_lint([tmp_path / "no_such_dir"], no_baseline=True,
                        no_cache=True, out=lines.append)
        assert code == 2
        assert any("no such file" in line for line in lines)

    def test_missing_explicit_baseline_is_operational_error(self, tmp_path):
        write_module(tmp_path, "sim/ok.py", "x = 1\n")
        code = run_lint([tmp_path], baseline_path=tmp_path / "nope.json",
                        no_cache=True, out=lambda s: None)
        assert code == 2

    def test_corrupt_baseline_is_operational_error(self, tmp_path):
        write_module(tmp_path, "sim/ok.py", "x = 1\n")
        bad = tmp_path / "lint_baseline.json"
        bad.write_text("not json", encoding="utf-8")
        code = run_lint([tmp_path], baseline_path=bad, no_cache=True,
                        out=lambda s: None)
        assert code == 2

    def test_update_baseline_writes_file_and_next_run_is_clean(self, tmp_path):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        baseline_path = tmp_path / "lint_baseline.json"
        # Prior entries: graph-rule debt whose finding is gone, and two
        # retired rule ids.
        Baseline(entries=[
            BaselineEntry("net/engine.py", "SL802", justification="retired"),
            BaselineEntry("util/__init__.py", "SL904",
                          justification="retired"),
            BaselineEntry("util/clockish.py", "SL601",
                          justification="graph debt"),
        ]).save(baseline_path)
        code = run_lint([tmp_path], baseline_path=baseline_path,
                        update_baseline=True, no_cache=True,
                        out=lambda s: None)
        assert code == 0
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert data["version"] == 1
        assert data["entries"][0]["file"] == "sim/clock.py"
        assert data["entries"][0]["rule"] == "SL101"
        # Every rule ran, so the paid-off SL601 debt and the retired ids
        # are all dropped.
        assert [(e["file"], e["rule"]) for e in data["entries"]] == [
            ("sim/clock.py", "SL101")]
        # the freshly written baseline makes the same tree pass
        assert run_lint([tmp_path], baseline_path=baseline_path,
                        no_cache=True, out=lambda s: None) == 0


class TestCli:
    def test_cli_lint_dirty_tree_exits_one(self, tmp_path, capsys):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        code = main(["lint", str(tmp_path), "--no-cache", "--no-baseline"])
        assert code == 1
        assert "SL101" in capsys.readouterr().out

    def test_cli_lint_json_format(self, tmp_path, capsys):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        code = main(["lint", str(tmp_path), "--no-cache", "--no-baseline",
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "SL101"

    def test_cli_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "net/ok.py", "def f(rng):\n    return rng.random()\n")
        code = main(["lint", str(tmp_path), "--no-cache", "--no-baseline"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_lint_explicit_baseline_flag(self, tmp_path, capsys):
        write_module(tmp_path, "sim/clock.py", CLOCK_SNIPPET)
        baseline_path = tmp_path / "baseline.json"
        Baseline(entries=[
            BaselineEntry("sim/clock.py", "SL101", justification="fixture"),
        ]).save(baseline_path)
        code = main(["lint", str(tmp_path), "--no-cache",
                     "--baseline", str(baseline_path)])
        assert code == 0
        assert "1 baselined" in capsys.readouterr().out
