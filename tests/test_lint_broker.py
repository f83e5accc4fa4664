"""Lint coverage over ``repro/broker``: model-scope rules apply there.

The broker is control-plane *model* code — its decisions feed simulation
results — so the determinism (SL1xx) and unit (SL2xx) rules must fire
inside ``broker/`` exactly as they do in ``core/``, the observability
and parallelism rules (SL4xx/SL5xx, TREE scope) must keep applying, and
the real tree must be clean with **zero** baseline debt for the package.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, Baseline, LintEngine
from repro.lint.runner import BASELINE_FILENAME

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(source, rel="broker/fixture.py"):
    engine = LintEngine(config=DEFAULT_CONFIG)
    return engine.lint_source(textwrap.dedent(source), rel=rel)


def rules_hit(source, rel="broker/fixture.py"):
    return {f.rule for f in lint(source, rel=rel)}


class TestBrokerIsModelScope:
    def test_config_includes_broker(self):
        assert "broker" in DEFAULT_CONFIG.model_packages

    def test_sl103_adhoc_rng_flagged_in_broker(self):
        src = """\
            import numpy as np

            def pick():
                rng = np.random.default_rng()
                return rng.random()
            """
        assert "SL103" in rules_hit(src)

    def test_sl104_set_iteration_flagged_in_broker(self):
        src = """\
            def drain(pairs):
                for pair in set(pairs):
                    print(pair)
            """
        assert "SL104" in rules_hit(src)

    def test_sl101_wall_clock_flagged_in_broker(self):
        src = """\
            import time

            def stamp():
                return time.time()
            """
        assert "SL101" in rules_hit(src)

    def test_sl202_bits_math_flagged_in_broker(self):
        src = """\
            def duration(nbytes, rate_bps):
                return nbytes * 8 / rate_bps
            """
        assert "SL202" in rules_hit(src)

    def test_same_fixture_quiet_outside_model_scope(self):
        src = """\
            def drain(pairs):
                for pair in set(pairs):
                    print(pair)
            """
        assert "SL104" not in rules_hit(src, rel="analysis/fixture.py")


class TestTreeRulesStillApply:
    def test_sl401_metric_naming_enforced_in_broker(self):
        src = """\
            def register(metrics):
                return metrics.counter("broker_hits", "badly named")
            """
        assert "SL401" in rules_hit(src)

    def test_sl402_raw_span_events_flagged_in_broker(self):
        src = """\
            def trace(tracer, now):
                tracer.emit(now, "broker", "span_begin", span_id=1)
            """
        assert "SL402" in rules_hit(src)

    def test_sl501_multiprocessing_flagged_in_broker(self):
        assert "SL501" in rules_hit("import multiprocessing\n")


class TestRealBrokerTreeIsClean:
    def test_zero_error_findings(self, tree_report):
        # the report scans from the package root, so findings carry the
        # "broker/" rel prefix and the MODEL-scope rules actually apply to
        # the package
        broker_errors = [f for f in tree_report.errors
                        if f.file.startswith("broker/")]
        assert broker_errors == [], "\n".join(
            f"{f.file}:{f.line} [{f.rule}] {f.message}"
            for f in broker_errors)

    def test_baseline_has_no_broker_debt(self):
        baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        broker_entries = [e for e in baseline.entries
                         if e.file.startswith("broker/")]
        assert broker_entries == []
