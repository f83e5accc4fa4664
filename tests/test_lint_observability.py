"""SL4xx fixtures: metric naming and span-emission discipline."""

import textwrap

from repro.lint import DEFAULT_CONFIG, LintEngine


def lint(source, rel="net/fixture.py", config=None):
    engine = LintEngine(config=config or DEFAULT_CONFIG)
    return engine.lint_source(textwrap.dedent(source), rel=rel)


def rules_hit(source, rel="net/fixture.py", config=None):
    return {f.rule for f in lint(source, rel=rel, config=config)}


class TestSL401MetricNaming:
    def test_bad_name_flagged(self):
        findings = lint("""\
            def setup(metrics):
                return metrics.counter("flows_started", "no prefix or suffix")
            """)
        assert [f.rule for f in findings] == ["SL401"]
        assert findings[0].line == 2

    def test_missing_unit_suffix_flagged(self):
        assert "SL401" in rules_hit(
            'x = registry.gauge("repro_active_flows")\n')

    def test_camel_case_flagged(self):
        assert "SL401" in rules_hit(
            'x = metrics.histogram("repro_FlowDuration_seconds")\n')

    def test_convention_name_ok(self):
        assert "SL401" not in rules_hit(
            'x = metrics.counter("repro_engine_flows_started_total", "help")\n')

    def test_all_unit_suffixes_ok(self):
        for sfx in ("total", "seconds", "bytes", "bps", "ratio", "count"):
            assert "SL401" not in rules_hit(
                f'x = metrics.counter("repro_t_x_{sfx}")\n'), sfx

    def test_non_registry_receiver_ignored(self):
        # .counter() on something that isn't a metrics registry is not ours.
        assert "SL401" not in rules_hit('x = geiger.counter("clicks")\n')

    def test_non_constant_name_ignored(self):
        assert "SL401" not in rules_hit("x = metrics.counter(name)\n")

    def test_applies_outside_model_packages_too(self):
        # TREE scope: the obs package itself must follow the convention.
        assert "SL401" in rules_hit(
            'x = registry.counter("bad")\n', rel="obs/fixture.py")


class TestSL402SpanEmitPairing:
    def test_hand_emitted_begin_flagged(self):
        findings = lint("""\
            def f(tracer, now):
                tracer.emit(now, "core", "span_begin", span=1, name="x")
            """)
        assert [f.rule for f in findings] == ["SL402"]

    def test_hand_emitted_end_flagged(self):
        assert "SL402" in rules_hit(
            'tracer.emit(0.0, "core", "span_end", span=1)\n')

    def test_ordinary_events_ok(self):
        assert "SL402" not in rules_hit(
            'tracer.emit(0.0, "net.flow", "flow_end", fid=3)\n')

    def test_span_tracer_module_exempt(self):
        src = 'self.tracer.emit(time, component, "span_begin", span=i)\n'
        assert "SL402" in rules_hit(src, rel="net/fixture.py")
        assert "SL402" not in rules_hit(src, rel="obs/spans.py")

    def test_context_manager_usage_ok(self):
        assert "SL402" not in rules_hit("""\
            def f(spans):
                with spans.span("core.executor", "plan:direct"):
                    pass
            """)


class TestSL403ObsWallClock:
    CLOCK_READ = """\
        import time

        def export(events):
            return {"at": time.time(), "n": len(events)}
        """

    def test_clock_read_under_obs_flagged(self):
        findings = [f for f in lint(self.CLOCK_READ, rel="obs/fixture.py")
                    if f.rule == "SL403"]
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "obs/profile.py" in findings[0].message

    def test_every_wall_clock_function_flagged(self):
        for call in ("time.time()", "time.perf_counter()",
                     "time.monotonic()"):
            src = f"import time\nx = {call}\n"
            assert "SL403" in rules_hit(src, rel="obs/fixture.py"), call

    def test_profiler_module_exempt(self):
        assert "SL403" not in rules_hit(self.CLOCK_READ, rel="obs/profile.py")

    def test_outside_obs_ignored(self):
        # the campaign layer is the sanctioned orchestration-side clock
        # reader; SL403 has nothing to say there
        assert "SL403" not in rules_hit(self.CLOCK_READ,
                                        rel="campaign/fixture.py")

    def test_exemption_is_configurable(self):
        from dataclasses import replace

        cfg = replace(DEFAULT_CONFIG,
                      profiler_files=frozenset({"obs/other.py"}))
        assert "SL403" not in rules_hit(self.CLOCK_READ, rel="obs/other.py",
                                        config=cfg)
        assert "SL403" in rules_hit(self.CLOCK_READ, rel="obs/profile.py",
                                    config=cfg)

    def test_sim_time_reads_ok(self):
        assert "SL403" not in rules_hit(
            "def fold(sim, ev):\n    return (sim.now, ev.wall_s)\n",
            rel="obs/fixture.py")


class TestCatalogue:
    def test_sl4xx_registered(self):
        from repro.lint.engine import all_rules

        ids = {r.rule_id for r in all_rules()}
        assert {"SL401", "SL402", "SL403"} <= ids

    def test_obs_package_is_clean(self, tree_report):
        """The shipped obs code satisfies its own rules, no baseline.

        The whole-tree report scans from the package root, so obs findings
        carry the ``obs/`` prefix that SL403 keys on."""
        obs = [f for f in tree_report.findings if f.file.startswith("obs/")]
        assert obs == [], "\n".join(f.render() for f in obs)
