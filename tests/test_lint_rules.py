"""Per-rule fixtures for the simulation-invariant linter (repro.lint)."""

import textwrap

import pytest

from repro.lint import DEFAULT_CONFIG, LintEngine, Severity


def lint(source, rel="net/fixture.py", config=None):
    engine = LintEngine(config=config or DEFAULT_CONFIG)
    return engine.lint_source(textwrap.dedent(source), rel=rel)


def rules_hit(source, rel="net/fixture.py", config=None):
    return {f.rule for f in lint(source, rel=rel, config=config)}


class TestSL101WallClock:
    def test_time_time_flagged_in_model_code(self):
        findings = lint("""\
            import time

            def stamp():
                return time.time()
            """)
        assert [f.rule for f in findings] == ["SL101"]
        assert findings[0].line == 4
        assert findings[0].severity is Severity.ERROR

    def test_datetime_now_flagged(self):
        assert "SL101" in rules_hit("""\
            from datetime import datetime
            t = datetime.now()
            """)

    def test_monotonic_and_perf_counter_flagged(self):
        assert "SL101" in rules_hit("import time\nx = time.monotonic()\n")
        assert "SL101" in rules_hit("import time\nx = time.perf_counter()\n")

    def test_not_flagged_outside_model_packages(self):
        assert "SL101" not in rules_hit(
            "import time\nx = time.time()\n", rel="analysis/fixture.py")

    def test_simulated_time_ok(self):
        assert lint("def f(sim):\n    return sim.now\n") == []


class TestSL102StdlibRandom:
    def test_import_flagged(self):
        assert "SL102" in rules_hit("import random\n")

    def test_from_import_flagged(self):
        assert "SL102" in rules_hit("from random import choice\n")

    def test_call_through_module_flagged(self):
        assert "SL102" in rules_hit("x = random.random()\n")

    def test_injected_generator_ok(self):
        assert "SL102" not in rules_hit("def f(rng):\n    return rng.random()\n")


class TestSL103AdHocRng:
    def test_default_rng_flagged_tree_wide(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert "SL103" in rules_hit(src, rel="net/fixture.py")
        assert "SL103" in rules_hit(src, rel="analysis/fixture.py")

    def test_bare_default_rng_flagged(self):
        assert "SL103" in rules_hit(
            "from numpy.random import default_rng\nrng = default_rng(3)\n")

    def test_legacy_global_rng_flagged(self):
        assert "SL103" in rules_hit("import numpy as np\nnp.random.seed(0)\n")
        assert "SL103" in rules_hit(
            "import numpy as np\nr = np.random.RandomState(0)\n")

    def test_whitelisted_entrypoint_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert "SL103" not in rules_hit(src, rel="sim/rng.py")

    def test_registry_stream_ok(self):
        assert "SL103" not in rules_hit(
            "def f(registry):\n    return registry.stream('jitter')\n")


class TestSL104SetIteration:
    def test_set_literal_iteration_flagged(self):
        assert "SL104" in rules_hit(
            "for name in {'a', 'b'}:\n    print(name)\n")

    def test_set_union_iteration_flagged(self):
        assert "SL104" in rules_hit(
            "def f(a, b):\n    for x in set(a) | set(b):\n        yield x\n")

    def test_comprehension_over_set_flagged(self):
        assert "SL104" in rules_hit("out = [x for x in {1, 2, 3}]\n")

    def test_sorted_set_ok(self):
        assert "SL104" not in rules_hit(
            "def f(a, b):\n    for x in sorted(set(a) | set(b)):\n        yield x\n")

    def test_list_iteration_ok(self):
        assert "SL104" not in rules_hit("for x in [1, 2]:\n    print(x)\n")


class TestSL201MagicSizes:
    def test_power_expression_flagged(self):
        findings = lint("CHUNK_LEN = 10**6\n")
        assert [f.rule for f in findings] == ["SL201"]
        assert "units.MB" in findings[0].message

    def test_mib_power_flagged(self):
        assert "SL201" in rules_hit("x = 8 * 2**20\n")

    def test_size_named_default_flagged(self):
        assert "SL201" in rules_hit(
            "def probe(probe_bytes=1_000_000):\n    return probe_bytes\n")

    def test_size_keyword_flagged(self):
        assert "SL201" in rules_hit("run(chunk_bytes=4_000_000)\n")

    def test_byte_scaling_division_flagged(self):
        assert "SL201" in rules_hit(
            "def render(r):\n    return f'{r.part_bytes / 1e6:.0f} MB'\n")

    def test_named_constant_ok(self):
        assert "SL201" not in rules_hit(
            "from repro import units\nSIZE_BYTES = 4 * units.MB\n")

    def test_unrelated_literal_ok(self):
        assert "SL201" not in rules_hit("max_events = 1_000_000\n")
        assert "SL201" not in rules_hit("horizon = 1e6\n")

    def test_units_module_itself_exempt(self):
        assert "SL201" not in rules_hit("MB: int = 10**6\n", rel="units.py")

    def test_not_applied_outside_model_code(self):
        assert "SL201" not in rules_hit("x = 10**6\n", rel="analysis/fixture.py")


class TestSL202BitsPerByte:
    def test_magic_eight_flagged(self):
        assert "SL202" in rules_hit("def f(nbytes, dt):\n    return nbytes * 8 / dt\n")

    def test_division_by_eight_flagged(self):
        assert "SL202" in rules_hit("def f(rate_bps):\n    return rate_bps / 8\n")

    def test_units_spelled_conversion_ok(self):
        assert "SL202" not in rules_hit(
            "from repro import units\n"
            "def f(nbytes, dt):\n    return nbytes * units.BITS_PER_BYTE / dt\n")

    def test_eight_mib_chunk_ok(self):
        # 8 * units.MiB is a chunk size, not a bit/byte conversion.
        assert "SL202" not in rules_hit(
            "from repro import units\nCHUNK = 8 * units.MiB\n")


class TestSL203MixedConventions:
    def test_mbps_from_bps_flagged_as_warning(self):
        findings = lint("def f(link_bps):\n    speed_mbps = link_bps * 2\n    return speed_mbps\n")
        assert [f.rule for f in findings] == ["SL203"]
        assert findings[0].severity is Severity.WARNING

    def test_ms_from_seconds_flagged(self):
        assert "SL203" in rules_hit("def f(delay_s):\n    base_ms = delay_s * 1000\n    return base_ms\n")

    def test_explicit_conversion_ok(self):
        assert "SL203" not in rules_hit(
            "from repro import units\n"
            "def f(link_bps):\n    return units.bps_to_mbps(link_bps)\n")

    def test_same_unit_ok(self):
        assert "SL203" not in rules_hit(
            "def f(a_bps, b_bps):\n    total_bps = a_bps + b_bps\n    return total_bps\n")

    def test_rate_and_time_families_do_not_clash(self):
        assert "SL203" not in rules_hit(
            "def f(nbytes, rate_bps):\n    duration_s = nbytes * 8 / rate_bps\n    return duration_s\n"
        ) - {"SL202"}  # the *8 is SL202's business, not SL203's


class TestSL301MutableDefaults:
    def test_list_default_flagged(self):
        findings = lint("def f(acc=[]):\n    return acc\n", rel="analysis/x.py")
        assert [f.rule for f in findings] == ["SL301"]

    def test_dict_set_and_call_defaults_flagged(self):
        assert "SL301" in rules_hit("def f(m={}):\n    return m\n")
        assert "SL301" in rules_hit("def f(s=set()):\n    return s\n")
        assert "SL301" in rules_hit("def f(d=dict()):\n    return d\n")

    def test_kwonly_default_flagged(self):
        assert "SL301" in rules_hit("def f(*, acc=[]):\n    return acc\n")

    def test_none_default_ok(self):
        assert "SL301" not in rules_hit("def f(acc=None):\n    return acc or []\n")

    def test_tuple_default_ok(self):
        assert "SL301" not in rules_hit("def f(sizes=(1, 2)):\n    return sizes\n")


class TestSL302BareExcept:
    def test_bare_except_flagged(self):
        assert "SL302" in rules_hit(
            "try:\n    x = 1\nexcept:\n    pass\n", rel="measure/x.py")

    def test_typed_except_ok(self):
        assert "SL302" not in rules_hit(
            "try:\n    x = 1\nexcept ValueError:\n    pass\n")


class TestSL303FloatTimeEquality:
    def test_time_suffix_equality_flagged(self):
        assert "SL303" in rules_hit(
            "def f(t_end_s, duration_s):\n    return duration_s == t_end_s\n")

    def test_now_equality_flagged(self):
        assert "SL303" in rules_hit("def f(sim):\n    return sim.now == 3.0\n")

    def test_inequality_comparison_ok(self):
        assert "SL303" not in rules_hit(
            "def f(now, deadline_s):\n    return now >= deadline_s\n")

    def test_non_time_equality_ok(self):
        assert "SL303" not in rules_hit("def f(count):\n    return count == 3\n")

    def test_none_check_ok(self):
        assert "SL303" not in rules_hit(
            "def f(start_s):\n    return start_s == None\n")


class TestRuleCatalogue:
    def test_all_families_shipped(self):
        from repro.lint import all_rules

        ids = [r.rule_id for r in all_rules()]
        assert len(ids) == len(set(ids))
        assert {"SL101", "SL102", "SL103", "SL104"} <= set(ids)
        assert {"SL201", "SL202", "SL203"} <= set(ids)
        assert {"SL301", "SL302", "SL303"} <= set(ids)

    def test_every_rule_has_summary_and_severity(self):
        from repro.lint import all_rules

        for r in all_rules():
            assert r.summary
            assert r.severity in (Severity.ERROR, Severity.WARNING)
            assert r.scope in ("model", "tree")

    def test_every_suppression_names_a_registered_rule(self):
        """No ``# simlint: ignore[...]`` comment under src/repro names a
        retired or unknown rule id (a dead suppression)."""
        import io
        import tokenize
        from pathlib import Path

        import repro
        from repro.lint import all_rules
        from repro.lint.context import parse_suppressions
        from repro.lint.engine import SCOPES

        known = {r.rule_id for r in all_rules(SCOPES)} | {"*"}
        dead = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type != tokenize.COMMENT:
                    continue
                for ids in parse_suppressions(tok.string).values():
                    dead += [f"{path.name}:{tok.start[0]} {i}"
                             for i in sorted(ids - known)]
        assert dead == []
