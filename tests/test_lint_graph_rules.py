"""Behavior of the SL6xx transitive-determinism taint rules.

Each test builds a tiny multi-module project on disk, runs the
:class:`repro.lint.graph.ProjectAnalyzer` over it with ``sim`` as the
model package, and asserts on the findings — including the full call
chain the taint rules print.
"""

from pathlib import Path

import pytest

from repro.lint import Baseline, BaselineEntry
from repro.lint.config import LintConfig
from repro.lint.graph import ProjectAnalyzer

pytestmark = pytest.mark.lint

CFG = LintConfig(model_packages=frozenset({"sim"}))


def _project(tmp_path: Path, files: dict, name: str = "proj") -> Path:
    root = tmp_path / name
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    for pkg in {p.parent for p in root.rglob("*.py")} | {root}:
        init = pkg / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root

def _run(tmp_path: Path, files: dict, config: LintConfig = CFG):
    root = _project(tmp_path, files)
    analyzer = ProjectAnalyzer(config=config, cache_dir=None)
    return analyzer.run([root])


def _rules(result):
    return [(f.rule, f.file, f.message) for f in result.report.findings]


# -- SL6xx: transitive determinism taint ---------------------------------


def test_sl601_wall_clock_chain_reported(tmp_path):
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        "sim/engine.py": (
            "from proj.util.clockish import stamp\n\n\n"
            "def step():\n"
            "    return stamp()\n"
        ),
    })
    sl601 = [f for f in result.report.findings if f.rule == "SL601"]
    assert len(sl601) == 1
    f = sl601[0]
    assert f.file == "util/clockish.py"
    assert "time.time()" in f.message
    assert ("reachable from model code via proj.sim.engine.step"
            " -> proj.util.clockish.stamp") in f.message


def test_sl601_not_reported_when_unreachable_from_model_code(tmp_path):
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        "sim/engine.py": "def step():\n    return 1\n",
    })
    assert [f.rule for f in result.report.findings] == []


def test_sl601_sink_inside_model_package_is_per_file_territory(tmp_path):
    """A wall-clock read *in* model code is SL101's job, not SL601's."""
    result = _run(tmp_path, {
        "sim/engine.py": (
            "import time\n\n\n"
            "def step():\n"
            "    return time.time()\n"
        ),
    })
    rules = [f.rule for f in result.report.findings]
    assert "SL101" in rules
    assert "SL601" not in rules


def test_sl602_argless_default_rng_and_os_urandom(tmp_path):
    result = _run(tmp_path, {
        "util/entropy.py": (
            "import os\n"
            "import numpy as np\n\n\n"
            "def fresh_rng():\n"
            "    return np.random.default_rng()\n\n\n"
            "def seeded_rng(seed):\n"
            "    return np.random.default_rng(seed)\n\n\n"
            "def noise():\n"
            "    return os.urandom(8)\n"
        ),
        "sim/engine.py": (
            "from proj.util.entropy import fresh_rng, noise, seeded_rng\n\n\n"
            "def a():\n"
            "    return fresh_rng()\n\n\n"
            "def b():\n"
            "    return noise()\n\n\n"
            "def c(seed):\n"
            "    return seeded_rng(seed)\n"
        ),
    })
    sl602 = [f for f in result.report.findings if f.rule == "SL602"]
    messages = "\n".join(f.message for f in sl602)
    assert "default_rng()" in messages and "os.urandom()" in messages
    # The *seeded* construction is deliberate injection — never tainted.
    assert "seeded_rng" not in messages


def test_sl603_set_iteration_feeding_return(tmp_path):
    result = _run(tmp_path, {
        "util/pick.py": (
            "def pick(items):\n"
            "    out = []\n"
            "    for x in set(items):\n"
            "        out.append(x)\n"
            "    return out\n\n\n"
            "def harmless(items):\n"
            "    for x in set(items):\n"
            "        print(x)\n"
        ),
        "sim/engine.py": (
            "from proj.util.pick import harmless, pick\n\n\n"
            "def choose(xs):\n"
            "    return pick(xs)\n\n\n"
            "def log(xs):\n"
            "    harmless(xs)\n"
        ),
    })
    sl603 = [f for f in result.report.findings if f.rule == "SL603"]
    assert len(sl603) == 1
    assert "proj.util.pick.pick" in sl603[0].message


def test_sl6xx_chain_through_intermediate_module(tmp_path):
    """Taint crosses more than one non-model hop and prints every hop."""
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        "util/middle.py": (
            "from proj.util.clockish import stamp\n\n\n"
            "def relay():\n"
            "    return stamp()\n"
        ),
        "sim/engine.py": (
            "from proj.util.middle import relay\n\n\n"
            "def step():\n"
            "    return relay()\n"
        ),
    })
    sl601 = [f for f in result.report.findings if f.rule == "SL601"]
    assert len(sl601) == 1
    assert ("proj.sim.engine.step -> proj.util.middle.relay"
            " -> proj.util.clockish.stamp") in sl601[0].message


def test_sl601_wall_clock_read_in_lambda_default_reported(tmp_path):
    """A lambda's defaults run in the enclosing function, at definition."""
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def stamper():\n"
            "    return lambda now=time.time(): now\n"
        ),
        "sim/engine.py": (
            "from proj.util.clockish import stamper\n\n\n"
            "def step():\n"
            "    return stamper()\n"
        ),
    })
    sl601 = [f for f in result.report.findings if f.rule == "SL601"]
    assert [(f.file, f.line) for f in sl601] == [("util/clockish.py", 5)]
    assert ("reachable from model code via proj.sim.engine.step"
            " -> proj.util.clockish.stamper") in sl601[0].message


def test_sl601_not_reported_for_pure_lambda_default(tmp_path):
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def origin():\n"
            "    return 0.0\n\n\n"
            "def stamper():\n"
            "    return lambda now=origin(): now\n"
        ),
        "sim/engine.py": (
            "from proj.util.clockish import stamper\n\n\n"
            "def step():\n"
            "    return stamper()\n"
        ),
    })
    assert [f.rule for f in result.report.findings] == []
    assert result.graph.resolve_raw("proj.util.clockish.stamper",
                                    "origin").kind == "project"


def test_roots_sharing_relative_paths_each_reach_the_graph(tmp_path):
    """Two roots that both hold ``__init__.py``, ``sim/__init__.py`` and
    ``sim/clock.py``: the first root's model code still reaches its
    wall-clock helper."""
    first = _project(tmp_path, {
        "util/wall.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        "sim/clock.py": (
            "from a.util.wall import stamp\n\n\n"
            "def now():\n"
            "    return stamp()\n"
        ),
    }, name="a")
    second = _project(tmp_path, {
        "sim/clock.py": "def now():\n    return 0.0\n",
    }, name="b")
    result = ProjectAnalyzer(config=CFG, cache_dir=None).run([first, second])
    assert result.report.files_scanned == len(result.summaries) == 8
    assert {s.module for s in result.summaries.values()} >= {
        "a.sim.clock", "b.sim.clock"}
    sl601 = [f for f in result.report.findings if f.rule == "SL601"]
    assert [f.file for f in sl601] == ["util/wall.py"]
    assert "a.sim.clock.now -> a.util.wall.stamp" in sl601[0].message


def test_graph_finding_suppressible_at_sink_line(tmp_path):
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: ignore[SL601] -- ok here\n"
        ),
        "sim/engine.py": (
            "from proj.util.clockish import stamp\n\n\n"
            "def step():\n"
            "    return stamp()\n"
        ),
    })
    assert [f.rule for f in result.report.findings] == []
    assert [f.rule for f in result.report.suppressed] == ["SL601"]


def test_unknown_calls_become_explicit_unknown_edges(tmp_path):
    result = _run(tmp_path, {
        "sim/engine.py": (
            "def step(handler):\n"
            "    return handler.fire()\n"
        ),
    })
    unknown = [e for e in result.graph.edges if e.kind == "unknown"]
    assert len(unknown) == 1
    assert result.graph.stats()["unknown_edges"] == 1


def test_method_call_through_self_resolves(tmp_path):
    result = _run(tmp_path, {
        "util/clockish.py": (
            "import time\n\n\n"
            "class Clock:\n"
            "    def read(self):\n"
            "        return self._raw()\n\n"
            "    def _raw(self):\n"
            "        return time.time()\n"
        ),
        "sim/engine.py": (
            "from proj.util.clockish import Clock\n\n\n"
            "def step():\n"
            "    return Clock().read()\n"
        ),
    })
    sl601 = [f for f in result.report.findings if f.rule == "SL601"]
    assert len(sl601) == 1
    assert "proj.util.clockish.Clock.read" in sl601[0].message
    assert "proj.util.clockish.Clock._raw" in sl601[0].message


# -- baseline interaction -------------------------------------------------


def test_retired_rule_baseline_entries_are_stale():
    """Ids no rule registers any more (the retired SL802 and SL904) match
    no finding, so every run reports them stale."""
    baseline = Baseline(entries=[
        BaselineEntry(file="net/engine.py", rule="SL802"),
        BaselineEntry(file="util/__init__.py", rule="SL904"),
    ])
    kept, baselined, stale = baseline.filter([])
    assert (kept, baselined) == ([], [])
    assert [e.rule for e in stale] == ["SL802", "SL904"]
