"""The tier-1 whole-program lint gate over the real ``src/repro`` tree.

Beyond cleanliness this gate pins the analysis-layer contracts:

* byte-determinism — two runs produce byte-identical JSON reports;
* the incremental cache is an accelerator (warm >= 3x faster than cold,
  both within wall-clock budget), recorded to the untracked
  ``benchmarks/results/local/BENCH_lint.json`` — the committed
  ``benchmarks/results/BENCH_lint.json`` is refreshed only on purpose;
* the linter passes its own rules when ``lint`` is treated as model
  code (no hash-ordered traversal inside the analyzer);
* SARIF output and the 0/1/2 exit-code contract.
"""

import io
import json
import time
from pathlib import Path

import pytest

from repro.lint import Baseline, LintEngine, run_lint
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.graph import ProjectAnalyzer
from repro.lint.runner import BASELINE_FILENAME, default_scan_root

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / BASELINE_FILENAME
#: gitignored, so a tier-1 run leaves the working tree clean
BENCH_PATH = REPO_ROOT / "benchmarks" / "results" / "local" / "BENCH_lint.json"

#: Wall-clock budgets for one whole-program pass over src/repro.
COLD_BUDGET_S = 10.0
WARM_BUDGET_S = 2.0
MIN_WARM_SPEEDUP = 3.0

#: The warm pass finishes in ~0.2 s, where single-run scheduler jitter
#: is a visible fraction of the measurement; the recorded warm time is
#: the best of this many runs so the ledger tracks cache cost, not noise.
WARM_RUNS = 3


def _graph_lint(cache_dir, **kw):
    """A whole-program lint of src/repro: its exit code, its output, and
    the analysis the report was made from."""
    buf, results = [], []
    analyze = ProjectAnalyzer.run

    def keep(self, roots):
        results.append(analyze(self, roots))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProjectAnalyzer, "run", keep)
        code = run_lint([default_scan_root()], graph=True, cache_dir=cache_dir,
                        baseline_path=BASELINE_PATH, out=buf.append, **kw)
    return code, "\n".join(buf), results[0]


@pytest.fixture(scope="module")
def cold_lint(tmp_path_factory):
    """The one timed cold run: a JSON lint of src/repro into a fresh cache
    directory.  The gate and the SARIF run read that cache warm (the cache
    never changes a report; ``uncached_lint`` checks that), and its
    analysis is shared by the read-only tests below."""
    cache_dir = tmp_path_factory.mktemp("graph-lint") / "cache"
    t0 = time.perf_counter()
    code, out, result = _graph_lint(cache_dir, fmt="json")
    return cache_dir, code, out, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def uncached_lint():
    """The second fresh run: a cache-free JSON lint of src/repro, which
    the cold run's report and analysis must equal byte for byte."""
    return _graph_lint(None, fmt="json", no_cache=True)


@pytest.fixture(scope="module")
def cold_result(cold_lint):
    return cold_lint[3]


def test_graph_gate_src_repro_is_clean(cold_lint):
    code, out, _ = _graph_lint(cold_lint[0])
    assert code == 0, f"repro lint --graph found new violations:\n{out}"


def test_no_unbaselined_graph_family_findings(cold_result):
    """Zero unbaselined SL6xx/SL9xx/SL10xx on the real tree."""
    kept, _, _ = Baseline.load(BASELINE_PATH).filter(
        cold_result.report.findings)
    # "SL100" (not "SL10") keeps the per-file SL1xx ids out of the match.
    graph_findings = [f for f in kept
                      if f.rule.startswith(("SL6", "SL9", "SL100"))]
    assert graph_findings == [], "\n".join(f.render() for f in graph_findings)


def test_graph_run_byte_deterministic_and_warm_speedup(cold_lint, uncached_lint):
    cache_dir, code_cold, out_cold, _, cold_s = cold_lint

    warm_s = float("inf")
    for _ in range(WARM_RUNS):
        t0 = time.perf_counter()
        code_warm, out_warm, _ = _graph_lint(cache_dir, fmt="json")
        warm_s = min(warm_s, time.perf_counter() - t0)
        assert code_cold == code_warm == 0
        assert out_warm == out_cold, \
            "cold and warm reports must be byte-identical"

    _, out_nocache, _ = uncached_lint
    assert out_nocache == out_cold, "the cache must never change the report"

    assert cold_s < COLD_BUDGET_S, f"cold graph lint took {cold_s:.2f}s"
    assert warm_s < WARM_BUDGET_S, f"warm graph lint took {warm_s:.2f}s"
    speedup = cold_s / warm_s
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm run only {speedup:.2f}x faster than cold "
        f"({cold_s:.3f}s -> {warm_s:.3f}s)")

    payload = json.loads(out_cold)
    BENCH_PATH.parent.mkdir(parents=True, exist_ok=True)
    BENCH_PATH.write_text(json.dumps({
        "files": payload["files_scanned"],
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(speedup, 2),
    }, indent=1) + "\n", encoding="utf-8")


def test_two_fresh_runs_identical_finding_order(cold_result, uncached_lint):
    a = cold_result
    b = uncached_lint[2]
    assert [f.to_dict() for f in a.report.findings] \
        == [f.to_dict() for f in b.report.findings]
    assert a.graph.stats() == b.graph.stats()


def test_unknown_edges_are_recorded_not_dropped(cold_result):
    stats = cold_result.graph.stats()
    # Dynamic dispatch exists in the tree (callbacks, injected clocks);
    # the resolver must surface it as explicit unknown edges.
    assert stats["unknown_edges"] > 0
    assert stats["project_edges"] > 500
    assert stats["entrypoints"] > 300


def test_linter_passes_its_own_determinism_rules():
    """The analyzer must satisfy the discipline it enforces: treating
    ``lint`` as model code turns the SL1xx family on it."""
    cfg = LintConfig(model_packages=frozenset({"lint"}))
    report = LintEngine(config=cfg).lint_tree(
        default_scan_root() / "lint")
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings)


def test_sarif_output_is_valid_and_lists_graph_rules(cold_lint):
    code, out, _ = _graph_lint(cold_lint[0], fmt="sarif")
    assert code == 0
    log = json.loads(out)
    assert log["version"] == "2.1.0"
    rules = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {"SL001", "SL101", "SL601", "SL602", "SL603",
            "SL901", "SL902", "SL903",
            "SL1001", "SL1002", "SL1003", "SL1004"} <= rules


def test_exit_code_contract(tmp_path):
    # 2: unparseable file, with or without --graph.
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "broken.py").write_text("def f(:\n", encoding="utf-8")
    sink = io.StringIO()
    assert run_lint([bad], no_baseline=True,
                    out=sink.write) == 2
    assert run_lint([bad], no_baseline=True, graph=True, no_cache=True,
                    out=sink.write) == 2
    # 2: bad paths.
    assert run_lint([tmp_path / "nope"], no_baseline=True,
                    out=sink.write) == 2
    # 1: a real finding in model code.
    dirty = tmp_path / "dirty" / "sim"
    dirty.mkdir(parents=True)
    (dirty / "engine.py").write_text(
        "import time\n\n\ndef step():\n    return time.time()\n",
        encoding="utf-8")
    cfg = LintConfig(model_packages=frozenset({"sim"}))
    assert run_lint([tmp_path / "dirty"], no_baseline=True, graph=True,
                    no_cache=True, config=cfg, out=sink.write) == 1
    # 0: clean tree.
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("def f(x):\n    return x\n",
                                 encoding="utf-8")
    assert run_lint([clean], no_baseline=True, graph=True, no_cache=True,
                    out=sink.write) == 0


def test_default_config_model_packages_cover_graph_entrypoints():
    """The taint entrypoint set must include the simulator core."""
    assert {"sim", "net", "core", "transfer"} \
        <= set(DEFAULT_CONFIG.model_packages)
