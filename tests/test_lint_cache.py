"""The incremental analysis cache: hit accounting and crash-safety.

The cache is an accelerator, never an input: every test here asserts
both the counter behavior *and* that the produced report is identical
to an uncached run.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.lint.config import LintConfig
from repro.lint.graph import ProjectAnalyzer, ruleset_fingerprint

pytestmark = pytest.mark.lint

CFG = LintConfig(model_packages=frozenset({"sim"}))

FILES = {
    "__init__.py": "",
    "sim/__init__.py": "",
    "sim/engine.py": (
        "from proj.util.clockish import stamp\n\n\n"
        "def step():\n"
        "    return stamp()\n"
    ),
    "util/__init__.py": "",
    "util/clockish.py": (
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
    "util/helpers.py": (
        "def double(x):\n"
        "    return 2 * x\n"
    ),
}


def _write_project(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


@pytest.fixture
def proj(tmp_path):
    return _write_project(tmp_path / "proj", FILES)


def _payload(result):
    """The report as the JSON the CLI would emit (no cache state)."""
    return json.dumps({
        "files_scanned": result.report.files_scanned,
        "findings": [f.to_dict() for f in result.report.findings],
    }, indent=2)


def _run(proj, cache_dir):
    return ProjectAnalyzer(config=CFG, cache_dir=cache_dir).run([proj])


def test_cold_run_all_misses_then_warm_run_all_hits(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    cold = _run(proj, cache_dir)
    assert cold.cache_stats.misses == len(FILES)
    assert cold.cache_stats.hits == 0

    warm = _run(proj, cache_dir)
    assert warm.cache_stats.hits == len(FILES)
    assert warm.cache_stats.misses == 0
    assert _payload(warm) == _payload(cold)


def test_each_tree_keeps_its_own_entries(proj, tmp_path):
    """Linting another tree from the same cache directory neither evicts
    this tree's entries nor serves them back under the other root."""
    cache_dir = tmp_path / "cache"
    other = _write_project(tmp_path / "other", {
        "__init__.py": "",
        "util/__init__.py": "",
        "util/helpers.py": "def half(x):\n    return x / 2\n",
    })
    _run(proj, cache_dir)
    assert _run(other, cache_dir).summaries["__init__.py"].module == "other"
    again = _run(proj, cache_dir)
    assert again.cache_stats.hits == len(FILES)
    assert again.cache_stats.misses == 0
    assert again.summaries["__init__.py"].module == "proj"
    assert again.summaries["util/helpers.py"].module == "proj.util.helpers"


def test_mutating_one_file_recomputes_only_that_summary(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    _run(proj, cache_dir)
    target = proj / "util" / "helpers.py"
    target.write_text(FILES["util/helpers.py"] + "\n\ndef triple(x):\n"
                      "    return 3 * x\n", encoding="utf-8")

    result = _run(proj, cache_dir)
    assert result.cache_stats.misses == 1
    assert result.cache_stats.invalidated == 1
    assert result.cache_stats.hits == len(FILES) - 1
    # The changed file's summary really was rebuilt:
    assert "triple" in result.summaries["util/helpers.py"].defs


def test_corrupt_cache_file_recomputes_transparently(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    reference = _run(proj, cache_dir)
    for cache_file in cache_dir.glob("lint-cache-*.json"):
        cache_file.write_text("{not json", encoding="utf-8")

    result = _run(proj, cache_dir)
    assert result.cache_stats.corrupt
    assert result.cache_stats.misses == len(FILES)
    assert _payload(result) == _payload(reference)
    # ...and the corrupt file was replaced by a good one:
    assert _run(proj, cache_dir).cache_stats.hits == len(FILES)


def test_stale_entry_hash_mismatch_recomputes_that_file(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    reference = _run(proj, cache_dir)
    cache_file = next(cache_dir.glob("lint-cache-*.json"))
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    data["files"]["sim/engine.py"]["sha256"] = "0" * 64
    cache_file.write_text(json.dumps(data), encoding="utf-8")

    result = _run(proj, cache_dir)
    assert result.cache_stats.invalidated == 1
    assert result.cache_stats.hits == len(FILES) - 1
    assert _payload(result) == _payload(reference)


def test_cached_and_uncached_reports_identical(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    _run(proj, cache_dir)
    warm = _run(proj, cache_dir)
    uncached = ProjectAnalyzer(config=CFG, cache_dir=None).run([proj])
    assert _payload(warm) == _payload(uncached)
    # The taint finding is served from cache, not re-derived per-file:
    assert any(f.rule == "SL601" for f in warm.report.findings)


def test_config_change_changes_fingerprint(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    _run(proj, cache_dir)
    other_cfg = LintConfig(model_packages=frozenset({"sim", "util"}))
    result = ProjectAnalyzer(config=other_cfg,
                             cache_dir=cache_dir).run([proj])
    # Different rule-set fingerprint -> disjoint cache file, all misses.
    assert result.cache_stats.misses == len(FILES)
    assert len(list(cache_dir.glob("lint-cache-*.json"))) == 2


def test_fingerprint_is_deterministic():
    fp1 = ruleset_fingerprint(CFG)
    fp2 = ruleset_fingerprint(LintConfig(model_packages=frozenset({"sim"})))
    assert fp1 == fp2
    assert len(fp1) == 16


def test_cache_survives_deleted_file(proj, tmp_path):
    cache_dir = tmp_path / "cache"
    _run(proj, cache_dir)
    (proj / "util" / "helpers.py").unlink()
    result = _run(proj, cache_dir)
    assert result.report.files_scanned == len(FILES) - 1
    assert "util/helpers.py" not in result.summaries
    # The vanished file's entry is not resurrected on the next run:
    assert _run(proj, cache_dir).report.files_scanned == len(FILES) - 1


def test_older_fingerprint_cache_recomputed_transparently(proj, tmp_path):
    """A warm cache written by an older rule set (different fingerprint)
    must never serve summaries: the run recomputes everything and
    replaces the file."""
    cache_dir = tmp_path / "cache"
    reference = _run(proj, cache_dir)
    cache_file = next(cache_dir.glob("lint-cache-*.json"))
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    # Re-stamp the document with a PR-era fingerprint.  The sha256
    # entries are still correct, so a fingerprint-blind loader would
    # happily serve every summary from it.
    data["fingerprint"] = "0" * 16
    cache_file.write_text(json.dumps(data), encoding="utf-8")

    result = _run(proj, cache_dir)
    assert result.cache_stats.hits == 0
    assert result.cache_stats.misses == len(FILES)
    assert _payload(result) == _payload(reference)
    # ...and the stale document was replaced by a current one:
    refreshed = json.loads(cache_file.read_text(encoding="utf-8"))
    assert refreshed["fingerprint"] != "0" * 16
    assert _run(proj, cache_dir).cache_stats.hits == len(FILES)


def test_stale_fingerprint_filename_is_never_read(proj, tmp_path):
    """Caches are keyed by fingerprint in the *filename* too: an
    old-fingerprint file sitting in the directory is simply ignored."""
    cache_dir = tmp_path / "cache"
    reference = _run(proj, cache_dir)
    cache_file = next(cache_dir.glob("lint-cache-*.json"))
    stale = cache_dir / ("lint-cache-" + "f" * 16 + ".json")
    stale.write_text(cache_file.read_text(encoding="utf-8"),
                     encoding="utf-8")
    cache_file.unlink()

    result = _run(proj, cache_dir)
    assert result.cache_stats.misses == len(FILES)
    assert _payload(result) == _payload(reference)


#: FILES plus an observability module reading a wall clock, so that
#: ``profiler_files`` decides whether SL403 fires.
PROFILED_FILES = dict(FILES, **{
    "obs/__init__.py": "",
    "obs/other.py": (
        "import time\n\n\n"
        "def lap():\n"
        "    return time.perf_counter()\n"
    ),
})

#: One changed value per LintConfig field.  A field missing here fails
#: the test below, so a new field cannot escape the fingerprint.
FIELD_VARIANTS = {
    "model_packages": frozenset({"sim", "util"}),
    "rng_entrypoints": frozenset({"util/clockish.py"}),
    "units_definition_files": frozenset({"util/helpers.py"}),
    "span_emitter_files": frozenset({"util/helpers.py"}),
    "profiler_files": frozenset({"obs/other.py"}),
    "parallelism_packages": frozenset({"util"}),
    "layers": (("util",), ("sim",)),
    "restricted_imports": {"util": frozenset({"sim"})},
    "worker_entrypoints": ("sim.engine.step",),
    "atomic_write_files": frozenset({"util/helpers.py"}),
}


@pytest.mark.parametrize("name", sorted(f.name for f in fields(LintConfig)))
def test_every_config_field_keys_the_cache(tmp_path, name):
    """Changing any config field yields a new fingerprint, and a cache
    warmed under the old config never changes the new config's report."""
    root = _write_project(tmp_path / "proj", PROFILED_FILES)
    variant = replace(CFG, **{name: FIELD_VARIANTS[name]})
    assert ruleset_fingerprint(variant) != ruleset_fingerprint(CFG)

    cache_dir = tmp_path / "cache"
    _run(root, cache_dir)
    warm = ProjectAnalyzer(config=variant, cache_dir=cache_dir).run([root])
    uncached = ProjectAnalyzer(config=variant).run([root])
    assert _payload(warm) == _payload(uncached)
