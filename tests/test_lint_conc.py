"""Behavior of the SL10xx cross-process concurrency-safety family.

Each test builds a tiny multi-module project on disk and runs the
whole-program analyzer over it with a purpose-built
:class:`~repro.lint.config.LintConfig` whose ``worker_entrypoints``
point at fixture functions — then asserts on exactly which findings
fire.  Every true-positive fixture has a non-finding twin next to it,
so the tests pin both halves of each rule's contract.  The validation
tests at the bottom pin the SL001 / exit-2 contract for structural
misconfiguration of the family's knobs.
"""

import io
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.config import LintConfig
from repro.lint.findings import Severity
from repro.lint.graph import ProjectAnalyzer

pytestmark = pytest.mark.lint


def _project(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    for pkg in {p.parent for p in root.rglob("*.py")} | {root}:
        init = pkg / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def _run(tmp_path: Path, files: dict, config: LintConfig):
    root = _project(tmp_path, files)
    analyzer = ProjectAnalyzer(config=config, cache_dir=None)
    return analyzer.run([root])


def _findings(result, prefix):
    return [f for f in result.report.findings if f.rule.startswith(prefix)]


def _conc_cfg(*entries, **kw):
    return LintConfig(model_packages=frozenset(), layers=(),
                      restricted_imports={},
                      worker_entrypoints=entries, **kw)


# -- SL1001: worker-reachable mutation of module/class state -----------


def test_sl1001_module_store_in_worker(tmp_path):
    result = _run(tmp_path, {
        "work/state.py": (
            "CACHE = {}\n"
            "\n"
            "\n"
            "def child_main(task):\n"
            "    CACHE[task] = 1\n"
            "    return CACHE\n"
        ),
    }, _conc_cfg("work.state.child_main"))
    sl1001 = _findings(result, "SL1001")
    assert len(sl1001) == 1
    f = sl1001[0]
    assert f.severity is Severity.ERROR
    assert f.line == 5
    assert "`CACHE" in f.message
    assert "worker-reachable proj.work.state.child_main" in f.message
    assert "from work.state.child_main" in f.message


def test_sl1001_local_dict_twin_is_clean(tmp_path):
    result = _run(tmp_path, {
        "work/state.py": (
            "def child_main(task):\n"
            "    cache = {}\n"
            "    cache[task] = 1\n"
            "    return cache\n"
        ),
    }, _conc_cfg("work.state.child_main"))
    assert _findings(result, "SL100") == []


def test_sl1001_global_rebinding_and_transitive_reach(tmp_path):
    # The mutation sits one call-graph hop below the entrypoint.
    result = _run(tmp_path, {
        "work/count.py": (
            "COUNT = 0\n"
            "\n"
            "\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT = COUNT + 1\n"
            "\n"
            "\n"
            "def child_main(task):\n"
            "    bump()\n"
            "    return task\n"
        ),
    }, _conc_cfg("work.count.child_main"))
    sl1001 = _findings(result, "SL1001")
    assert len(sl1001) == 1
    assert "rebinds module global" in sl1001[0].message
    assert "proj.work.count.bump" in sl1001[0].message


def test_sl1001_mutcall_on_module_binding(tmp_path):
    result = _run(tmp_path, {
        "work/reg.py": (
            "ITEMS = []\n"
            "\n"
            "\n"
            "def child_main(task):\n"
            "    ITEMS.append(task)\n"
        ),
    }, _conc_cfg("work.reg.child_main"))
    sl1001 = _findings(result, "SL1001")
    assert len(sl1001) == 1
    assert "mutates module-level binding in place" in sl1001[0].message


def test_sl1001_foreign_library_state_not_flagged(tmp_path):
    # Mutating non-project module state (os.environ) is outside the
    # family's contract.
    result = _run(tmp_path, {
        "work/env.py": (
            "import os\n"
            "\n"
            "\n"
            "def child_main(task):\n"
            "    os.environ.update({\"T\": str(task)})\n"
        ),
    }, _conc_cfg("work.env.child_main"))
    assert _findings(result, "SL1001") == []


def test_sl1001_closure_cell_with_dataclass_field_twin(tmp_path):
    # Regression: a dataclass field named like the closure variable must
    # not make the closure look module-level (class-body bindings are
    # not module globals).
    result = _run(tmp_path, {
        "work/fleet.py": (
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Result:\n"
            "    records: list\n"
            "\n"
            "\n"
            "def child_main(tasks):\n"
            "    records = []\n"
            "\n"
            "    def one(t):\n"
            "        records.append(t)\n"
            "\n"
            "    for t in tasks:\n"
            "        one(t)\n"
            "    return Result(records=records)\n"
        ),
    }, _conc_cfg("work.fleet.child_main"))
    assert _findings(result, "SL1001") == []


def test_sl1001_inline_suppression(tmp_path):
    result = _run(tmp_path, {
        "work/memo.py": (
            "MEMO = {}\n"
            "\n"
            "\n"
            "def child_main(task):\n"
            "    MEMO[task] = 1  "
            "# simlint: ignore[SL1001] -- per-process memo, content-keyed\n"
        ),
    }, _conc_cfg("work.memo.child_main"))
    assert _findings(result, "SL1001") == []
    assert len(result.report.suppressed) >= 1


# -- SL1002: durable writes outside the atomic protocol ----------------


def test_sl1002_worker_open_w_and_json_dump(tmp_path):
    result = _run(tmp_path, {
        "work/out.py": (
            "import json\n"
            "\n"
            "\n"
            "def child_main(path, payload):\n"
            "    with open(path, \"w\") as fh:\n"
            "        json.dump(payload, fh)\n"
        ),
    }, _conc_cfg("work.out.child_main"))
    sl1002 = _findings(result, "SL1002")
    assert len(sl1002) == 2
    assert all(f.severity is Severity.WARNING for f in sl1002)
    assert "`open(..., 'w')`" in sl1002[0].message
    assert "json.dump" in sl1002[1].message
    assert all("repro.core.atomic" in f.message for f in sl1002)


def test_sl1002_read_and_append_modes_are_clean(tmp_path):
    # Reads are harmless; append-only journals are a different
    # durability protocol, excluded by design.
    result = _run(tmp_path, {
        "work/out.py": (
            "def child_main(path):\n"
            "    with open(path) as fh:\n"
            "        head = fh.readline()\n"
            "    with open(path, \"a\") as fh:\n"
            "        fh.write(head)\n"
            "    return head\n"
        ),
    }, _conc_cfg("work.out.child_main"))
    assert _findings(result, "SL1002") == []


def test_sl1002_non_worker_write_is_clean(tmp_path):
    # A durable write outside the worker set (and without a hand-rolled
    # rename) is the parent's business.
    result = _run(tmp_path, {
        "work/report.py": (
            "def save_report(path, body):\n"
            "    path.write_text(body)\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    assert _findings(result, "SL1002") == []


def test_sl1002_hand_rolled_rename_flagged_anywhere(tmp_path):
    result = _run(tmp_path, {
        "work/pub.py": (
            "import os\n"
            "\n"
            "\n"
            "def publish(path, tmp, body):\n"
            "    tmp.write_text(body)\n"
            "    os.replace(tmp, path)\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    sl1002 = _findings(result, "SL1002")
    assert len(sl1002) == 1
    assert "hand-rolls the tmp+rename protocol" in sl1002[0].message


def test_sl1002_exempt_file_is_clean(tmp_path):
    files = {
        "work/pub.py": (
            "import os\n"
            "\n"
            "\n"
            "def publish(path, tmp, body):\n"
            "    tmp.write_text(body)\n"
            "    os.replace(tmp, path)\n"
        ),
    }
    cfg = _conc_cfg("work.other.child_main",
                    atomic_write_files=frozenset({"work/pub.py"}))
    assert _findings(_run(tmp_path, files, cfg), "SL1002") == []


def test_sl1002_sees_the_route_cache_payload_writer(tmp_path):
    # CompiledTopology.save deflates through zipfile, which is no dump
    # sink; its open(path, "wb") is what keeps the write visible.
    source = (Path(__file__).resolve().parent.parent / "src" / "repro"
              / "topo" / "compiled.py").read_text(encoding="utf-8")
    result = _run(tmp_path, {"work/compiled.py": source},
                  _conc_cfg("work.compiled.CompiledTopology.save"))
    sl1002 = _findings(result, "SL1002")
    assert [f.message.split(" in worker-reachable")[0] for f in sl1002] == \
        ["non-atomic durable write `open(..., 'wb')`"]
    assert "CompiledTopology.save" in sl1002[0].message


# -- SL1003: unguarded tier read-modify-write --------------------------


def test_sl1003_fetch_then_publish_without_merge(tmp_path):
    result = _run(tmp_path, {
        "work/tier.py": (
            "def refresh(service, name, snap):\n"
            "    base = service.fetch_snapshot(name)\n"
            "    service.publish_snapshot(name, snap)\n"
            "    return base\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    sl1003 = _findings(result, "SL1003")
    assert len(sl1003) == 1
    assert sl1003[0].line == 3
    assert sl1003[0].severity is Severity.ERROR
    assert "freshest-wins" in sl1003[0].message


def test_sl1003_merged_before_publish_twin_is_clean(tmp_path):
    result = _run(tmp_path, {
        "work/tier.py": (
            "def refresh(service, name, snap):\n"
            "    base = service.fetch_snapshot(name)\n"
            "    folded = base.merged(snap)\n"
            "    service.publish_snapshot(name, folded)\n"
            "    return folded\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    assert _findings(result, "SL1003") == []


def test_sl1003_publish_without_fetch_is_clean(tmp_path):
    # Publish-only (write-once artifacts) is not a read-modify-write.
    result = _run(tmp_path, {
        "work/tier.py": (
            "def announce(service, name, snap):\n"
            "    service.publish_snapshot(name, snap)\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    assert _findings(result, "SL1003") == []


# -- SL1004: RNG state crossing a process/cell boundary ----------------


def test_sl1004_rng_in_spawn_args(tmp_path):
    result = _run(tmp_path, {
        "work/spawn.py": (
            "import multiprocessing as mp\n"
            "\n"
            "\n"
            "def launch(rng, task):\n"
            "    p = mp.Process(target=task, args=(rng,))\n"
            "    p.start()\n"
            "    return p\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    sl1004 = _findings(result, "SL1004")
    assert len(sl1004) == 1
    assert sl1004[0].line == 5
    assert "pickles RNG-carrying `rng`" in sl1004[0].message


def test_sl1004_seed_in_spawn_args_twin_is_clean(tmp_path):
    result = _run(tmp_path, {
        "work/spawn.py": (
            "import multiprocessing as mp\n"
            "\n"
            "\n"
            "def launch(seed, task):\n"
            "    p = mp.Process(target=task, args=(seed,))\n"
            "    p.start()\n"
            "    return p\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    assert _findings(result, "SL1004") == []


def test_sl1004_entrypoint_rng_parameter(tmp_path):
    result = _run(tmp_path, {
        "work/entry.py": (
            "def child_main(rng, tasks):\n"
            "    return list(tasks)\n"
        ),
    }, _conc_cfg("work.entry.child_main"))
    sl1004 = _findings(result, "SL1004")
    assert len(sl1004) == 1
    assert "takes parameter `rng`" in sl1004[0].message
    assert "take a seed" in sl1004[0].message


def test_sl1004_entrypoint_seed_parameter_twin_is_clean(tmp_path):
    result = _run(tmp_path, {
        "work/entry.py": (
            "def child_main(seed, tasks):\n"
            "    return list(tasks)\n"
        ),
    }, _conc_cfg("work.entry.child_main"))
    assert _findings(result, "SL1004") == []


_RNGS = (
    "class RngRegistry:\n"
    "    def __init__(self, seed):\n"
    "        self.seed = seed\n"
    "\n"
    "    def stream(self, name):\n"
    "        return name\n"
)


def test_sl1004_loop_invariant_stream_in_worker(tmp_path):
    result = _run(tmp_path, {
        "work/rngs.py": _RNGS,
        "work/cells.py": (
            "from work.rngs import RngRegistry\n"
            "\n"
            "\n"
            "def child_main(cells):\n"
            "    reg = RngRegistry(7)\n"
            "    out = []\n"
            "    for c in cells:\n"
            "        out.append(reg.stream(\"jitter\"))\n"
            "    return out\n"
        ),
    }, _conc_cfg("work.cells.child_main"))
    sl1004 = _findings(result, "SL1004")
    assert len(sl1004) == 1
    assert "loop-invariant name" in sl1004[0].message


def test_sl1004_per_entity_stream_twin_is_clean(tmp_path):
    result = _run(tmp_path, {
        "work/rngs.py": _RNGS,
        "work/cells.py": (
            "from work.rngs import RngRegistry\n"
            "\n"
            "\n"
            "def child_main(cells):\n"
            "    reg = RngRegistry(7)\n"
            "    out = []\n"
            "    for c in cells:\n"
            "        out.append(reg.stream(f\"jitter-{c}\"))\n"
            "    return out\n"
        ),
    }, _conc_cfg("work.cells.child_main"))
    assert _findings(result, "SL1004") == []


def test_sl1004_loop_stream_outside_worker_set_is_clean(tmp_path):
    # Loop-invariant streaming in single-process code is legal (and
    # common in analysis scripts); only the worker set is a hazard.
    result = _run(tmp_path, {
        "work/rngs.py": _RNGS,
        "work/solo.py": (
            "from work.rngs import RngRegistry\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    reg = RngRegistry(7)\n"
            "    return [reg.stream(\"jitter\") for c in cells]\n"
        ),
    }, _conc_cfg("work.other.child_main"))
    assert _findings(result, "SL1004") == []


# -- configuration validation (SL001 / exit 2) -------------------------


def test_non_dotted_worker_entrypoint_is_config_error(tmp_path):
    root = _project(tmp_path, {"work/ok.py": "def f(x):\n    return x\n"})
    cfg = _conc_cfg("childmain")
    sink = io.StringIO()
    code = run_lint([root], no_cache=True, no_baseline=True,
                    config=cfg, out=sink.write)
    assert code == 2
    assert "SL001" in sink.getvalue()
    assert "worker entrypoint 'childmain'" in sink.getvalue()


def test_absolute_atomic_write_file_is_config_error(tmp_path):
    root = _project(tmp_path, {"work/ok.py": "def f(x):\n    return x\n"})
    cfg = _conc_cfg("work.ok.f",
                    atomic_write_files=frozenset({"/abs/atomic.py"}))
    sink = io.StringIO()
    code = run_lint([root], no_cache=True, no_baseline=True,
                    config=cfg, out=sink.write)
    assert code == 2
    assert "atomic_write_files entry '/abs/atomic.py'" in sink.getvalue()
