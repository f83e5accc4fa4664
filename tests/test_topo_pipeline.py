"""repro.topo: specs, the generator, compiled arrays, the route cache.

The invariants pinned here are the subsystem's contract (see
``docs/TOPOLOGY.md``):

* a spec's content hash is stable and names the world;
* generation and compilation are pure functions of the spec — two
  *processes* agree on every compiled byte (``content_digest``);
* ITDK export → ingest reproduces the exact compiled arrays;
* the on-disk route cache hits when warm, recomputes when absent, and
  survives (counts, ignores, overwrites) corrupt entries.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TopoError, TopologyError
from repro.net import Node, NodeKind, Topology
from repro.testbed import build_geo_registry, case_study_topo_spec
from repro.topo import (
    CompiledTopology,
    PRESETS,
    RouteCache,
    TopoInstrumentation,
    TopoSpec,
    build_skeleton,
    compile_graph,
    compile_spec,
    export_itdk,
    generate,
    ingest_itdk,
    materialize,
    preset_spec,
)
from repro.topo.compiled import ARRAY_FIELDS
from repro.topo.spec import (
    AsRec,
    LinkRec,
    NodeRec,
    ProviderRec,
    SiteRec,
    TopoGraph,
)

pytestmark = pytest.mark.topo

SMOKE = preset_spec("smoke", seed=0)


class TestSpec:
    def test_content_hash_stable_and_seed_sensitive(self):
        assert SMOKE.content_hash() == preset_spec("smoke", seed=0).content_hash()
        assert SMOKE.content_hash() != preset_spec("smoke", seed=1).content_hash()
        assert SMOKE.tag == f"w{SMOKE.content_hash()[:6]}"

    def test_json_round_trip(self):
        clone = TopoSpec.from_json(SMOKE.to_json())
        assert clone == SMOKE
        assert clone.content_hash() == SMOKE.content_hash()

    def test_rejects_unknown_preset_and_bad_source(self):
        with pytest.raises(TopoError):
            preset_spec("galaxy")
        with pytest.raises(TopoError):
            TopoSpec(name="x", source="telepathic")

    def test_presets_cover_the_scale_ladder(self):
        assert set(PRESETS) == {"smoke", "metro", "internet"}
        stats = generate(preset_spec("internet", seed=7)).stats()
        assert stats["ases"] >= 1000 and stats["sites"] >= 2000


class TestGenerator:
    def test_deterministic(self):
        assert generate(SMOKE) == generate(SMOKE)

    def test_seed_changes_the_graph(self):
        other = generate(preset_spec("smoke", seed=1))
        assert generate(SMOKE) != other

    def test_graph_shape(self):
        g = generate(SMOKE)
        stats = g.stats()
        assert stats["dtns"] == 1 and stats["providers"] == 2
        assert stats["hosts"] > 0 and stats["links"] >= stats["nodes"] - 1


class TestCompiled:
    def test_digest_identical_across_processes(self, tmp_path):
        compiled = compile_spec(SMOKE, routes=True)
        src_dir = Path(__file__).resolve().parent.parent / "src"
        script = (
            "from repro.topo import compile_spec, preset_spec\n"
            "spec = preset_spec('smoke', seed=0)\n"
            "print(compile_spec(spec, routes=True).content_digest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert proc.stdout.strip() == compiled.content_digest()

    def test_save_load_round_trip(self, tmp_path):
        compiled = compile_spec(SMOKE, routes=True)
        path = str(tmp_path / "smoke.npz")
        compiled.save(path)
        clone = CompiledTopology.load(path)
        assert clone.content_digest() == compiled.content_digest()
        assert clone.describe() == compiled.describe()

    def test_to_graph_is_lossless(self):
        compiled = compile_spec(SMOKE, routes=False)
        assert compiled.to_graph() == generate(SMOKE)

    def test_routes_off_means_no_routes(self):
        assert compile_spec(SMOKE, routes=False).n_routes == 0
        assert compile_spec(SMOKE, routes=True).n_routes > 0

    def test_skeleton_carries_no_simulator(self):
        topo, as_graph, policy = build_skeleton(generate(SMOKE))
        assert len(topo.nodes) == generate(SMOKE).stats()["nodes"]
        assert as_graph is not None and policy is not None


# every compiled byte (arrays and resolved routes) of a few presets; a
# route-resolution change that moves any hop, RTT or loss moves these
COMPILED_DIGESTS = [
    ("smoke", 3, "1140d0816473433c34cc72b138cfa89ab5481acba9002a72fadfa0e4b8ca64ff"),
    ("metro", 7, "ef4aaa6565d17a26214973d13a07c9a7d2fbddba9e5b6eb317942ba464f846db"),
    ("metro", 11, "2d1a5c262cfe6c68dceee0b74108b0d98fb66f07114d1cb5d30a5bd3d535126a"),
    # ~1.5 s cold; a regression to per-call link scans makes it minutes
    ("internet", 7, "4f80a4aa58719e1bc18674c4c18fef0fbf0cd7e92dbcb84eda387d7d7f46936c"),
]


@pytest.mark.parametrize("preset,seed,digest", COMPILED_DIGESTS)
def test_compiled_world_golden_digest(preset, seed, digest):
    compiled = compile_spec(preset_spec(preset, seed=seed), routes=True)
    assert compiled.content_digest() == digest


class TestItdkRoundTrip:
    def test_reingested_arrays_are_byte_identical(self, tmp_path):
        graph = generate(SMOKE)
        files = export_itdk(graph, str(tmp_path))
        assert all(Path(f).exists() for f in files)
        spec2 = ingest_itdk(str(tmp_path), name="back")
        graph2 = generate(spec2)
        a = compile_graph(graph, "a", "synthetic", "0" * 64, "wa")
        b = compile_graph(graph2, "b", "explicit", "1" * 64, "wb")
        for field in ARRAY_FIELDS:
            x, y = a[field], b[field]
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field

    def test_ingest_rejects_missing_dir(self, tmp_path):
        with pytest.raises(TopoError):
            ingest_itdk(str(tmp_path / "nope"), name="x")

    def test_negative_igp_cost_is_rejected_when_the_world_is_built(self, tmp_path):
        export_itdk(generate(SMOKE), str(tmp_path))
        links = tmp_path / "itdk.links"
        text = links.read_text()
        assert " igp=1.0 " in text
        links.write_text(text.replace(" igp=1.0 ", " igp=-1 ", 1))
        spec = ingest_itdk(str(tmp_path), name="negative-igp")
        with pytest.raises(TopologyError, match="IGP cost"):
            compile_spec(spec, routes=True)


class TestRouteCache:
    def test_absent_then_hit(self, tmp_path):
        cold = compile_spec(SMOKE, cache_dir=str(tmp_path))
        warm = compile_spec(SMOKE, cache_dir=str(tmp_path))
        cache = RouteCache(str(tmp_path))
        assert cache.load(SMOKE.content_hash()) is not None
        assert cache.hits == 1
        assert warm.content_digest() == cold.content_digest()

    def test_counters_reach_the_metrics_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        obs = TopoInstrumentation(metrics=MetricsRegistry())
        compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert obs.cache_misses.value() == 1.0
        assert obs.cache_hits.value() == 1.0
        assert obs.cache_corrupt.value() == 0.0

    def test_corrupt_payload_is_recomputed_and_healed(self, tmp_path):
        cold = compile_spec(SMOKE, cache_dir=str(tmp_path))
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        Path(cache.payload_path(key)).write_bytes(b"not an npz")
        again = compile_spec(SMOKE, cache_dir=str(tmp_path))
        assert again.content_digest() == cold.content_digest()
        healed = RouteCache(str(tmp_path))
        assert healed.load(key) is not None and healed.hits == 1

    def test_corrupt_sidecar_version_is_rejected(self, tmp_path):
        compile_spec(SMOKE, cache_dir=str(tmp_path))
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        sidecar = Path(cache.sidecar_path(key))
        doc = json.loads(sidecar.read_text())
        doc["version"] = 999
        sidecar.write_text(json.dumps(doc))
        fresh = RouteCache(str(tmp_path))
        assert fresh.load(key) is None and fresh.corrupt == 1

    def test_rejects_non_hex_key(self, tmp_path):
        with pytest.raises(TopoError):
            RouteCache(str(tmp_path)).payload_path("../escape")


class TestMaterialize:
    def test_deterministic_world(self):
        compiled = compile_spec(SMOKE, routes=True)
        w1 = materialize(compiled, seed=3)
        w2 = materialize(compiled, seed=3)
        assert sorted(w1.hosts) == sorted(w2.hosts)
        caps1 = {name: link.capacity_bps for name, link in w1.topology.links.items()}
        caps2 = {name: link.capacity_bps for name, link in w2.topology.links.items()}
        assert caps1 == caps2
        assert len(w1.topology.nodes) == compiled.n_nodes

    def test_case_study_spec_flows_through_the_same_path(self):
        spec = case_study_topo_spec()
        assert spec.source == "explicit"
        assert spec.content_hash() == case_study_topo_spec().content_hash()
        compiled = compile_spec(spec, routes=True)
        world = materialize(compiled, seed=0)
        assert set(world.hosts) == {"ubc", "purdue", "ucla", "umich", "ualberta"}

    def test_pair_unreachable_inside_its_as_is_left_to_on_demand(self):
        """A POP wired only through the ISP cannot be reached inside the
        provider AS; compiling skips that pair instead of failing."""
        graph = TopoGraph(
            sites=(SiteRec("split-pop-campus", "client", 40.0, -100.0),),
            ases=(AsRec(1, "split-campus"), AsRec(2, "split-isp"),
                  AsRec(3, "split-cloud")),
            nodes=(NodeRec("sp-host", "host", 1, "10.1.0.1", site="split-pop-campus"),
                   NodeRec("sp-border", "router", 1, "10.1.0.2"),
                   NodeRec("sp-isp", "router", 2, "10.2.0.1"),
                   NodeRec("sp-edge", "router", 3, "10.3.0.1"),
                   NodeRec("sp-fe1", "host", 3, "10.3.0.2", site="split-pop-campus"),
                   NodeRec("sp-fe2", "host", 3, "10.3.0.3", site="split-pop-campus")),
            links=(LinkRec("sp-host", "sp-border", 1e8, 1e-3),
                   LinkRec("sp-border", "sp-isp", 1e9, 1e-3),
                   LinkRec("sp-isp", "sp-edge", 1e9, 1e-3),
                   LinkRec("sp-edge", "sp-fe1", 1e9, 1e-3),
                   LinkRec("sp-isp", "sp-fe2", 1e9, 1e-3)),
            customers=((2, 1),), peerings=((2, 3),),
            providers=(ProviderRec("split-cloud", "Split", "api.split.example",
                                   "auth.split.example", ("sp-fe1", "sp-fe2"),
                                   "gdrive"),),
            hosts=(("split-pop-campus", "sp-host"),),
        )
        compiled = compile_spec(TopoSpec("split-pop", "explicit", graph=graph))
        assert compiled.route_name_paths() == [
            ["sp-host", "sp-border", "sp-isp", "sp-edge", "sp-fe1"]]
        world = materialize(compiled)
        with pytest.raises(TopologyError):
            world.router.resolve("sp-host", "sp-fe2")


class TestCli:
    def test_generate_inspect_compile_export_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "w.topo.json")
        assert main(["topo", "generate", "--preset", "smoke", "--seed", "0",
                     "-o", spec_path]) == 0
        assert main(["topo", "inspect", spec_path]) == 0
        out = capsys.readouterr().out
        assert SMOKE.content_hash()[:16] in out

        npz_path = str(tmp_path / "w.npz")
        assert main(["topo", "compile", spec_path, "-o", npz_path,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert main(["topo", "inspect", npz_path]) == 0
        out = capsys.readouterr().out
        assert "routes" in out

        snap = str(tmp_path / "snap")
        assert main(["topo", "export", spec_path, "-o", snap]) == 0
        back_path = str(tmp_path / "back.topo.json")
        assert main(["topo", "generate", "--from-itdk", snap,
                     "-o", back_path]) == 0
        back = TopoSpec.from_json(Path(back_path).read_text())
        assert back.source == "explicit"
        assert generate(back).stats() == generate(SMOKE).stats()


class TestSiteValidation:
    def test_unknown_site_gets_nearest_match_hint(self):
        build_geo_registry()
        topo = Topology()
        with pytest.raises(TopologyError, match="did you mean 'ubc'"):
            topo.add_node(Node("n1", NodeKind.HOST, 1, "10.0.0.1",
                               site_name="ubcc"))
