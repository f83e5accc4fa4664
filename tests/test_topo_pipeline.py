"""repro.topo: specs, the generator, compiled arrays, the route cache.

The invariants pinned here are the subsystem's contract (see
``docs/TOPOLOGY.md``):

* a spec's content hash is stable and names the world;
* generation and compilation are pure functions of the spec — two
  *processes* agree on every compiled byte (``content_digest``);
* ITDK export → ingest reproduces the exact compiled arrays;
* the on-disk cache serves the whole compiled world when warm,
  recompiles when absent, and survives (counts, ignores, overwrites)
  corrupt or foreign entries.
"""

import hashlib
import json
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import DirectRoute, PlanExecutor, TransferPlan
from repro.core.identity import canonical_json
from repro.errors import RoutingError, TopoError, TopologyError
from repro.net import Node, NodeKind, Topology
from repro.obs.metrics import MetricsRegistry
from repro.testbed import build_case_study, build_geo_registry, case_study_topo_spec
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
from repro.transfer import FileSpec
from repro.units import mb

pytestmark = pytest.mark.topo

SMOKE = preset_spec("smoke", seed=0)

#: sha256 of metro/7's generated graph (canonical JSON), as generated
#: with every stream seeded by its own ``np.random.default_rng``.
METRO_7_GRAPH_DIGEST = \
    "5e5dd4ddfb587ed6bf8f4b32407df61a4a4fc49bd4b455006b376c73aed11bef"


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

    def test_streams_are_batch_seeded_with_the_same_draws(self, monkeypatch):
        """No stream is seeded one at a time, and the graph is the one
        per-stream seeding produced (digest taken before batch seeding)."""
        scalar_calls = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            scalar_calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        graph = generate(preset_spec("metro", seed=7))
        assert scalar_calls == []
        assert hashlib.sha256(canonical_json(graph.to_dict()).encode()) \
            .hexdigest() == METRO_7_GRAPH_DIGEST


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

    def test_truncated_file_raises_topo_error(self, tmp_path):
        path = tmp_path / "smoke.npz"
        compile_spec(SMOKE, routes=True).save(str(path))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(TopoError, match="cannot load"):
            CompiledTopology.load(str(path))

    def test_flipped_header_byte_raises_topo_error(self, tmp_path):
        path = tmp_path / "smoke.npz"
        compile_spec(SMOKE, routes=True).save(str(path))
        blob = bytearray(path.read_bytes())
        second_member = blob.index(b"PK\x03\x04", 4)
        blob[second_member + 3] ^= 0xFF  # its local header's magic number
        path.write_bytes(bytes(blob))
        with pytest.raises(TopoError, match="cannot load"):
            CompiledTopology.load(str(path))

    def test_level_1_payload_round_trips_in_savez_layout(self, tmp_path):
        compiled = compile_spec(SMOKE, routes=True)
        path = tmp_path / "smoke.npz"
        compiled.save(str(path))
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == \
            ["__meta__.npy"] + [f"{key}.npy" for key in compiled.arrays]
        assert {i.compress_type for i in infos} == {zipfile.ZIP_DEFLATED}
        clone = CompiledTopology.load(str(path))
        assert clone.content_digest() == compiled.content_digest()

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


# every compiled byte (arrays and resolved routes) of a few worlds; a
# route-resolution change that moves any hop, RTT or loss moves these
COMPILED_DIGESTS = [
    ("smoke-3", lambda: preset_spec("smoke", seed=3),
     "1140d0816473433c34cc72b138cfa89ab5481acba9002a72fadfa0e4b8ca64ff"),
    ("metro-7", lambda: preset_spec("metro", seed=7),
     "ef4aaa6565d17a26214973d13a07c9a7d2fbddba9e5b6eb317942ba464f846db"),
    ("metro-11", lambda: preset_spec("metro", seed=11),
     "2d1a5c262cfe6c68dceee0b74108b0d98fb66f07114d1cb5d30a5bd3d535126a"),
    # ~1 s cold; a regression to per-call link scans makes it minutes
    ("internet-7", lambda: preset_spec("internet", seed=7),
     "4f80a4aa58719e1bc18674c4c18fef0fbf0cd7e92dbcb84eda387d7d7f46936c"),
    # the only world with PBR rules (CANARIE Vancouver); 21 routes
    ("case-study", case_study_topo_spec,
     "ad7c77b19b05586a4b2fb7c4fbf6c26ac05fa2801782602da6a4b49db787a63f"),
]


@pytest.mark.parametrize("make_spec,digest,warm", [
    pytest.param(make_spec, digest, warm,
                 id=f"{name}-{digest}" + ("-warm" if warm else ""))
    for name, make_spec, digest in COMPILED_DIGESTS for warm in (False, True)])
def test_compiled_world_golden_digest(make_spec, digest, warm, tmp_path):
    """Cold, and served warm from a disk cache the cold compile filled."""
    spec = make_spec()
    if warm:
        obs = TopoInstrumentation(metrics=MetricsRegistry())
        compile_spec(spec, cache_dir=str(tmp_path), instrumentation=obs)
        compiled = compile_spec(spec, cache_dir=str(tmp_path),
                                instrumentation=obs)
        assert obs.cache_hits.value() == 1.0
    else:
        compiled = compile_spec(spec, routes=True)
    assert compiled.content_digest() == digest


@pytest.mark.parametrize("make_spec,computed,reused,joined", [
    # 3 024 routes, 3 014 of them ending on a remembered suffix
    pytest.param(lambda: preset_spec("metro", seed=7), 3_011, 3_408, 3_014,
                 id="metro-7"),
    # its PBR routers decide per packet source, never from the memo, and
    # end the suffixes remembered behind them
    pytest.param(case_study_topo_spec, 111, 22, 16, id="case-study"),
])
def test_routes_phase_counts_next_hop_decisions(make_spec, computed, reused,
                                                joined, tmp_path):
    """Exact counts, published once per routes phase (none when warm)."""
    obs = TopoInstrumentation(metrics=MetricsRegistry())
    for _ in range(2):
        compile_spec(make_spec(), cache_dir=str(tmp_path), instrumentation=obs)
    assert obs.next_hops.value(kind="computed") == computed
    assert obs.next_hops.value(kind="reused") == reused
    assert obs.next_hops.value(kind="joined") == joined


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

    def test_disk_hit_runs_no_compile_phase(self, tmp_path):
        compile_spec(SMOKE, cache_dir=str(tmp_path))
        obs = TopoInstrumentation(metrics=MetricsRegistry())
        warm = compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert obs.cache_hits.value() == 1.0
        assert obs.phases_total.total() == 0.0
        assert warm.n_routes > 0

    def test_version_1_route_only_entry_is_recompiled_then_served(self, tmp_path):
        cold = compile_spec(SMOKE, routes=True)
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        # the entry a version-1 cache wrote: the two route arrays only
        payload = cache.payload_path(key)
        np.savez_compressed(payload, route_indptr=cold["route_indptr"],
                            route_node=cold["route_node"])
        Path(cache.sidecar_path(key)).write_text(json.dumps({
            "version": 1, "key": key,
            "sha256": hashlib.sha256(Path(payload).read_bytes()).hexdigest()}))

        obs = TopoInstrumentation(metrics=MetricsRegistry())
        healed = compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert (obs.cache_corrupt.value(), obs.cache_hits.value()) == (1.0, 0.0)
        assert healed.content_digest() == cold.content_digest()
        served = compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert (obs.cache_corrupt.value(), obs.cache_hits.value()) == (1.0, 1.0)
        assert served.content_digest() == cold.content_digest()

    def test_level_6_entry_of_an_older_writer_is_a_hit(self, tmp_path):
        cold = compile_spec(SMOKE, routes=True)
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        # the entry the np.savez_compressed writer left: same members,
        # same sidecar, deflated at level 6
        payload = cache.payload_path(key)
        np.savez_compressed(
            payload, __meta__=np.array([canonical_json(dict(cold.meta))]),
            **cold.arrays)
        Path(cache.sidecar_path(key)).write_text(json.dumps({
            "version": 2, "key": key,
            "sha256": hashlib.sha256(Path(payload).read_bytes()).hexdigest()},
            sort_keys=True))

        obs = TopoInstrumentation(metrics=MetricsRegistry())
        served = compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert (obs.cache_hits.value(), obs.cache_corrupt.value()) == (1.0, 0.0)
        assert served.content_digest() == cold.content_digest()

    def test_payload_of_another_spec_is_rejected(self, tmp_path):
        other = preset_spec("smoke", seed=1)
        cache = RouteCache(str(tmp_path))
        cache.store(SMOKE.content_hash(), compile_spec(other, routes=True))
        assert cache.load(SMOKE.content_hash()) is None and cache.corrupt == 1

    def test_case_study_world_is_the_same_with_and_without_a_cache(self, tmp_path):
        dirless = _world_fingerprint(build_case_study(seed=4))
        cold = _world_fingerprint(build_case_study(seed=4, cache_dir=str(tmp_path)))
        warm = _world_fingerprint(build_case_study(seed=4, cache_dir=str(tmp_path)))
        assert RouteCache(str(tmp_path)).load(case_study_topo_spec().content_hash())
        assert dirless == cold == warm

    def test_dirless_compiles_share_one_instance(self):
        spec = case_study_topo_spec()
        assert compile_spec(spec) is compile_spec(case_study_topo_spec())


def _world_fingerprint(world):
    """Links with their jittered capacities, host-pair paths, and one
    upload's time under cross traffic."""
    lines = [f"{name} {link.capacity_bps!r} {link.delay_s!r} {link.loss!r}"
             for name, link in world.topology.links.items()]
    hosts = sorted(n.name for n in world.topology.nodes.values() if n.is_host)
    for src in hosts:
        for dst in hosts:
            try:
                lines.append(" ".join(world.router.resolve(src, dst).nodes))
            except (RoutingError, TopologyError):
                lines.append(f"{src} {dst} unreachable")
    result = PlanExecutor(world).run(TransferPlan(
        "ubc", "gdrive", FileSpec("f.bin", int(mb(20))), DirectRoute()))
    lines.append(repr(result.total_s))
    return "\n".join(lines)


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
