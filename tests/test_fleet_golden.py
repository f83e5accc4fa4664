"""Pinned end-to-end results: fleet runs and link-failure rates, bit for bit.

The digests below are sha256 over the canonical JSON of
``FleetResult.to_dict()``, recorded before content digests stopped
hashing file bytes and before the max-min allocator moved to interned
resource indices.  Neither change may move a simulated number, so these
stay fixed; a legitimate model change that moves them must say so and
re-pin them.

* broker mode on the calibrated case study, cross traffic on, lognormal
  40 MB files — covers detours, DTN staging and relay commits;
* direct mode on the generated ``metro`` preset — covers many
  overlapping flows on a compiled world;
* the same world under the fleet of one perfbench ``metro-fleet``
  iteration (30 sites, 4 uploads each) — dense enough overlap that many
  flows keep their rate across reallocations.  It was re-pinned when
  the engine began keeping completion events whose rate did not change:
  12 of its 120 durations moved, by at most 4.1e-14 relative (the old
  digest was ``f058a0e7…``);
* a link failing and recovering mid-transfer — covers the engine's
  cached capacities being refreshed.

The broker and busy metro digests were re-pinned again when the engine
began re-filling only the saturated component a change reaches, against
the capacity the flows outside it leave: a component's fill sums only
its own increments, so rates move by rounding.  Against a full re-fill
of every flow in flight, 12 floats of the busy metro fleet moved, by at
most 1.9e-15 relative, and 1 float of the broker fleet, by 1.6e-16; no
route, count or fate moved, and the direct metro digest did not move.
The full re-fill, run on the frozen original allocator, still gives the
old digests byte for byte (``FULL_REFILL_*``), and the live fleets must
match it to within 1e-12 relative on every float.

They were re-pinned once more when the engine stopped crediting every
flow's progress on every event and began crediting a flow only when its
rate changes and when its completion fires: one long step in place of
several short ones rounds differently.  8 floats of the busy metro fleet
moved, by at most 4.1e-14 relative, and 2 of the broker fleet, by at
most 2.2e-16 (the old digests were ``ad5bdc63…`` and ``bb7dfc0b…``); no
route, count or fate moved, and the direct metro digest did not move.
The full re-fill credits every flow before each rebalance and completion
again, with the original ``_drain_all`` kept in
``tests/engine_reference.py``, so ``FULL_REFILL_*`` did not move.
"""

import hashlib
import json

import pytest

from repro.broker import BrokerConfig, BrokerSweepSpec, FleetCell, run_fleet
from repro.broker.directory import DirectoryEntry, DirectorySnapshot
from repro.campaign.spec import CampaignCell
from repro.net import NetworkEngine, engine as engine_module
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.sim import Simulator
from repro.shard import ShardPlan
from repro.testbed.build import case_study_topo_spec
from repro.topo import TopoSpec, generate, preset_spec
from repro.units import mb, mbps, ms
from repro.workloads import sample_sites
from tests.engine_reference import ReferenceNetworkEngine
from tests.maxmin_reference import reference_max_min_allocation

pytestmark = [pytest.mark.broker, pytest.mark.topo]

BROKER_CASE_STUDY_DIGEST = (
    "0c44dfc71bd82a31efaed9eade99d8a540e1f4c951bcdf40de344b012782ea81")
DIRECT_METRO_DIGEST = (
    "d8ae441d9c01da1d7a8bc2283de39dd45424e6ea02cc792af72f4b59a0f9237b")
BUSY_METRO_DIGEST = (
    "828802ff84397d39e024be2b22acab47d06b0a224f1e9233255217270ad387b1")
#: the same two fleets when every rebalance and estimate re-fills every
#: flow in flight and every flow's progress is credited eagerly (see
#: ``_full_refill``)
FULL_REFILL_BROKER_CASE_STUDY_DIGEST = (
    "0db262e2a9787a8b7f75f3663e86db831526b2fcd4c39888b50966cca1b00ad7")
FULL_REFILL_BUSY_METRO_DIGEST = (
    "0b493bd27085465094b53539a62a0f1c185303ceb877d2133c8366b8e48a96d8")


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _digest(result) -> str:
    return hashlib.sha256(_canonical(result).encode()).hexdigest()


def _broker_case_study_fleet():
    return run_fleet(3, ("ubc", "purdue", "ucla"), provider="gdrive",
                     n_uploads_per_site=3, mean_interarrival_s=60.0,
                     mean_size_mb=40.0, size_dist="lognormal",
                     mode="broker", cross_traffic=True)


def test_broker_fleet_on_case_study():
    result = _broker_case_study_fleet()
    routes = {r.route_descr for r in result.records}
    assert routes == {"direct", "via ualberta"}
    assert _digest(result) == BROKER_CASE_STUDY_DIGEST


def test_direct_fleet_on_metro_preset():
    spec = preset_spec("metro", seed=7)
    sites = sample_sites(generate(spec).populations, 6, seed=1)
    result = run_fleet(1, sites, provider="gdrive", n_uploads_per_site=2,
                       mean_interarrival_s=20.0, mean_size_mb=100.0,
                       size_dist="fixed", mode="direct", topo=spec)
    assert len(result.records) == 12
    assert _digest(result) == DIRECT_METRO_DIGEST


def _busy_metro_fleet():
    spec = preset_spec("metro", seed=7)
    sites = sample_sites(generate(spec).populations, 30, seed=0)
    return run_fleet(0, sites, provider="gdrive", n_uploads_per_site=4,
                     mean_interarrival_s=20.0, mean_size_mb=100.0,
                     size_dist="fixed", mode="direct", topo=spec)


def test_busy_direct_fleet_on_metro_preset():
    result = _busy_metro_fleet()
    assert len(result.records) == 120
    assert _digest(result) == BUSY_METRO_DIGEST


def _full_refill(monkeypatch):
    """Make every rebalance and estimate re-fill every flow in flight
    against the raw capacities, on the frozen original allocator, and
    credit every flow's progress before each rebalance and completion
    (the original ``_drain_all``): the engine as it was before it re-filled
    only the saturated component a change reaches."""
    refill = NetworkEngine._refill
    monkeypatch.setattr(
        NetworkEngine, "_refill", lambda self, seeds, phantom=None: refill(
            self, list(self._flows.values()), phantom))
    monkeypatch.setattr(engine_module, "max_min_allocation",
                        reference_max_min_allocation)
    drain_all = ReferenceNetworkEngine._drain_all
    rebalance, complete = NetworkEngine._rebalance, NetworkEngine._complete

    def drained_rebalance(self):
        drain_all(self)
        rebalance(self)

    def drained_complete(self, transfer):
        # the original drained only a completion it went on to handle
        if not transfer.finished and transfer.flow_id in self._flows:
            drain_all(self)
        complete(self, transfer)

    monkeypatch.setattr(NetworkEngine, "_rebalance", drained_rebalance)
    monkeypatch.setattr(NetworkEngine, "_complete", drained_complete)


def test_busy_metro_fleet_matches_reference_allocator(monkeypatch):
    """The engine's allocator is the live one, so the engine oracle
    (``tests/engine_reference.py``) cannot see allocator drift.  Here the
    whole fleet runs once more on a full re-fill with the frozen original
    allocator, which indexes ``capacities_bps[r]`` and so takes the
    engine's capacities as they are: every simulated number must match
    the digest of the engine before component re-fills, bit for bit."""
    _full_refill(monkeypatch)
    assert _digest(_busy_metro_fleet()) == FULL_REFILL_BUSY_METRO_DIGEST


def test_broker_fleet_matches_reference_allocator(monkeypatch):
    _full_refill(monkeypatch)
    assert _digest(_broker_case_study_fleet()) == \
        FULL_REFILL_BROKER_CASE_STUDY_DIGEST


def _assert_close(live, full, path="result"):
    """*live* equals *full* exactly, except floats, to 1e-12 relative."""
    if isinstance(full, float):
        assert live == pytest.approx(full, rel=1e-12, abs=0.0), path
    elif isinstance(full, dict):
        assert list(live) == list(full), path
        for k in full:
            _assert_close(live[k], full[k], f"{path}.{k}")
    elif isinstance(full, list):
        assert len(live) == len(full), path
        for i, (a, b) in enumerate(zip(live, full)):
            _assert_close(a, b, f"{path}[{i}]")
    else:
        assert type(live) is type(full) and live == full, path


@pytest.mark.parametrize("fleet", [_busy_metro_fleet, _broker_case_study_fleet],
                         ids=["busy-metro", "broker-case-study"])
def test_component_refill_matches_full_refill(fleet, monkeypatch):
    live = fleet().to_dict()
    with monkeypatch.context() as m:
        _full_refill(m)
        full = fleet().to_dict()
    _assert_close(live, full)


def test_link_failure_mid_transfer_rates():
    """h1 and h2 share mid--dst (50 Mbps jittered to 45); h2's flow is
    capped at 20 Mbps.  h2--mid fails at t=2 s and recovers at t=4 s."""
    topo = Topology()
    for i, name in enumerate(("h1", "h2", "mid", "dst")):
        kind = NodeKind.ROUTER if name == "mid" else NodeKind.HOST
        topo.add_node(Node(name, kind, 1, f"10.0.0.{i + 1}"))
    topo.add_link(Link("h1", "mid", capacity_bps=mbps(100), delay_s=ms(1)))
    topo.add_link(Link("h2", "mid", capacity_bps=mbps(30), delay_s=ms(1)))
    topo.add_link(Link("mid", "dst", capacity_bps=mbps(50), delay_s=ms(1)))
    sim = Simulator()
    engine = NetworkEngine(sim, topo, capacity_scale={"mid--dst": 0.9})
    a = engine.start_transfer(topo.path_directions(["h1", "mid", "dst"]), mb(40))
    b = engine.start_transfer(topo.path_directions(["h2", "mid", "dst"]), mb(40),
                              ceiling_bps=mbps(20))
    seen = []

    def set_failed(failed):
        topo.link("h2--mid").failed = failed
        engine.on_link_state_change("h2--mid")
        seen.append((sim.now, a.rate_bps, b.rate_bps))

    sim.schedule(2.0, lambda: set_failed(True))
    sim.schedule(4.0, lambda: set_failed(False))
    sim.run()
    assert seen == [(2.0, 44999999.0, 1.0), (4.0, 25000000.0, 20000000.0)]
    assert a.done.value.end_time == 11.200000079999999
    assert b.done.value.end_time == 17.9999999


# -- golden content keys -----------------------------------------------------
#
# Every content-derived name the broker persists under: campaign cell
# keys, shard cell keys and plan keys, published site-report names,
# directory snapshot hashes, and world hashes.  Stored campaign records
# and published artifacts are found again only by these names, so a
# refactor of how identities are built must leave every byte in place.
# Each key is checked twice: computed on the live object, and computed
# again after the identity went through a JSON round trip and was
# revived (the path a resumed campaign or a merge takes).

SMOKE = preset_spec("smoke", seed=0)
SMOKE_SITES = ("w9aca80-c0000", "w9aca80-c0001", "w9aca80-c0002")
CASE_SITES = ("ubc", "purdue", "ucla")
WARM = DirectorySnapshot((DirectoryEntry(
    client_site="ubc", provider_name="gdrive", size_class="le64MB",
    route_descr="via ualberta", installed_s=10.0, expires_s=3610.0,
    source="probe"),))


def _round_trip(payload):
    return json.loads(json.dumps(payload))


def _cell_keys(cell):
    revived = type(cell).from_identity(_round_trip(cell.identity()))
    return cell.key, revived.key


def _sweep_cell(mode):
    cells = BrokerSweepSpec(config=BrokerConfig()).expand()
    return next(c for c in cells if c.mode == mode)


def _plan(world):
    if world == "smoke":
        return ShardPlan(sites=SMOKE_SITES, n_shards=2,
                         config=BrokerConfig(), topo=SMOKE)
    return ShardPlan(sites=CASE_SITES, n_shards=2, config=BrokerConfig())


def _shard_cell(world, shard_index, mode):
    cells = _plan(world).expand(warm=WARM)
    return next(c for c in cells
                if c.shard_index == shard_index and c.mode == mode)


def _plan_keys(world):
    plan = _plan(world)
    return plan.plan_key, ShardPlan.from_dict(
        _round_trip(plan.canonical_dict())).plan_key


def _report_names(world, site, mode):
    plan = _plan(world)
    revived = ShardPlan.from_dict(_round_trip(plan.canonical_dict()))
    warm_hash = WARM.content_hash()[:24]
    return (plan.site_report_name(site, mode, warm_hash),
            revived.site_report_name(site, mode, warm_hash))


def _snapshot_hashes(snapshot):
    revived = DirectorySnapshot.from_dict(_round_trip(snapshot.to_dict()))
    return snapshot.content_hash(), revived.content_hash()


def _topo_hashes(spec):
    revived = TopoSpec.from_dict(_round_trip(spec.canonical_dict()))
    return spec.content_hash(), revived.content_hash()


_KEY_BUILDERS = {
    "campaign-cell": lambda: _cell_keys(
        CampaignCell("ubc", "gdrive", "via ualberta", 100.0, seed=2)),
    "fleet/direct": lambda: _cell_keys(_sweep_cell("direct")),
    "fleet/static:via ualberta": lambda: _cell_keys(
        _sweep_cell("static:via ualberta")),
    "fleet/static:via umich": lambda: _cell_keys(
        _sweep_cell("static:via umich")),
    "fleet/broker": lambda: _cell_keys(_sweep_cell("broker")),
    "fleet/smoke-broker": lambda: _cell_keys(FleetCell(
        sites=SMOKE_SITES[:2], provider="gdrive", mode="broker",
        n_uploads_per_site=3, mean_interarrival_s=60.0, mean_size_mb=10.0,
        cross_traffic=False, config=BrokerConfig(), topo=SMOKE)),
    "shard/case-study/0/direct": lambda: _cell_keys(
        _shard_cell("case-study", 0, "direct")),
    "shard/case-study/0/broker": lambda: _cell_keys(
        _shard_cell("case-study", 0, "broker")),
    "shard/case-study/1/direct": lambda: _cell_keys(
        _shard_cell("case-study", 1, "direct")),
    "shard/case-study/1/broker": lambda: _cell_keys(
        _shard_cell("case-study", 1, "broker")),
    "shard/smoke/0/direct": lambda: _cell_keys(
        _shard_cell("smoke", 0, "direct")),
    "shard/smoke/0/broker": lambda: _cell_keys(
        _shard_cell("smoke", 0, "broker")),
    "shard/smoke/1/direct": lambda: _cell_keys(
        _shard_cell("smoke", 1, "direct")),
    "shard/smoke/1/broker": lambda: _cell_keys(
        _shard_cell("smoke", 1, "broker")),
    "plan/case-study": lambda: _plan_keys("case-study"),
    "plan/smoke": lambda: _plan_keys("smoke"),
    "report/case-study/ubc/broker": lambda: _report_names(
        "case-study", "ubc", "broker"),
    "report/case-study/ucla/direct": lambda: _report_names(
        "case-study", "ucla", "direct"),
    "report/smoke/broker": lambda: _report_names(
        "smoke", SMOKE_SITES[0], "broker"),
    "snapshot/empty": lambda: _snapshot_hashes(DirectorySnapshot()),
    "snapshot/one-entry": lambda: _snapshot_hashes(WARM),
    "topo/smoke": lambda: _topo_hashes(SMOKE),
    "topo/case-study": lambda: _topo_hashes(case_study_topo_spec()),
}

GOLDEN_KEYS = {
    "campaign-cell": "8fe32882979b42da8101f1a6",
    "fleet/broker": "6c544d07b85a408a0a64cba4",
    "fleet/direct": "fae6092eccb35bc5a29e9a02",
    "fleet/smoke-broker": "8501145200684af1d881374a",
    "fleet/static:via ualberta": "34091305071a10ff453373dd",
    "fleet/static:via umich": "657d74429cae5f8ad7c2cb20",
    "plan/case-study": "daeb86fd9e5efb0b30a42a1b",
    "plan/smoke": "6592f1943a4a282e84a4560c",
    "report/case-study/ubc/broker": "site-d8f9960be0a1d645923152fb",
    "report/case-study/ucla/direct": "site-d3e4ee427beddf652a48cdd4",
    "report/smoke/broker": "site-cfd66c427663dfa6b95b71e7",
    "shard/case-study/0/broker": "c9cadccd58ed139dc8b13164",
    "shard/case-study/0/direct": "7c0b62f3bac4e3fde9b4854e",
    "shard/case-study/1/broker": "e53e0b3f72bc2a8f08566bd4",
    "shard/case-study/1/direct": "ee6b0c7bffd13a7e4cb1959b",
    "shard/smoke/0/broker": "e823ae08f6ba5dfa3b1539cf",
    "shard/smoke/0/direct": "1ebb38a7886b99f0af437a21",
    "shard/smoke/1/broker": "a1f0a9433197829dc8378f6a",
    "shard/smoke/1/direct": "243b4615424e1d95b9dbd048",
    "snapshot/empty":
        "a6a20076da005b27c9afc3a5d5b2457798c0ac817d1abc38b2fee4398ac3f133",
    "snapshot/one-entry":
        "85fb1d744091b3f01b79448752e8b600fd5cd4a8c93723843285c780308f0083",
    "topo/case-study":
        "c34c3eedca0c748e36c5af327f53bca30f5f5006a392e4583dc9ce6540de7d3f",
    "topo/smoke":
        "9aca806c544f9428a59cd82922c41b8be809be38b456f2b1bce01df02183bdf8",
}


def test_golden_table_covers_every_builder():
    assert sorted(GOLDEN_KEYS) == sorted(_KEY_BUILDERS)


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_golden_content_key(name):
    key, revived_key = _KEY_BUILDERS[name]()
    assert key == GOLDEN_KEYS[name]
    assert revived_key == GOLDEN_KEYS[name]
