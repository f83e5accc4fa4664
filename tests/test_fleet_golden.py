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
* a link failing and recovering mid-transfer — covers the engine's
  cached capacities being refreshed.
"""

import hashlib
import json

import pytest

from repro.broker import run_fleet
from repro.net import NetworkEngine
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.sim import Simulator
from repro.topo import generate, preset_spec
from repro.units import mb, mbps, ms
from repro.workloads import sample_sites

pytestmark = [pytest.mark.broker, pytest.mark.topo]

BROKER_CASE_STUDY_DIGEST = (
    "0db262e2a9787a8b7f75f3663e86db831526b2fcd4c39888b50966cca1b00ad7")
DIRECT_METRO_DIGEST = (
    "d8ae441d9c01da1d7a8bc2283de39dd45424e6ea02cc792af72f4b59a0f9237b")


def _digest(result) -> str:
    canonical = json.dumps(result.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_broker_fleet_on_case_study():
    result = run_fleet(3, ("ubc", "purdue", "ucla"), provider="gdrive",
                       n_uploads_per_site=3, mean_interarrival_s=60.0,
                       mean_size_mb=40.0, size_dist="lognormal",
                       mode="broker", cross_traffic=True)
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
