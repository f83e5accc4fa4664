"""Dynamic link failures: rerouting, starvation, RON-style recovery."""

import pytest

from repro.core import BottleneckMonitor, DetourRoute, DirectRoute, MonitoredUpload, PlanExecutor, TransferPlan
from repro.errors import RoutingError
from repro.overlay import ProbeMesh, ResilientOverlay
from repro.testbed import build_case_study
from repro.transfer import FileSpec
from repro.units import mb, mbps


def drive(world, gen):
    proc = world.sim.process(gen)
    world.sim.run_until_triggered(proc.done, horizon=1e7)
    if proc.error:
        raise proc.error
    return proc.result


class TestFailureMechanics:
    def test_failed_link_avoided_by_new_paths(self):
        world = build_case_study(seed=0, cross_traffic=False)
        before = world.router.resolve("ualberta-dtn", "gdrive-frontend")
        assert "google-peer-vncv" in before.nodes
        world.fail_link("canarie-vncv--google-peer-vncv")
        with pytest.raises(RoutingError):
            # CANARIE's only Google peering is gone and the PBR rule does
            # not cover UAlberta prefixes: cleanly unreachable
            world.router.resolve("ualberta-dtn", "gdrive-frontend")

    def test_pbr_falls_through_when_its_egress_dies(self):
        """If the Pacific Wave link dies, UBC's Google traffic falls back
        to the (previously policy-bypassed) direct peering — and gets
        FASTER.  Failures can fix policy artifacts."""
        world = build_case_study(seed=0, cross_traffic=False)
        before = world.router.resolve("ubc-pl", "gdrive-frontend")
        assert "pacwave-sea" in before.nodes
        world.fail_link("canarie-vncv--pacwave-sea")
        after = world.router.resolve("ubc-pl", "gdrive-frontend")
        assert "pacwave-sea" not in after.nodes
        assert "google-peer-vncv" in after.nodes
        assert after.bottleneck_bps > before.bottleneck_bps * 4

    def test_restore_returns_original_path(self):
        world = build_case_study(seed=0, cross_traffic=False)
        world.fail_link("canarie-vncv--pacwave-sea")
        world.restore_link("canarie-vncv--pacwave-sea")
        path = world.router.resolve("ubc-pl", "gdrive-frontend")
        assert "pacwave-sea" in path.nodes

    def test_fail_is_idempotent(self):
        world = build_case_study(seed=0, cross_traffic=False)
        world.fail_link("canarie-vncv--pacwave-sea")
        world.fail_link("canarie-vncv--pacwave-sea")
        world.restore_link("canarie-vncv--pacwave-sea")
        world.restore_link("canarie-vncv--pacwave-sea")

    def test_inflight_flow_starves_then_recovers(self):
        world = build_case_study(seed=0, cross_traffic=False)
        link = world.topology.link("canarie-vncv--canarie-edmn")
        t = world.engine.start_transfer(
            [link.direction_from("canarie-vncv")], mb(100), label="victim")

        def chaos():
            yield 0.1
            world.fail_link(link.name)
            yield 10.0
            world.restore_link(link.name)

        world.sim.process(chaos())
        world.sim.run_until_triggered(t.done, horizon=1e6)
        # 100 MB at ~2 Gbit/s = ~0.4 s normally; the 10 s outage dominates
        result = t.done.value
        assert 10.2 < result.duration_s < 11.0

    def test_failure_traced(self):
        world = build_case_study(seed=0, cross_traffic=False, trace=True)
        world.fail_link("canarie-vncv--pacwave-sea")
        world.restore_link("canarie-vncv--pacwave-sea")
        kinds = [e.kind for e in world.tracer.filter(component="net.topology")]
        assert kinds == ["link_down", "link_up"]


class TestRonRecovery:
    def test_probe_records_dead_route_as_unreachable(self):
        """The CANARIE-Internet2 peering dies: UBC -> UMich becomes
        unroutable; the mesh records it as down instead of crashing."""
        world = build_case_study(seed=0, cross_traffic=False)
        mesh = ProbeMesh(world, ["ubc-pl", "umich-pl"],
                         probe_bytes=int(mb(1)), alpha=1.0)
        drive(world, mesh.probe_round())
        assert mesh.estimate("ubc-pl", "umich-pl").bandwidth_bps > mbps(2)

        world.fail_link("canarie-vncv--i2-seattle")
        drive(world, mesh.probe_pair("ubc-pl", "umich-pl"))
        assert mesh.estimate("ubc-pl", "umich-pl").bandwidth_bps == 0.0

    def test_overlay_relays_around_bgp_unreachability(self):
        """RON's founding scenario: after a failure, BGP offers *no* path
        between two members (no valley-free route remains), but a relay
        through a third member restores connectivity."""
        from repro.testbed import WorldBuilder
        from repro.units import ms

        b = WorldBuilder(seed=0)
        b.add_site("ron-a", 40.0, -100.0, "A-ville")
        b.add_site("ron-b", 42.0, -90.0, "B-town")
        b.add_site("ron-c", 44.0, -95.0, "C-burg")
        t1 = b.autonomous_system("ron-t1")
        t2 = b.autonomous_system("ron-t2")
        a = b.autonomous_system("ron-as-a")
        bb = b.autonomous_system("ron-as-b")
        c = b.autonomous_system("ron-as-c")
        b.customer(t1, a).customer(t2, a)
        b.customer(t1, bb)
        b.customer(t1, c).customer(t2, c)
        b.router("t1-core", t1, site="ron-a")
        b.router("t2-core", t2, site="ron-c")
        b.campus("ron-a", a, access_bps=mbps(50))
        b.campus("ron-b", bb, access_bps=mbps(50))
        b.campus("ron-c", c, access_bps=mbps(50))
        b.link("ron-a-border", "t1-core", mbps(1000), ms(2))
        b.link("ron-a-border", "t2-core", mbps(1000), ms(3))
        b.link("ron-b-border", "t1-core", mbps(1000), ms(2))
        b.link("ron-c-border", "t1-core", mbps(1000), ms(2))
        b.link("ron-c-border", "t2-core", mbps(1000), ms(2))
        world = b.build()

        mesh = ProbeMesh(world, ["ron-a-host", "ron-b-host", "ron-c-host"],
                         probe_bytes=int(mb(1)), alpha=1.0)
        ron = ResilientOverlay(mesh)
        drive(world, mesh.probe_round())
        assert ron.select_path("ron-a-host", "ron-b-host", int(mb(20))).is_direct

        # A's T1 uplink dies; T1 and T2 do not peer, so BGP has NOTHING
        world.fail_link("ron-a-border--t1-core")
        with pytest.raises(RoutingError):
            world.router.resolve("ron-a-host", "ron-b-host")

        drive(world, mesh.probe_round())
        path = ron.select_path("ron-a-host", "ron-b-host", int(mb(20)))
        assert path.relay == "ron-c-host"  # C is dual-homed: the relay works
        _, elapsed = drive(world, ron.send("ron-a-host", "ron-b-host",
                                           FileSpec("ron.bin", int(mb(20)))))
        assert elapsed < 30  # connectivity restored at real bandwidth

    def test_monitored_upload_survives_detour_failure(self):
        """The bottleneck monitor aborts a stalled segment (timeout),
        declares the detour dead, and finishes on the direct route."""
        world = build_case_study(seed=0, cross_traffic=False)
        monitor = BottleneckMonitor(world, "ubc", "gdrive", ("ualberta",),
                                    probe_bytes=int(mb(1)), alpha=1.0)
        upload = MonitoredUpload(monitor, segment_bytes=int(mb(10)),
                                 switch_threshold=1.2, segment_timeout_s=60.0)

        def chaos():
            # wait until a detour segment's rsync leg is actually in
            # flight, then kill the Edmonton link under it: the flow
            # stalls at the residual rate until the timeout fires
            while True:
                yield 0.5
                inflight = any(
                    t.label.startswith("rsync:") and "big.bin" in t.label
                    for t in world.engine.active_transfers()
                )
                if inflight and world.sim.now > 20.0:
                    world.fail_link("canarie-vncv--canarie-edmn")
                    return

        world.sim.process(chaos())
        result = drive(world, upload.run(FileSpec("big.bin", int(mb(80)))))
        assert result.routes_used[0] == "via ualberta"
        assert result.routes_used[-1] == "direct"
        assert any(not seg.completed for seg in result.segments)
        completed_bytes = sum(s.size_bytes for s in result.segments if s.completed)
        assert completed_bytes == mb(80)
        # finished in plausible time despite the mid-flight failure
        assert result.total_s < 300
        # and the engine is clean: no leaked starving flows
        leftovers = [t for t in world.engine.active_transfers()
                     if "big.bin" in t.label]
        assert leftovers == []
