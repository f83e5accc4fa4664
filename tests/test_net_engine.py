"""Flow engine: fluid transfers, sharing dynamics, cancellation, and
tolerance oracles against a full max-min re-fill and against the original
reschedule-everything engine."""

from collections.abc import Mapping
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import TransferError
from repro.net import NetworkEngine
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.obs import KernelProfiler, MetricsRegistry
from repro.sim import Simulator, Tracer
from repro.units import mb, mbps, ms
from tests.engine_reference import ReferenceNetworkEngine, ReferenceResidualEngine


def line_topology():
    """host1 -- mid -- host2 with a 10 Mbps middle link."""
    topo = Topology()
    topo.add_node(Node("h1", NodeKind.HOST, 1, "10.0.0.1"))
    topo.add_node(Node("mid", NodeKind.ROUTER, 1, "10.0.0.2"))
    topo.add_node(Node("h2", NodeKind.HOST, 1, "10.0.0.3"))
    topo.add_link(Link("h1", "mid", capacity_bps=mbps(100), delay_s=ms(1)))
    topo.add_link(Link("mid", "h2", capacity_bps=mbps(10), delay_s=ms(1)))
    return topo


def dirs(topo, *hops):
    return topo.path_directions(list(hops))


class TestSingleFlow:
    def test_transfer_time_matches_bottleneck(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        sim.run()
        result = t.done.value
        # 10 MB at 10 Mbps = 8 s
        assert result.duration_s == pytest.approx(8.0)
        assert result.mean_rate_bps == pytest.approx(mbps(10))

    def test_ceiling_limits_rate(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10), ceiling_bps=mbps(2))
        sim.run()
        assert t.done.value.duration_s == pytest.approx(40.0)

    def test_startup_deficit_extends_duration(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        t = engine.start_transfer(
            dirs(topo, "h1", "mid", "h2"), mb(10), startup_deficit_bytes=mb(1)
        )
        sim.run()
        assert t.done.value.duration_s == pytest.approx(8.8)

    def test_invalid_requests(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        with pytest.raises(TransferError):
            engine.start_transfer(dirs(topo, "h1", "mid"), 0)
        with pytest.raises(TransferError):
            engine.start_transfer([], mb(1))
        with pytest.raises(TransferError):
            engine.start_transfer(dirs(topo, "h1", "mid"), mb(1), startup_deficit_bytes=-1)
        with pytest.raises(TransferError):
            engine.estimate_rate([])

    def test_result_fields(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        sim.schedule(5.0, lambda: engine.start_transfer(
            dirs(topo, "h1", "mid", "h2"), mb(1), label="probe"))
        sim.run()
        # find via trace? use active_transfers before completion instead:
        # simpler: re-run with direct handle
        sim2 = Simulator()
        engine2 = NetworkEngine(sim2, topo)
        t = engine2.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1), label="probe")
        sim2.run()
        r = t.done.value
        assert r.label == "probe"
        assert r.start_time == 0.0
        assert r.nbytes == mb(1)


class TestSharing:
    def test_two_flows_halve_then_speed_up(self):
        """Flow B arrives midway; flow A slows to half, then recovers."""
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        a = engine.start_transfer(path, mb(10))  # alone: 8 s
        results = {}

        def start_b():
            b = engine.start_transfer(path, mb(5))
            b.done._subscribe(sim, lambda v, e: results.__setitem__("b", v))

        sim.schedule(4.0, start_b)
        sim.run()
        # A: 4 s alone (5 MB done), then shares 5 Mbps. B (5 MB) and A
        # (5 MB left) finish together 8 s later at t=12.
        assert a.done.value.duration_s == pytest.approx(12.0)
        assert results["b"].end_time == pytest.approx(12.0)

    def test_disjoint_flows_do_not_interact(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        t1 = engine.start_transfer(dirs(topo, "h1", "mid"), mb(10))  # 100 Mbps link
        t2 = engine.start_transfer(dirs(topo, "mid", "h2"), mb(10))  # 10 Mbps link
        sim.run()
        assert t1.done.value.duration_s == pytest.approx(0.8)
        assert t2.done.value.duration_s == pytest.approx(8.0)

    def test_opposite_directions_are_independent(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        fwd = engine.start_transfer(dirs(topo, "mid", "h2"), mb(10))
        rev = engine.start_transfer(dirs(topo, "h2", "mid"), mb(10))
        sim.run()
        assert fwd.done.value.duration_s == pytest.approx(8.0)
        assert rev.done.value.duration_s == pytest.approx(8.0)

    def test_estimate_rate_reflects_current_contention(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        assert engine.estimate_rate(path) == pytest.approx(mbps(10))
        engine.start_transfer(path, mb(100))
        assert engine.estimate_rate(path) == pytest.approx(mbps(5))

    def test_policer_respected_via_capacity(self):
        topo = line_topology()
        topo.add_node(Node("h3", NodeKind.HOST, 1, "10.0.0.4"))
        topo.add_link(Link("mid", "h3", capacity_bps=mbps(100), delay_s=ms(1),
                           policer_bps={"mid": mbps(4)}))
        sim = Simulator()
        engine = NetworkEngine(sim, topo)
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h3"), mb(10))
        sim.run()
        assert t.done.value.duration_s == pytest.approx(20.0)

    def test_capacity_scale_jitter(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo, capacity_scale={"mid--h2": 0.5})
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        sim.run()
        assert t.done.value.duration_s == pytest.approx(16.0)

    def test_capacity_scale_that_looks_empty_is_still_consulted(self):
        class DrawnOnRead(Mapping):
            """Reports no entries, like a lazy mapping before any read."""

            def __getitem__(self, name):
                if name == "mid--h2":
                    return 0.5
                raise KeyError(name)

            def __iter__(self):
                return iter(())

            def __len__(self):
                return 0

        sim = Simulator()
        topo = line_topology()
        scale = DrawnOnRead()
        assert not scale
        engine = NetworkEngine(sim, topo, capacity_scale=scale)
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        sim.run()
        assert t.done.value.duration_s == pytest.approx(16.0)

    def test_direction_listed_twice_counts_once(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        t = engine.start_transfer(path + path[1:], mb(10))
        assert t.rate_bps == mbps(10)
        assert engine._load[engine._direction_ids[path[1]]] == mbps(10)
        engine.cancel(t)
        assert engine._load[engine._direction_ids[path[1]]] == 0.0

    def test_utilization_reporting(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        engine.start_transfer(path, mb(100))
        assert engine.utilization_of(path[1]) == pytest.approx(1.0)
        assert engine.utilization_of(path[0]) == pytest.approx(0.1)

    @pytest.mark.parametrize("n, capacity", [
        (6, mbps(1000)), (7, mbps(45)), (9, mbps(10_000))])
    def test_departure_from_a_link_filled_short_by_rounding(self, n, capacity):
        """*n* equal shares sum to just under the capacity in float; the
        link is still saturated, so a departure re-fills the others."""
        topo = Topology()
        topo.add_node(Node("a", NodeKind.HOST, 1, "10.0.0.1"))
        topo.add_node(Node("b", NodeKind.HOST, 1, "10.0.0.2"))
        topo.add_link(Link("a", "b", capacity_bps=capacity, delay_s=ms(1)))
        engine = NetworkEngine(Simulator(), topo)
        path = dirs(topo, "a", "b")
        flows = [engine.start_transfer(path, mb(100)) for _ in range(n)]
        assert sum(t.rate_bps for t in flows) < capacity
        engine.cancel(flows[0])
        assert [t.rate_bps for t in flows[1:]] == [capacity / (n - 1)] * (n - 1)


class TestInternedPath:
    def test_lists_each_direction_once(self):
        topo = line_topology()
        engine = NetworkEngine(Simulator(), topo)
        path = dirs(topo, "h1", "mid", "h2")
        twice = engine.intern(path + path[1:])
        assert twice.directions == tuple(path + path[1:])
        assert twice.resources == engine.intern(path).resources
        assert engine.intern(twice) is twice

    def test_path_from_another_engine_is_refused(self):
        topo = line_topology()
        path = dirs(topo, "h1", "mid", "h2")
        handle = NetworkEngine(Simulator(), topo).intern(path)
        other = NetworkEngine(Simulator(), topo)
        with pytest.raises(TransferError):
            other.start_transfer(handle, mb(1))
        with pytest.raises(TransferError):
            other.estimate_rate(handle)
        assert other.active_count == 0

    def test_path_interned_before_a_link_change_gets_the_rates_of_a_list(self):
        topo = line_topology()
        path = dirs(topo, "h1", "mid", "h2")
        bottleneck = topo.link_between("mid", "h2")
        by_handle = NetworkEngine(Simulator(), topo)
        by_list = NetworkEngine(Simulator(), topo)
        handle = by_handle.intern(path)
        for failed, share in ((True, bottleneck.FAILED_RESIDUAL_BPS), (False, mbps(5))):
            bottleneck.failed = failed
            for engine in (by_handle, by_list):
                engine.on_link_state_change(bottleneck.name)
            assert by_handle.estimate_rate(handle) == by_list.estimate_rate(path)
            by_handle.start_transfer(handle, mb(100))
            by_list.start_transfer(path, mb(100))
            rates = [t.rate_bps for t in by_handle.active_transfers()]
            assert rates == [t.rate_bps for t in by_list.active_transfers()]
            assert rates[-1] == pytest.approx(share)


class TestProfilerCounts:
    def test_flows_touched_counts_the_component_refilled(self):
        prof = KernelProfiler()
        sim = Simulator(profiler=prof)
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        # disjoint from the first flow: re-fills itself alone
        engine.start_transfer(dirs(topo, "h2", "mid", "h1"), mb(10))
        # shares the first flow's saturated mid->h2: re-fills both
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        assert dict(prof.counts())["net.engine.flows_touched"] == 1 + 1 + 2

    def test_a_departure_that_frees_no_saturated_direction_does_nothing(self):
        prof = KernelProfiler()
        sim = Simulator(profiler=prof)
        metrics = MetricsRegistry()
        topo = line_topology()
        engine = NetworkEngine(sim, topo, metrics=metrics)
        # held by its ceiling to 2 of mid->h2's 10 Mbit/s: saturates nothing
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1),
                              ceiling_bps=mbps(2))
        # alone on the reverse path, so it is the only user it could free
        engine.start_transfer(dirs(topo, "h2", "mid", "h1"), mb(10))
        sim.run()
        assert engine.active_count == 0
        # the two starts re-fill; neither completion marks a flow dirty
        sections = {key: n for key, n, _ in prof.section_stats()}
        assert sections["net.engine.reallocate"] == 2
        assert metrics.get("repro_engine_reallocations_total").total() == 2


class TestCancellation:
    def test_cancel_fails_waiter_and_frees_capacity(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        victim = engine.start_transfer(path, mb(100))
        other = engine.start_transfer(path, mb(5))

        def canceller():
            yield 1.0
            engine.cancel(victim)

        sim.process(canceller())
        sim.run()
        assert isinstance(victim.done._failed, TransferError)
        # other: 1 s at 5 Mbps (0.625 MB), then 4.375 MB at 10 Mbps -> 4.5 s
        assert other.done.value.duration_s == pytest.approx(1.0 + 3.5)

    def test_cancel_finished_transfer_is_noop(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        t = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1))
        sim.run()
        engine.cancel(t)  # no exception
        assert t.done.value.nbytes == mb(1)

    def test_active_count_tracks_lifecycle(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        assert engine.active_count == 0
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1))
        assert engine.active_count == 1
        sim.run()
        assert engine.active_count == 0


class TestTracing:
    def test_flow_events_traced(self):
        sim = Simulator()
        topo = line_topology()
        tracer = Tracer()
        engine = NetworkEngine(sim, topo, tracer=tracer)
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1), label="x")
        sim.run()
        kinds = [e.kind for e in tracer.filter(component="net.engine")]
        assert kinds == ["flow_start", "flow_end"]

    def test_tracer_enabled_after_the_engine_is_built(self):
        sim = Simulator()
        topo = line_topology()
        tracer = Tracer(enabled=False)
        engine = NetworkEngine(sim, topo, tracer=tracer)
        tracer.enabled = True
        engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(1), label="x")
        sim.run()
        kinds = [e.kind for e in tracer.filter(component="net.engine")]
        assert kinds == ["flow_start", "flow_end"]


class TestProcessIntegration:
    def test_process_waits_for_transfer(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)

        def uploader():
            result = yield engine.start_transfer(
                dirs(topo, "h1", "mid", "h2"), mb(10)).done
            return result.duration_s

        p = sim.process(uploader())
        sim.run()
        assert p.result == pytest.approx(8.0)

    def test_sequential_transfers_in_one_process(self):
        """Store-and-forward arithmetic: t_total = t1 + t2 (paper Sec. I)."""
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)

        def relay():
            r1 = yield engine.start_transfer(dirs(topo, "h1", "mid"), mb(10)).done
            r2 = yield engine.start_transfer(dirs(topo, "mid", "h2"), mb(10)).done
            return (r1.duration_s, r2.duration_s, sim.now)

        p = sim.process(relay())
        sim.run()
        t1, t2, total = p.result
        assert total == pytest.approx(t1 + t2)


class TestCompletionEvents:
    def test_unchanged_rate_keeps_pending_handle(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        a = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        handle = a._completion_handle
        scheduled = []
        schedule = sim.schedule

        def counting_schedule(*args, **kwargs):
            scheduled.append(args)
            return schedule(*args, **kwargs)

        sim.schedule = counting_schedule
        # the reverse directions are disjoint from a's: its rate holds
        engine.start_transfer(dirs(topo, "h2", "mid", "h1"), mb(1))
        assert a._completion_handle is handle and handle.active
        assert len(scheduled) == 1  # the new flow's completion only
        sim.run()
        assert a.done.value.end_time == pytest.approx(8.0)

    def test_changed_rate_replaces_handle(self):
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        path = dirs(topo, "h1", "mid", "h2")
        a = engine.start_transfer(path, mb(10))
        handle = a._completion_handle
        engine.start_transfer(path, mb(10))
        assert not handle.active
        assert a._completion_handle is not handle
        assert a._completion_handle.active

    def test_kept_event_firing_early_is_rearmed(self):
        """A completion event that fires with more bytes owed than the
        drift allowance is re-armed for the residual, not dropped (which
        would strand the flow)."""
        sim = Simulator()
        topo = line_topology()
        engine = NetworkEngine(sim, topo)
        a = engine.start_transfer(dirs(topo, "h1", "mid", "h2"), mb(10))
        handle = a._completion_handle  # due at 8 s

        def owe_more():
            # 1 MB the pending event does not know about (``remaining_bytes``
            # is as of ``_last_update``, so no progress need be credited)
            a.remaining_bytes += mb(1)

        sim.schedule(4.0, owe_more)
        sim.run()
        assert not handle.active
        assert a.done.value.end_time == pytest.approx(8.8)


# -- oracle: the original reschedule-everything engine ----------------------
#
# Keeping a completion event whose rate did not change moves an end time
# only by float rounding: the kept event's time was computed from an
# earlier instant.  The live engine must complete and cancel the same
# flows as the original, at end times equal to within 1e-12 relative.
# Sizes, rates and times are built from uneven steps, so a completion
# does not land on the very instant of a cancel or link event (where
# a rounding-sized shift could put it on either side).

#: s0, s1, s2 reach d0, d1 through routers a and b; a--b is shared
#: by most paths, b--d0 by the rest.
_LINKS = (("s0", "a"), ("s1", "a"), ("s2", "b"), ("a", "b"), ("b", "d0"),
          ("b", "d1"), ("a", "d1"))
_PATHS = (("s0", "a", "b", "d0"), ("s1", "a", "b", "d1"), ("s2", "b", "d0"),
          ("s0", "a", "d1"), ("s1", "a", "b", "d0"), ("d0", "b", "a", "s0"))


def _steps(base, step, hi):
    return st.integers(0, hi).map(lambda k: base + step * k)


@st.composite
def engine_scenarios(draw):
    capacities = [mbps(draw(_steps(2.3, 1.37, 70))) for _ in _LINKS]
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        flows.append(dict(
            path=draw(st.integers(0, len(_PATHS) - 1)),
            nbytes=mb(draw(_steps(0.29, 0.713, 60))),
            ceiling=draw(st.one_of(st.just(inf),
                                   _steps(0.7, 0.91, 40).map(mbps))),
            deficit=draw(st.one_of(st.just(0.0), _steps(1711.0, 5303.0, 40))),
            start=draw(_steps(0.0, 0.431, 40)),
            # None: never cancelled; else seconds after the start
            cancel_after=draw(st.one_of(st.none(), _steps(0.05, 0.587, 40))),
        ))
    outages = [
        (draw(st.integers(0, len(_LINKS) - 1)), draw(_steps(0.11, 0.773, 40)),
         draw(_steps(0.3, 0.659, 30)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return capacities, flows, outages


def _run_scenario(engine_cls, scenario, probes=(), after_event=None,
                  check_probe=None, interned=False, profiler=None):
    """Each flow's fate under *engine_cls*: its end time, or "cancelled".

    Each probe ``(at, path, ceiling)`` calls *check_probe* (default
    ``_check_probe``) with the engine, the path's directions and the
    ceiling at *at*; *after_event* is called with the engine after every
    simulator event.  With *interned*, every path is interned once before
    the first event, and flows and probes are given the handles.  The
    simulator runs under *profiler*, if given."""
    check_probe = check_probe if check_probe is not None else _check_probe
    capacities, flows, outages = scenario
    topo = Topology()
    for i, name in enumerate(("s0", "s1", "s2", "a", "b", "d0", "d1")):
        kind = NodeKind.ROUTER if name in ("a", "b") else NodeKind.HOST
        topo.add_node(Node(name, kind, 1, f"10.0.0.{i + 1}"))
    for (u, v), cap in zip(_LINKS, capacities):
        topo.add_link(Link(u, v, capacity_bps=cap, delay_s=ms(1)))
    sim = Simulator(profiler=profiler)
    engine = engine_cls(sim, topo)
    handles = [engine.intern(topo.path_directions(list(p)))
               for p in _PATHS] if interned else None

    def path(i):
        return handles[i] if interned else topo.path_directions(list(_PATHS[i]))

    transfers = {}

    def start(k, flow):
        transfers[k] = engine.start_transfer(
            path(flow["path"]), flow["nbytes"],
            ceiling_bps=flow["ceiling"], label=f"f{k}",
            startup_deficit_bytes=flow["deficit"])

    def set_failed(link_name, failed):
        topo.link(link_name).failed = failed
        engine.on_link_state_change(link_name)

    for k, flow in enumerate(flows):
        sim.schedule(flow["start"], lambda k=k, flow=flow: start(k, flow))
        if flow["cancel_after"] is not None:
            sim.schedule(flow["start"] + flow["cancel_after"],
                         lambda k=k: engine.cancel(transfers[k]))
    for link, at, down_for in outages:
        name = topo.link_between(*_LINKS[link]).name
        sim.schedule(at, lambda name=name: set_failed(name, True))
        sim.schedule(at + down_for, lambda name=name: set_failed(name, False))
    for at, i, ceiling in probes:
        sim.schedule(at, lambda d=path(i), c=ceiling: check_probe(engine, d, c))
    while sim.step():
        if after_event is not None:
            after_event(engine)
    fates = {}
    for k, t in transfers.items():
        assert t.finished
        fates[k] = "cancelled" if t.done._failed else t.done.value.end_time
    return fates


class TestMatchesReferenceEngine:
    @settings(max_examples=150, deadline=None)
    @given(engine_scenarios())
    def test_same_fates_and_end_times(self, scenario):
        live = _run_scenario(NetworkEngine, scenario)
        ref = _run_scenario(ReferenceNetworkEngine, scenario)
        assert {k for k, f in live.items() if f == "cancelled"} == \
            {k for k, f in ref.items() if f == "cancelled"}
        for k, end in ref.items():
            if end != "cancelled":
                assert live[k] == pytest.approx(end, rel=1e-12, abs=0.0)


# -- oracle: a full max-min re-fill ------------------------------------------
#
# The engine re-fills only the flows a change reaches over saturated
# links, against the capacity the flows outside leave.  After every
# simulator event, every flow in flight must hold its rate under a full
# ``max_min_allocation`` of all flows in flight to within 1e-12 relative
# and pass the max-min certificate, and every ``estimate_rate`` probe
# must match the full solve with the probe added.


def _assert_max_min(specs, capacities, rates, tol=1e-9):
    """The max-min certificate: no resource over capacity, no flow over
    its ceiling, and every flow at its ceiling or on a saturated resource
    where no flow gets more."""
    users = {}
    for s in specs:
        for r in set(s.resources):
            users.setdefault(r, []).append(rates[s.flow_id])
    load = {r: sum(u) for r, u in users.items()}
    for r, used in load.items():
        assert used <= capacities[r] * (1 + tol)
    for s in specs:
        rate = rates[s.flow_id]
        assert rate <= s.ceiling_bps * (1 + tol)
        assert rate >= s.ceiling_bps * (1 - tol) or any(
            load[r] >= capacities[r] * (1 - tol)
            and rate >= max(users[r]) * (1 - tol) for r in s.resources), s


def _assert_full_refill(engine):
    specs = [t._alloc_spec for t in engine.active_transfers()]
    rates = {t.flow_id: t.rate_bps for t in engine.active_transfers()}
    full = max_min_allocation(specs, engine._capacities)
    for flow_id, rate in rates.items():
        assert rate == pytest.approx(full[flow_id], rel=1e-12, abs=0.0)
    _assert_max_min(specs, engine._capacities, rates)
    _assert_loads(engine)


def _assert_loads(engine):
    """Each direction's running load is its users' rates summed afresh,
    to 1e-12 of its capacity, and exactly ``0.0`` with no users."""
    for d, users in enumerate(engine._users):
        load = engine._load[d]
        if not users:
            assert load == 0.0, d
        else:
            fresh = sum(t.rate_bps for t in users.values())
            assert abs(load - fresh) <= 1e-12 * engine._capacities[d], d


def _check_probe(engine, directions, ceiling):
    got = engine.estimate_rate(directions, ceiling)
    phantom = FlowSpec("probe", engine.intern(directions).resources, ceiling)
    specs = [t._alloc_spec for t in engine.active_transfers()] + [phantom]
    full = max_min_allocation(specs, engine._capacities)
    assert got == pytest.approx(full["probe"], rel=1e-12, abs=0.0)
    return got


@st.composite
def probed_scenarios(draw):
    probes = draw(st.lists(st.tuples(
        _steps(0.02, 0.389, 60), st.integers(0, len(_PATHS) - 1),
        st.one_of(st.just(inf), _steps(0.7, 0.91, 40).map(mbps))),
        max_size=6))
    return draw(engine_scenarios()), probes


class TestMatchesFullRefill:
    @settings(max_examples=200, deadline=None)
    @given(probed_scenarios())
    def test_rates_and_estimates_after_every_event(self, probed):
        scenario, probes = probed
        _run_scenario(NetworkEngine, scenario, probes, _assert_full_refill)


def _start_at_estimate(engine, directions, ceiling):
    """A flow started on the probe's path and ceiling gets exactly the
    rate ``estimate_rate`` reported at that instant."""
    estimate = engine.estimate_rate(directions, ceiling)
    t = engine.start_transfer(directions, mb(1), ceiling_bps=ceiling,
                              label="probe")
    assert t.rate_bps == estimate


class TestEstimateIsExact:
    @settings(max_examples=200, deadline=None)
    @given(probed_scenarios())
    def test_start_gets_the_estimated_rate_bit_for_bit(self, probed):
        scenario, probes = probed
        _run_scenario(NetworkEngine, scenario, probes,
                      check_probe=_start_at_estimate)


# -- interned paths are sequences interned once ------------------------------
#
# Interning every path before the first event gives the directions other
# ids than interning each on first use; no rate may depend on that.


def _states_after_every_event(scenario, probes, interned=False,
                              engine_cls=NetworkEngine):
    """Each flow's fate under *engine_cls*, each probe's estimate, and the
    time and every flow's rate and bytes owed after every event."""
    states = []

    def record(engine):
        states.append((engine.sim.now, [
            (t.flow_id, t.rate_bps, t.remaining_bytes)
            for t in engine.active_transfers()]))

    def probe(engine, directions, ceiling):
        states.append(("probe", _check_probe(engine, directions, ceiling)))

    fates = _run_scenario(engine_cls, scenario, probes, record,
                          check_probe=probe, interned=interned)
    return fates, states


class TestInternedPathsMatchSequences:
    @settings(max_examples=100, deadline=None)
    @given(probed_scenarios())
    def test_bit_identical_rates_and_end_times(self, probed):
        scenario, probes = probed
        assert _states_after_every_event(scenario, probes, True) == \
            _states_after_every_event(scenario, probes, False)


# -- the lone pass is the general fill of one flow ---------------------------
#
# A re-fill from one dirty flow, or an estimate with none, is first tried
# in one pass over the flow's directions.  Where the pass answers, every
# bit must be the general walk and fill's: after every event, every rate,
# byte count and end time, and every probe's estimate.


class _NoLonePass(NetworkEngine):
    """The engine with every re-fill taken by the general walk and fill."""

    def _lone_fill(self, spec, own, mine):
        return None


def _sole_user_drift():
    """Shrunk by hypothesis from the twin below.  Two flows share s1--a
    until the first completes, which leaves the direction's running load
    with the rounding of its rate; s1--a then fails and recovers under
    the second, alone on it.  A residual taken from that load rather
    than the exact capacity moves the second's end time by an ulp."""
    capacities = [mbps(2.3 + 1.37 * k) for k in (0, 11, 0, 11, 8, 1, 0)]
    flows = [dict(path=path, nbytes=mb(0.29 + 0.713 * k), ceiling=inf,
                  deficit=0.0, start=0.0, cancel_after=None)
             for path, k in ((4, 0), (1, 1), (0, 0), (0, 0))]
    outages = [(_LINKS.index(("s1", "a")), 0.11 + 0.773, 0.3)]
    return (capacities, flows, outages), []


class TestLonePassMatchesGeneralFill:
    @settings(max_examples=100, deadline=None)
    @given(probed_scenarios())
    @example(_sole_user_drift())
    def test_bit_identical_states_and_estimates(self, probed):
        scenario, probes = probed
        assert _states_after_every_event(scenario, probes) == \
            _states_after_every_event(scenario, probes, engine_cls=_NoLonePass)


# -- oracle: outside users' load summed afresh --------------------------------
#
# The re-fill takes the load of a direction's outside users from its
# running load, where the reference summed their rates afresh.  Every
# re-fill (every start, cancel, completion, link change and probe) must
# find the reference's component, and rates equal to within 1e-12
# relative.


class _ResidualOracle(ReferenceResidualEngine):
    """Runs the live re-fill and the reference on the same state."""

    def _refill(self, seeds, phantom=None):
        seeds = list(seeds)
        flows, alloc = NetworkEngine._refill(self, seeds, phantom)
        ref_flows, ref_alloc = super()._refill(seeds, phantom)
        assert [t.flow_id for t in flows] == [t.flow_id for t in ref_flows]
        assert list(alloc) == list(ref_alloc)
        for flow_id, rate in ref_alloc.items():
            assert alloc[flow_id] == pytest.approx(rate, rel=1e-12, abs=0.0)
        return flows, alloc


class _NoAllInsideBranch(_ResidualOracle):
    """The live residuals with every direction taking load less own rates,
    even one the component's flows have to themselves."""

    def _residuals(self, flows, walked):
        caps, load = self._capacities, self._load
        own = {}
        for t in flows:
            for d in t._alloc_spec.resources:
                own[d] = own.get(d, 0.0) + t.rate_bps
        residual, outside = {}, {}
        for d in walked:
            taken = outside[d] = load[d] - own.get(d, 0.0)
            residual[d] = caps[d] - taken
        return residual, outside


def _shared_link_fails():
    """Three flows share a--b at 10/3 Mbit/s, so its running load carries
    rounding; then a--b fails, leaving 1 bit/s for the three."""
    capacities = [mbps(100)] * len(_LINKS)
    capacities[_LINKS.index(("a", "b"))] = mbps(10)
    flows = [dict(path=0, nbytes=mb(50), ceiling=inf, deficit=0.0,
                  start=0.1 * k, cancel_after=None) for k in range(3)]
    return capacities, flows, [(_LINKS.index(("a", "b")), 1.0, 0.5)]


def _own_rates_on_a_shared_direction():
    """Shrunk by hypothesis from the residual oracle below.  f0 (s2-b-d0)
    and f1 (s0-a-b-d0) share b--d0 below its capacity; f2 then starts on
    f1's path, and s0--a, which f1 saturates, makes {f1, f2} a component
    that leaves f0 the load of b--d0 less f1's own rate."""
    capacities = [mbps(2.3)] * len(_LINKS)
    capacities[_LINKS.index(("b", "d0"))] = mbps(5.04)
    flows = [dict(path=path, nbytes=mb(0.29), ceiling=inf, deficit=0.0,
                  start=0.0, cancel_after=None) for path in (2, 0, 0)]
    return capacities, flows, []


class TestResidualsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(probed_scenarios())
    def test_components_and_rates_at_every_refill(self, probed):
        scenario, probes = probed
        _run_scenario(_ResidualOracle, scenario, probes)

    def test_a_link_failing_under_its_users(self):
        _run_scenario(_ResidualOracle, _shared_link_fails())

    def test_a_components_own_rates_are_not_outside_load(self):
        """Counted as outside load, f1's own rate leaves b--d0 too small a
        residual.  The re-fill then saturates b--d0, the merge rule pulls
        f0 in, and the rates come out right against the exact capacity:
        only the component grows, which no rate oracle sees.  Pin its
        size."""
        prof = KernelProfiler()
        _run_scenario(NetworkEngine, _own_rates_on_a_shared_direction(),
                      profiler=prof)
        # the starts re-fill 1, 1 and 2 flows (not 3: f0 stays out); f0's
        # completion frees nothing saturated; f1's re-fills f2
        assert dict(prof.counts())["net.engine.flows_touched"] == 1 + 1 + 2 + 1

    def test_dropping_the_all_inside_branch_fails_the_oracle(self):
        with pytest.raises(AssertionError):
            _run_scenario(_NoAllInsideBranch, _shared_link_fails())
