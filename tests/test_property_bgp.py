"""Property-based tests: valley-free BGP over random AS graphs.

Generates random Gao-Rexford economies (acyclic customer relationships
plus random peerings) and checks the structural invariants of every
computed route:

* the path is loop-free, starts at the observer, ends at the destination;
* consecutive ASes on the path are actual neighbors;
* the path is **valley-free**: reading from the traffic source, it climbs
  customer->provider edges, crosses at most one peering, then descends
  provider->customer edges;
* the route type matches the first edge's relationship;
* routes never traverse an edge an export filter forbids (spot-checked
  with a random single filter).
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.net import ASGraph, AutonomousSystem, BgpRouteComputer, Relationship, RouteType


@st.composite
def as_graphs(draw):
    n = draw(st.integers(3, 9))
    numbers = list(range(1, n + 1))
    g = ASGraph()
    for num in numbers:
        g.add_as(AutonomousSystem(num, f"as{num}"))
    # random permutation defines the economic hierarchy (no cycles)
    order = draw(st.permutations(numbers))
    rank = {asn: i for i, asn in enumerate(order)}
    related: Set[Tuple[int, int]] = set()
    # customer edges: provider has lower rank index
    for i, provider in enumerate(order):
        for customer in order[i + 1:]:
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
                g.add_customer(provider, customer)
                related.add((provider, customer))
                related.add((customer, provider))
    # random peerings among unrelated pairs
    for i, a in enumerate(numbers):
        for b in numbers[i + 1:]:
            if (a, b) not in related and draw(st.integers(0, 3)) == 0:
                g.add_peering(a, b)
                related.add((a, b))
                related.add((b, a))
    g.validate()
    return g


def _classify_path(g: ASGraph, path: Tuple[int, ...]) -> List[Relationship]:
    """Relationship of each step as seen by the sender of that step."""
    return [g.relationship(a, b) for a, b in zip(path, path[1:])]


def _is_valley_free(steps: List[Relationship]) -> bool:
    """up* peer? down* when walking from traffic source to destination.

    A step whose next hop is my PROVIDER is 'up'; PEER is flat; CUSTOMER
    is 'down'.
    """
    phase = 0  # 0 = climbing, 1 = crossed the peak, 2 = descending
    for step in steps:
        if step is Relationship.PROVIDER:
            if phase != 0:
                return False
        elif step is Relationship.PEER:
            if phase != 0:
                return False
            phase = 1
        else:  # CUSTOMER: downhill
            phase = 2
    return True


@settings(max_examples=120, deadline=None)
@given(as_graphs())
def test_all_routes_structurally_sound(g):
    bgp = BgpRouteComputer(g)
    for dest in g.ases:
        table = bgp.table_for(dest)
        for observer, route in table.items():
            path = route.path
            assert path[0] == observer
            assert path[-1] == dest
            assert len(set(path)) == len(path), f"loop in {path}"
            for a, b in zip(path, path[1:]):
                assert b in g.neighbors(a), f"{a}-{b} not neighbors in {path}"


@settings(max_examples=120, deadline=None)
@given(as_graphs())
def test_all_routes_valley_free(g):
    bgp = BgpRouteComputer(g)
    for dest in g.ases:
        for observer, route in bgp.table_for(dest).items():
            if observer == dest:
                continue
            steps = _classify_path(g, route.path)
            assert _is_valley_free(steps), (
                f"valley in {route.path}: {[s.value for s in steps]}"
            )


@settings(max_examples=120, deadline=None)
@given(as_graphs())
def test_route_type_matches_first_edge(g):
    bgp = BgpRouteComputer(g)
    expected = {
        Relationship.CUSTOMER: RouteType.CUSTOMER,
        Relationship.PEER: RouteType.PEER,
        Relationship.PROVIDER: RouteType.PROVIDER,
    }
    for dest in g.ases:
        for observer, route in bgp.table_for(dest).items():
            if observer == dest:
                assert route.route_type is RouteType.ORIGIN
                continue
            first = g.relationship(observer, route.path[1])
            assert route.route_type is expected[first]


@settings(max_examples=120, deadline=None)
@given(as_graphs())
def test_customer_routes_preferred(g):
    """If any neighbor-customer of X originates/cones the destination,
    X's selected route must be a customer route (type preference)."""
    bgp = BgpRouteComputer(g)
    for dest in g.ases:
        table = bgp.table_for(dest)
        for observer, route in table.items():
            if observer == dest:
                continue
            has_customer_route = any(
                dest in g.customer_cone(c) for c in g.customers(observer)
            )
            if has_customer_route:
                assert route.route_type is RouteType.CUSTOMER, (
                    f"AS{observer} picked {route} despite a customer route to {dest}"
                )


@settings(max_examples=80, deadline=None)
@given(as_graphs(), st.randoms(use_true_random=False))
def test_export_filter_never_violated(g, rnd):
    """Install one random deny-all filter and verify no selected route
    traverses the filtered edge in the announcement direction."""
    edges = [(a, b) for a in g.ases for b in g.neighbors(a)]
    if not edges:
        return
    announcer, neighbor = rnd.choice(edges)
    g.set_export_deny(announcer, neighbor, g.ases)
    bgp = BgpRouteComputer(g)
    for dest in g.ases:
        for observer, route in bgp.table_for(dest).items():
            # an announcement announcer->neighbor appears in a path as
            # ... neighbor, announcer ... (traffic flows opposite to
            # announcements)
            for a, b in zip(route.path, route.path[1:]):
                assert not (a == neighbor and b == announcer), (
                    f"route {route.path} uses filtered announcement "
                    f"{announcer}->{neighbor}"
                )


@settings(max_examples=60, deadline=None)
@given(as_graphs())
def test_reachability_is_monotone_up_the_cone(g):
    """If a customer can reach dest via its provider chain, so can the
    provider itself (provider routes come FROM providers)."""
    bgp = BgpRouteComputer(g)
    for dest in g.ases:
        table = bgp.table_for(dest)
        for observer, route in table.items():
            if route.route_type is RouteType.PROVIDER:
                assert route.path[1] in table, (
                    f"AS{observer} routes via AS{route.path[1]} which has no route"
                )
