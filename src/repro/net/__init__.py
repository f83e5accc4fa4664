"""WAN substrate: topology, policy routing, flows, TCP model, traceroute.

This package implements the network the case study runs over:

* :mod:`repro.net.topology` — hosts/routers/middleboxes and links,
* :mod:`repro.net.asn` / :mod:`repro.net.bgp` — AS relationships and
  valley-free (Gao-Rexford) route computation with per-neighbor export
  filters (how research networks scope commercial peering routes),
* :mod:`repro.net.policy` — source-prefix policy-based routing (the
  mechanism behind the paper's pacificwave artifact),
* :mod:`repro.net.routing` — hop-by-hop end-to-end path resolution,
* :mod:`repro.net.flows` + :mod:`repro.net.engine` — flow-level
  discrete-event transfer simulation with max-min fair sharing,
* :mod:`repro.net.tcp` — TCP effective-throughput model (handshake,
  slow-start ramp, Mathis loss ceiling),
* :mod:`repro.net.policer` — token-bucket policers,
* :mod:`repro.net.crosstraffic` — Poisson background traffic,
* :mod:`repro.net.traceroute` — simulated traceroute (paper Figs. 5/6).
"""

from repro.net.address import PrefixAllocator, parse_address, parse_prefix
from repro.net.asn import ASGraph, AutonomousSystem, Relationship
from repro.net.bgp import BgpRouteComputer, BgpRoute, RouteType
from repro.net.dns import DnsResolver
from repro.net.engine import InternedPath, NetworkEngine, Transfer
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.packetsim import AimdFlow, BottleneckSim, simulate_shares
from repro.net.policer import TokenBucket
from repro.net.policy import PbrRule, PolicyTable
from repro.net.routeviews import (
    PolicyAnomaly,
    RibEntry,
    RouteCollector,
    detect_policy_anomalies,
)
from repro.net.routing import ResolvedPath, Router
from repro.net.tcp import TcpModel, TcpPathParams
from repro.net.topology import Link, LinkDirection, Node, NodeKind, Topology
from repro.net.traceroute import TracerouteHop, traceroute, format_traceroute

__all__ = [
    "ASGraph",
    "AimdFlow",
    "AutonomousSystem",
    "BottleneckSim",
    "simulate_shares",
    "BgpRoute",
    "BgpRouteComputer",
    "DnsResolver",
    "FlowSpec",
    "InternedPath",
    "Link",
    "LinkDirection",
    "NetworkEngine",
    "Node",
    "NodeKind",
    "PbrRule",
    "PolicyAnomaly",
    "PolicyTable",
    "PrefixAllocator",
    "Relationship",
    "ResolvedPath",
    "RibEntry",
    "RouteCollector",
    "RouteType",
    "Router",
    "TcpModel",
    "TcpPathParams",
    "TokenBucket",
    "Topology",
    "Transfer",
    "TracerouteHop",
    "detect_policy_anomalies",
    "format_traceroute",
    "max_min_allocation",
    "parse_address",
    "parse_prefix",
    "traceroute",
]
