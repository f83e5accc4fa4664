"""Shared fixtures: a miniature inter-AS world echoing the case study.

Layout (AS numbers in brackets):

    hostA[100] -- gwA[100] -- r1[200] -- r2[200] -- cloud-edge[300] -- server[300]
                                 \\
                                  ix[400] ---------- cloud-edge (policed 10 Mbps)
    hostB[500] -- gwB[500] ------ r2

AS relationships: 100 and 500 are customers of 200 (research net);
200 peers 300 (cloud) and 400 (exchange); 400 peers 300.

A PBR rule at r1 steers traffic sourced in hostA's prefix and destined to
AS300 via the exchange — the pacificwave mechanism in miniature.
"""

import time
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.graph import ProjectAnalyzer
from repro.lint.runner import BASELINE_FILENAME, default_scan_root
from repro.net import (
    ASGraph,
    AutonomousSystem,
    Link,
    Node,
    NodeKind,
    PbrRule,
    PolicyTable,
    Router,
    Topology,
)
from repro.units import mbps, ms

BASELINE_PATH = Path(__file__).resolve().parents[1] / BASELINE_FILENAME


def lint_repro(cache_dir, **kw):
    """A lint of the installed ``src/repro`` against the checked-in
    baseline: its exit code, its output, and the analysis behind it."""
    buf, results = [], []
    analyze = ProjectAnalyzer.run

    def keep(self, roots):
        results.append(analyze(self, roots))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProjectAnalyzer, "run", keep)
        code = run_lint([default_scan_root()], cache_dir=cache_dir,
                        baseline_path=BASELINE_PATH, out=buf.append, **kw)
    return code, "\n".join(buf), results[0]


@pytest.fixture(scope="session")
def cold_lint(tmp_path_factory):
    """The one timed cold lint of ``src/repro``: a JSON run into a fresh
    cache directory.  Every other test that needs the real tree reads its
    report, or re-runs the lint warm from its cache (the cache never
    changes a report; ``uncached_lint`` in test_lint_graph checks that).

    Returns ``(cache_dir, exit_code, output, analysis, seconds)``.
    """
    cache_dir = tmp_path_factory.mktemp("lint") / "cache"
    t0 = time.perf_counter()
    code, out, result = lint_repro(cache_dir, fmt="json")
    return cache_dir, code, out, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tree_report(cold_lint):
    """The whole-program report of ``src/repro`` under the default config,
    shared by every test that gates on the real tree."""
    return cold_lint[3].report


@pytest.fixture
def mini_world():
    topo = Topology()
    add = topo.add_node
    add(Node("hostA", NodeKind.HOST, 100, "10.1.0.10", hostname="hosta.campus-a.edu"))
    add(Node("gwA", NodeKind.ROUTER, 100, "10.1.0.1", hostname="gw.campus-a.edu"))
    add(Node("r1", NodeKind.ROUTER, 200, "10.2.0.1", hostname="r1.research.net"))
    add(Node("r2", NodeKind.ROUTER, 200, "10.2.0.2", hostname="r2.research.net"))
    add(Node("ix", NodeKind.MIDDLEBOX, 400, "10.4.0.1", hostname="sw.exchange.net",
             responds_to_traceroute=False))
    add(Node("cloud-edge", NodeKind.ROUTER, 300, "10.3.0.1", hostname="edge.cloud.example"))
    add(Node("server", NodeKind.HOST, 300, "10.3.0.10", hostname="storage.cloud.example",
             site_name="gdrive-dc"))
    add(Node("hostB", NodeKind.HOST, 500, "10.5.0.10", hostname="hostb.campus-b.edu"))
    add(Node("gwB", NodeKind.ROUTER, 500, "10.5.0.1", hostname="gw.campus-b.edu"))

    L = topo.add_link
    L(Link("hostA", "gwA", capacity_bps=mbps(100), delay_s=ms(0.2)))
    L(Link("gwA", "r1", capacity_bps=mbps(100), delay_s=ms(1)))
    L(Link("r1", "r2", capacity_bps=mbps(100), delay_s=ms(4)))
    L(Link("r2", "cloud-edge", capacity_bps=mbps(50), delay_s=ms(3)))
    L(Link("r1", "ix", capacity_bps=mbps(100), delay_s=ms(1)))
    L(Link("ix", "cloud-edge", capacity_bps=mbps(100), delay_s=ms(2),
           policer_bps={"ix": mbps(10)}))
    L(Link("cloud-edge", "server", capacity_bps=mbps(1000), delay_s=ms(0.5)))
    L(Link("hostB", "gwB", capacity_bps=mbps(100), delay_s=ms(0.2)))
    L(Link("gwB", "r2", capacity_bps=mbps(100), delay_s=ms(2)))

    asg = ASGraph()
    for num, name in [(100, "campus-a"), (200, "research"), (300, "cloud"),
                      (400, "exchange"), (500, "campus-b")]:
        asg.add_as(AutonomousSystem(num, name))
    asg.add_customer(200, 100)
    asg.add_customer(200, 500)
    asg.add_peering(200, 300)
    asg.add_peering(200, 400)
    asg.add_peering(400, 300)
    asg.validate()

    policy = PolicyTable()
    policy.install(PbrRule(
        node="r1",
        out_link="r1--ix",
        src_prefixes=frozenset({"10.1.0.0/24"}),
        dest_asns=frozenset({300}),
        description="campus-a sourced cloud traffic exits via the exchange",
    ))

    router = Router(topo, asg, policy)
    return topo, asg, policy, router
