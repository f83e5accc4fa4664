"""Command-line interface: the case study from a shell.

    python -m repro.cli compare ubc gdrive --size-mb 100
    python -m repro.cli upload purdue onedrive --size-mb 60
    python -m repro.cli traceroute ubc-pl gdrive-frontend
    python -m repro.cli figure fig2 --fast
    python -m repro.cli table 2 --fast
    python -m repro.cli routeviews google
    python -m repro.cli tiv
    python -m repro.cli campaign run --fast --jobs 4 --cache-dir .cells
    python -m repro.cli campaign status --watch --cache-dir .cells
    python -m repro.cli campaign export --fast --cache-dir .cells
    python -m repro.cli obs ubc gdrive --profile-trace trace.json
    python -m repro.cli bench check --record
    python -m repro.cli shard run --root fleet/ --sites ubc,purdue --shards 4 --jobs 4
    python -m repro.cli shard merge --root fleet/ --per-site
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import units
from repro._version import __version__

__all__ = ["main", "build_parser"]


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    """Campaign-engine flags shared by report/table/figure."""
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="precompute the experiment matrix with N parallel "
                        "workers before rendering (default: 1, in-process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR", dest="cache_dir",
                   help="campaign result store: reuse cells already there, "
                        "persist cells computed here")


def _add_campaign_spec_flags(p: argparse.ArgumentParser) -> None:
    """Matrix axes shared by campaign run/status/export."""
    p.add_argument("--clients", default=None, metavar="A,B",
                   help="comma-separated client sites (default: ubc,purdue,ucla)")
    p.add_argument("--providers", default=None, metavar="A,B",
                   help="comma-separated providers (default: gdrive,dropbox,onedrive)")
    p.add_argument("--routes", default=None, metavar="R;R",
                   help="semicolon-separated canonical routes ('direct', "
                        "'via umich', 'via ualberta (pipelined)'); default: "
                        "the paper route set per client")
    p.add_argument("--sizes-mb", default=None, metavar="N,N", dest="sizes_mb",
                   help="comma-separated sizes in MB (default: the paper sweep)")
    p.add_argument("--seeds", default=None, metavar="N,N",
                   help="comma-separated master seeds (default: 0)")
    p.add_argument("--fast", action="store_true",
                   help="3 runs (discard 1) instead of the paper's 7-run protocol")
    p.add_argument("--no-cross-traffic", action="store_true", dest="no_cross_traffic",
                   help="build worlds without background cross-traffic")
    p.add_argument("--cache-dir", default=None, metavar="DIR", dest="cache_dir",
                   help="result store directory (run: resume into it; "
                        "status/export: read from it)")


def _add_broker_fleet_flags(p: argparse.ArgumentParser) -> None:
    """Fleet workload axes shared by broker simulate/eval/export."""
    p.add_argument("--sites", default=None, metavar="A,B",
                   help="comma-separated client sites (default: ubc,purdue,ucla)")
    p.add_argument("--provider", default="gdrive",
                   choices=["gdrive", "dropbox", "onedrive"])
    p.add_argument("--uploads-per-site", type=int, default=20, metavar="N",
                   dest="uploads_per_site")
    p.add_argument("--interarrival-s", type=float, default=60.0, metavar="S",
                   dest="interarrival_s",
                   help="mean exponential interarrival per site (default: 60)")
    p.add_argument("--size-mb", type=float, default=40.0, dest="size_mb",
                   help="mean upload size in MB (default: 40)")
    p.add_argument("--size-dist", choices=["lognormal", "fixed"],
                   default="lognormal", dest="size_dist",
                   help="heavy-tailed lognormal sizes, or every upload at "
                        "exactly --size-mb")
    p.add_argument("--no-cross-traffic", action="store_true",
                   dest="no_cross_traffic",
                   help="build worlds without background cross-traffic")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by compare/upload/report."""
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="export metrics: '-' prints a table to stdout, any "
                        "other path gets Prometheus exposition text")
    p.add_argument("--trace-out", default=None, metavar="FILE", dest="trace_out",
                   help="dump metrics + trace events as JSON lines to FILE "
                        "('-' for stdout)")
    p.add_argument("--profile", action="store_true",
                   help="profile kernel callbacks and print a wall-time report")
    p.add_argument("--profile-trace", default=None, metavar="FILE",
                   dest="profile_trace",
                   help="record the profiler timeline and write it as "
                        "Chrome-trace/Perfetto JSON (implies --profile)")
    p.add_argument("--profile-stacks", default=None, metavar="FILE",
                   dest="profile_stacks",
                   help="write self-time-weighted collapsed stacks in "
                        "flamegraph format (implies --profile)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Routing detours to cloud-storage providers (IPPS 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="measure direct vs detour routes for one upload")
    p.add_argument("client", choices=["ubc", "purdue", "ucla"])
    p.add_argument("provider", choices=["gdrive", "dropbox", "onedrive"])
    p.add_argument("--size-mb", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=3)
    _add_obs_flags(p)

    p = sub.add_parser("upload", help="plan (compare) and execute the best route")
    p.add_argument("client", choices=["ubc", "purdue", "ucla"])
    p.add_argument("provider", choices=["gdrive", "dropbox", "onedrive"])
    p.add_argument("--size-mb", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p)

    p = sub.add_parser("traceroute", help="traceroute between two simulated hosts")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("figure_id",
                   choices=["fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                            "fig9", "fig10", "fig11"])
    p.add_argument("--fast", action="store_true",
                   help="3 runs x 3 sizes instead of the full protocol")
    p.add_argument("--seed", type=int, default=0)
    _add_cache_flags(p)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("table_id", choices=["1", "2", "3", "4", "5"])
    p.add_argument("--fast", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_cache_flags(p)

    p = sub.add_parser("routeviews", help="dump the BGP RIB toward a provider AS "
                                          "and flag control/forwarding anomalies")
    p.add_argument("dest", choices=["google", "dropbox", "microsoft"])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tiv", help="probe the overlay mesh and catalog "
                                   "triangle-inequality violations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=1.10)

    p = sub.add_parser("validate", help="check the testbed calibration against "
                                        "the paper-derived targets")
    p.add_argument("--size-mb", type=float, default=100.0)
    p.add_argument("--tolerance", type=float, default=0.35)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="regenerate all tables + the "
                                      "paper-vs-measured comparison")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_cache_flags(p)
    _add_obs_flags(p)

    p = sub.add_parser("campaign", help="run/inspect/export an experiment "
                                        "campaign (parallel, cached, resumable)")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="execute every cell of the matrix not "
                                    "already in the store")
    _add_campaign_spec_flags(c)
    c.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes (default: 1, in-process)")
    c.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   metavar="S", help="per-cell wall-clock budget (needs --jobs > 1)")
    c.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a worker crash/timeout (default: 1)")
    c.add_argument("--metrics", default=None, metavar="FILE",
                   help="export campaign metrics: '-' prints a table, any "
                        "other path gets Prometheus exposition text")
    c.add_argument("--progress", action="store_true",
                   help="stream one telemetry line per cell-lifecycle event "
                        "to stderr (started/finished/retried/quarantined)")

    c = csub.add_parser("status", help="how much of the matrix the store holds")
    _add_campaign_spec_flags(c)
    c.add_argument("--watch", action="store_true",
                   help="re-poll the store and print a progress line until "
                        "every cell is present (follow a run live)")
    c.add_argument("--interval-s", type=float, default=2.0, dest="interval_s",
                   metavar="S", help="poll interval for --watch (default: 2)")

    c = csub.add_parser("export", help="canonical JSON of every stored cell, "
                                       "in spec order")
    _add_campaign_spec_flags(c)
    c.add_argument("--out", default=None, metavar="FILE",
                   help="write the export to FILE instead of stdout")

    p = sub.add_parser("broker", help="simulate/evaluate the detour-brokerage "
                                      "control plane over a client fleet")
    bsub = p.add_subparsers(dest="broker_command", required=True)

    b = bsub.add_parser("simulate", help="run one fleet under one policy and "
                                         "print the per-upload ledger")
    _add_broker_fleet_flags(b)
    b.add_argument("--mode", default="broker", metavar="POLICY",
                   help="'broker', 'direct', or 'static:<route>' "
                        "(default: broker)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--uploads", action="store_true", dest="show_uploads",
                   help="also print one line per upload")
    b.add_argument("--metrics", default=None, metavar="FILE",
                   help="export per-site fleet metrics: '-' prints a table, "
                        "any other path gets Prometheus exposition text")
    b.add_argument("--profile-trace", default=None, metavar="FILE",
                   dest="profile_trace",
                   help="profile the fleet's kernel and write the timeline "
                        "as Chrome-trace/Perfetto JSON")

    b = bsub.add_parser("eval", help="run the broker-on vs broker-off sweep "
                                     "through the campaign engine and score it")
    _add_broker_fleet_flags(b)
    b.add_argument("--modes", default=None, metavar="M1;M2;...",
                   help="policies to compare, ';'-separated (default: direct, "
                        "both static detours, broker)")
    b.add_argument("--seeds", default=None, metavar="S1,S2,...")
    _add_cache_flags(b)
    b.add_argument("--metrics", default=None, metavar="FILE",
                   help="export the per-policy score rollup: '-' prints a "
                        "table, any other path gets Prometheus text")

    b = bsub.add_parser("export", help="canonical JSON of every stored fleet "
                                       "cell, in sweep order")
    _add_broker_fleet_flags(b)
    b.add_argument("--modes", default=None, metavar="M1;M2;...")
    b.add_argument("--seeds", default=None, metavar="S1,S2,...")
    b.add_argument("--cache-dir", default=None, metavar="DIR", dest="cache_dir",
                   help="result store directory to export from")
    b.add_argument("--out", default=None, metavar="FILE",
                   help="write the export to FILE instead of stdout")

    p = sub.add_parser("shard", help="run a fleet as sharded campaign cells "
                                     "with a shared route directory")
    hsub = p.add_subparsers(dest="shard_command", required=True)

    h = hsub.add_parser("run", help="execute (or resume) a sharded fleet "
                                    "plan under a run root, then merge")
    _add_broker_fleet_flags(h)
    h.add_argument("--root", required=True, metavar="DIR",
                   help="run root: cell store, shared directory tier, and "
                        "the plan's provenance file live under it")
    h.add_argument("--modes", default=None, metavar="M1;M2;...",
                   help="policies to compare, ';'-separated "
                        "(default: direct;broker)")
    h.add_argument("--shards", type=int, default=1, metavar="N",
                   help="stable-hash site partitions (default: 1)")
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes (default: 1, in-process)")
    h.add_argument("--timeout-s", type=float, default=None, dest="timeout_s",
                   metavar="S", help="per-cell wall-clock budget "
                                     "(needs --jobs > 1)")
    h.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a worker crash/timeout "
                        "(default: 1)")
    h.add_argument("--warm-from", default=None, metavar="NAME",
                   dest="warm_from",
                   help="published directory snapshot to preload broker "
                        "cells from (e.g. a previous run's 'merged-<key>')")
    h.add_argument("--topo", default=None, metavar="SPEC.json",
                   help="run the fleet on a generated world spec instead of "
                        "the calibrated case study")
    h.add_argument("--per-site", action="store_true", dest="per_site",
                   help="include the per-site breakdown in the merged score")
    h.add_argument("--metrics", default=None, metavar="FILE",
                   help="export run metrics: '-' prints a table, any other "
                        "path gets Prometheus exposition text")
    h.add_argument("--progress", action="store_true",
                   help="stream one telemetry line per cell-lifecycle event "
                        "to stderr")

    h = hsub.add_parser("status", help="how far the run under a root has "
                                       "progressed (crash-safe, read-only)")
    h.add_argument("--root", required=True, metavar="DIR")

    h = hsub.add_parser("merge", help="fold a completed run's stored cells "
                                      "and published reports into the fleet "
                                      "score (works offline)")
    h.add_argument("--root", required=True, metavar="DIR")
    h.add_argument("--per-site", action="store_true", dest="per_site")
    h.add_argument("--metrics", default=None, metavar="FILE",
                   help="export merge metrics: '-' prints a table, any "
                        "other path gets Prometheus exposition text")

    p = sub.add_parser("obs", help="run an instrumented compare and export "
                                   "its metrics, spans, and profile")
    p.add_argument("client", nargs="?", default="ubc",
                   choices=["ubc", "purdue", "ucla"])
    p.add_argument("provider", nargs="?", default="gdrive",
                   choices=["gdrive", "dropbox", "onedrive"])
    p.add_argument("--size-mb", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--format", choices=["text", "json", "prom"], default="text",
                   dest="fmt",
                   help="text: timeline + metrics table; json: JSON-lines "
                        "metrics+trace dump; prom: Prometheus exposition")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the export to FILE instead of stdout")
    p.add_argument("--profile", action="store_true",
                   help="also print the kernel wall-time profile (text format)")
    p.add_argument("--profile-trace", default=None, metavar="FILE",
                   dest="profile_trace",
                   help="record the profiler timeline and write it as "
                        "Chrome-trace/Perfetto JSON")
    p.add_argument("--profile-stacks", default=None, metavar="FILE",
                   dest="profile_stacks",
                   help="write self-time-weighted collapsed stacks in "
                        "flamegraph format")

    p = sub.add_parser("bench", help="trend ledger over the benchmark "
                                     "suite's BENCH_*.json results")
    nsub = p.add_subparsers(dest="bench_command", required=True)

    n = nsub.add_parser("check", help="flag results that regressed past a "
                                      "threshold vs the ledger's last "
                                      "generation (exit 1 on regression)")
    n.add_argument("--results-dir", default="benchmarks/results",
                   dest="results_dir", metavar="DIR",
                   help="directory holding BENCH_*.json "
                        "(default: benchmarks/results)")
    n.add_argument("--ledger", default=None, metavar="FILE",
                   help="ledger path (default: <results-dir>/"
                        "bench_ledger.jsonl)")
    n.add_argument("--threshold", type=float, default=None,
                   help="degradation ratio that counts as a regression "
                        "(default: 1.25)")
    n.add_argument("--record", action="store_true",
                   help="after checking, append the current results to the "
                        "ledger as a new generation")
    n.add_argument("--note", default="", metavar="TEXT",
                   help="free-form note stored with --record")

    n = nsub.add_parser("trend", help="print the per-metric value trail "
                                      "over recent ledger generations")
    n.add_argument("--results-dir", default="benchmarks/results",
                   dest="results_dir", metavar="DIR")
    n.add_argument("--ledger", default=None, metavar="FILE")
    n.add_argument("--suite", default=None,
                   help="restrict to one suite (the X of BENCH_X.json)")
    n.add_argument("--last", type=int, default=8, metavar="N",
                   help="show the most recent N generations (default: 8)")

    p = sub.add_parser("topo", help="generate, ingest, compile, and export "
                                    "topology worlds (see docs/TOPOLOGY.md)")
    tsub = p.add_subparsers(dest="topo_command", required=True)

    t = tsub.add_parser("generate", help="write a world spec (JSON): a "
                                         "synthetic preset or an ingested "
                                         "ITDK-style snapshot")
    t.add_argument("--preset", choices=["smoke", "metro", "internet"],
                   default="metro",
                   help="synthetic recipe size (default: metro)")
    t.add_argument("--seed", type=int, default=0,
                   help="generator seed baked into the spec")
    t.add_argument("--name", default=None,
                   help="spec name (default: the preset name)")
    t.add_argument("--from-itdk", default=None, metavar="DIR", dest="from_itdk",
                   help="ingest an ITDK-style snapshot directory instead of "
                        "generating synthetically")
    t.add_argument("--prefix", default="itdk",
                   help="with --from-itdk: snapshot file prefix")
    t.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="spec JSON path (default: <name>.topo.json)")

    t = tsub.add_parser("inspect", help="summarize a spec JSON or a compiled "
                                        ".npz world")
    t.add_argument("path", help="a *.topo.json spec or a compiled *.npz")

    t = tsub.add_parser("compile", help="compile a spec to flat arrays + "
                                        "precomputed routes (.npz)")
    t.add_argument("spec", help="spec JSON path")
    t.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="compiled output (default: <spec stem>.npz)")
    t.add_argument("--cache-dir", default=None, metavar="DIR", dest="cache_dir",
                   help="content-addressed compiled-world cache directory")
    t.add_argument("--no-routes", action="store_true", dest="no_routes",
                   help="skip route precomputation (routes resolve on "
                        "demand at materialize time)")

    t = tsub.add_parser("export", help="write a spec's expanded graph as an "
                                       "ITDK-style text snapshot")
    t.add_argument("spec", help="spec JSON path")
    t.add_argument("-o", "--out", required=True, metavar="DIR",
                   help="snapshot output directory")
    t.add_argument("--prefix", default="itdk", help="snapshot file prefix")

    p = sub.add_parser("lint", help="statically check the simulation invariants "
                                    "(determinism / units / kernel-safety)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: the installed "
                        "repro package); the literal first path 'graph' "
                        "prints call-graph and cache stats instead")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text", dest="fmt")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline JSON (default: auto-discover lint_baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline to cover the current findings")
    p.add_argument("--cache-dir", default=None, metavar="DIR", dest="cache_dir",
                   help="incremental analysis cache (default: .lint_cache)")
    p.add_argument("--no-cache", action="store_true", dest="no_cache",
                   help="analyze from scratch, neither reading nor writing "
                        "the cache")
    return parser


def _analysis_config(fast: bool, seed: int):
    from repro.analysis import AnalysisConfig
    from repro.measure import ExperimentProtocol

    if fast:
        return AnalysisConfig(master_seed=seed, sizes_mb=(10, 50, 100),
                              protocol=ExperimentProtocol(3, 1))
    return AnalysisConfig(master_seed=seed)


def _split_csv(text: Optional[str], cast=str, sep: str = ",") -> Optional[tuple]:
    if text is None:
        return None
    return tuple(cast(part.strip()) for part in text.split(sep) if part.strip())


def _campaign_spec(args):
    """Build a CampaignSpec from the shared matrix flags."""
    from repro.campaign import CampaignSpec
    from repro.measure import ExperimentProtocol

    protocol = ExperimentProtocol(3, 1) if args.fast else ExperimentProtocol()
    return CampaignSpec(
        clients=_split_csv(args.clients) or CampaignSpec.clients,
        providers=_split_csv(args.providers) or CampaignSpec.providers,
        routes=_split_csv(args.routes, sep=";"),
        sizes_mb=_split_csv(args.sizes_mb, cast=float) or CampaignSpec.sizes_mb,
        seeds=_split_csv(args.seeds, cast=int) or (0,),
        protocol=protocol,
        cross_traffic=not args.no_cross_traffic,
    )


def _campaign_store(args, required: bool):
    from repro.campaign import ResultStore

    if args.cache_dir:
        return ResultStore(args.cache_dir)
    if required:
        raise SystemExit("error: this campaign command needs --cache-dir")
    return None


def _warmed_config(cfg, args):
    """Honour --cache-dir/--jobs on report/table/figure.

    With a cache dir, cells read from / persist to the store.  With
    ``--jobs N > 1`` the full report matrix is precomputed by a parallel
    campaign first (into the cache dir, or a throwaway store), so the
    serial rendering path finds every cell already measured.  Returns
    ``(cfg, keepalive)`` — hold *keepalive* until rendering is done.
    """
    from dataclasses import replace

    from repro.analysis import report_campaign_spec
    from repro.campaign import CampaignRunner, PoolConfig, ResultStore

    store = _campaign_store(args, required=False)
    keepalive = None
    if args.jobs > 1:
        if store is None:
            import tempfile

            keepalive = tempfile.TemporaryDirectory(prefix="repro-campaign-")
            store = ResultStore(keepalive.name)
        cfg = replace(cfg, store=store)
        result = CampaignRunner(report_campaign_spec(cfg), store=store,
                                pool=PoolConfig(jobs=args.jobs),
                                metrics=cfg.metrics).run()
        print(f"campaign: {result.executed} cell(s) computed with "
              f"--jobs {args.jobs}, {result.cached} from cache", file=sys.stderr)
        return cfg, keepalive
    if store is not None:
        cfg = replace(cfg, store=store)
    return cfg, keepalive


def _obs_requested(args) -> bool:
    return bool(args.metrics or args.trace_out or _profile_requested(args))


def _profile_requested(args) -> bool:
    return bool(args.profile or getattr(args, "profile_trace", None)
                or getattr(args, "profile_stacks", None))


def _build_profiler(args):
    """A profiler matching the flags: timeline recording only when a
    Chrome-trace export was asked for (it is the only consumer)."""
    from repro.obs import KernelProfiler

    return KernelProfiler(timeline=bool(getattr(args, "profile_trace", None)))


def _instrumented_world(args):
    """Build the case-study world honouring the observability flags.

    Without any obs flag this is exactly ``build_case_study(seed=...)``,
    so default runs stay byte-identical to the uninstrumented CLI.
    """
    from repro.testbed import build_case_study

    obs_on = _obs_requested(args)
    return build_case_study(
        seed=args.seed,
        trace=obs_on,
        metrics=bool(args.metrics or args.trace_out),
        profile=_build_profiler(args) if _profile_requested(args) else False,
    )


def _write_profile_exports(profiler, args) -> None:
    """Honour --profile-trace / --profile-stacks for a finished profiler."""
    from repro.obs import write_chrome_trace, write_collapsed_stacks

    trace_path = getattr(args, "profile_trace", None)
    stacks_path = getattr(args, "profile_stacks", None)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fp:
            n = write_chrome_trace(fp, profiler)
        print(f"wrote Chrome trace ({n} events) to {trace_path}")
    if stacks_path:
        with open(stacks_path, "w", encoding="utf-8") as fp:
            n = write_collapsed_stacks(fp, profiler)
        print(f"wrote {n} collapsed stack(s) to {stacks_path}")


def _emit_obs(world, args) -> None:
    """Print/write the obs exports selected by the shared flags."""
    from repro.analysis import span_timeline
    from repro.obs import (
        extract_span_records,
        record_trace_health,
        render_metrics_table,
        render_prometheus,
        write_jsonl,
    )

    record_trace_health(world.metrics, world.tracer)
    print()
    print(span_timeline(extract_span_records(world.tracer)))
    print(f"trace: {len(world.tracer)} event(s), "
          f"{world.tracer.dropped} dropped")
    if args.metrics == "-":
        print()
        print(render_metrics_table(world.metrics))
    elif args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fp:
            fp.write(render_prometheus(world.metrics))
        print(f"\nwrote Prometheus metrics to {args.metrics}")
    if args.trace_out == "-":
        print()
        write_jsonl(sys.stdout, metrics=world.metrics, tracer=world.tracer)
    elif args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fp:
            lines = write_jsonl(fp, metrics=world.metrics, tracer=world.tracer)
        print(f"\nwrote {lines} JSON lines to {args.trace_out}")
    if args.profile and world.profiler is not None:
        print()
        print(world.profiler.report())
    if world.profiler is not None:
        _write_profile_exports(world.profiler, args)


def _cmd_compare(args) -> int:
    from repro.core import DetourPlanner

    world = _instrumented_world(args)
    planner = DetourPlanner(world, runs_per_route=args.runs,
                            discard_runs=1 if args.runs > 1 else 0)
    comparison = planner.compare(args.client, args.provider,
                                 int(units.mb(args.size_mb)))
    print(comparison.render())
    if _obs_requested(args):
        _emit_obs(world, args)
    return 0


def _cmd_upload(args) -> int:
    from repro.core import DetourPlanner

    world = _instrumented_world(args)
    planner = DetourPlanner(world)
    planned = planner.upload(args.client, args.provider, int(units.mb(args.size_mb)))
    print(planned.comparison.render())
    print()
    print(planned.final.describe())
    if _obs_requested(args):
        _emit_obs(world, args)
    return 0


def _cmd_traceroute(args) -> int:
    from repro.net import format_traceroute, traceroute
    from repro.sim.rng import RngRegistry
    from repro.testbed import build_case_study

    world = build_case_study(seed=args.seed, cross_traffic=False)
    dst = world.topology.node(args.dst)
    hops = traceroute(world.router, args.src, args.dst,
                      rng=RngRegistry(args.seed).stream("cli.traceroute"))
    print(format_traceroute(hops, dst.hostname, dst.address, show_rtts=True))
    return 0


def _cmd_figure(args) -> int:
    from repro.analysis import run_figure, run_traceroute_figures

    if args.figure_id in ("fig5", "fig6"):
        figs = run_traceroute_figures(seed=args.seed)
        print(figs[args.figure_id])
        return 0
    cfg, keepalive = _warmed_config(_analysis_config(args.fast, args.seed), args)
    result = run_figure(args.figure_id, cfg)
    print(result.render())
    del keepalive
    return 0


def _cmd_table(args) -> int:
    from repro.analysis import (
        render_table1,
        render_table4,
        render_table5,
        run_table1,
        run_table2,
        run_table3,
        run_table4,
        run_table5,
    )

    cfg, keepalive = _warmed_config(_analysis_config(args.fast, args.seed), args)
    if args.table_id == "1":
        print(render_table1(run_table1(cfg)))
    elif args.table_id == "2":
        print(run_table2(cfg).render(show_std=True))
    elif args.table_id == "3":
        print(run_table3(cfg).render(show_std=True))
    elif args.table_id == "4":
        sizes = (100, 60) if not args.fast else (100,)
        print(render_table4(run_table4(cfg, sizes_mb=sizes)))
    else:
        print(render_table5(run_table5(cfg)))
    del keepalive
    return 0


def _cmd_routeviews(args) -> int:
    from repro.net import RouteCollector, detect_policy_anomalies
    from repro.testbed import build_case_study
    from repro.testbed.build import AS_NUMBERS

    world = build_case_study(seed=args.seed, cross_traffic=False)
    dest_asn = AS_NUMBERS[args.dest]
    collector = RouteCollector(world.router.bgp)
    print(collector.dump(dest_asn))
    print()
    frontends = {"google": "gdrive-frontend", "dropbox": "dropbox-frontend",
                 "microsoft": "onedrive-frontend"}
    anomalies = detect_policy_anomalies(
        world.router,
        ["ubc-pl", "ualberta-dtn", "umich-pl", "purdue-pl", "ucla-pl"],
        frontends[args.dest],
    )
    if anomalies:
        print("control-plane vs forwarding-plane anomalies:")
        for a in anomalies:
            print("  " + a.render())
    else:
        print("no control/forwarding anomalies observed")
    return 0


def _cmd_tiv(args) -> int:
    from repro.overlay import ProbeMesh, catalog_tivs
    from repro.testbed import build_case_study

    world = build_case_study(seed=args.seed, cross_traffic=False)
    mesh = ProbeMesh(world, ["ubc-pl", "ualberta-dtn", "umich-pl",
                             "purdue-pl", "ucla-pl"], probe_bytes=2 * units.MB)
    proc = world.sim.process(mesh.probe_round())
    world.sim.run_until_triggered(proc.done, horizon=1e7)
    records = catalog_tivs(mesh, margin=args.margin)
    print(f"probed {len(mesh.pairs())} pairs; "
          f"{len(records)} violations at margin {args.margin:.2f}:")
    for rec in records:
        print("  " + rec.describe())
    return 0


def _cmd_validate(args) -> int:
    from repro.testbed import render_validation, validate_calibration

    checks = validate_calibration(size_mb=args.size_mb, seed=args.seed)
    print(render_validation(checks, tolerance=args.tolerance))
    return 0 if all(c.ok(args.tolerance) for c in checks) else 1


def _cmd_report(args) -> int:
    from repro.analysis import generate_full_report

    cfg = _analysis_config(args.fast, args.seed)
    registry = profiler = None
    if _obs_requested(args):
        from dataclasses import replace

        from repro.obs import MetricsRegistry

        if args.trace_out:
            print("note: --trace-out is ignored by report (per-world traces "
                  "are not aggregated)", file=sys.stderr)
        if args.metrics:
            registry = MetricsRegistry()
        if _profile_requested(args):
            profiler = _build_profiler(args)
        cfg = replace(cfg, metrics=registry, profiler=profiler)
    cfg, keepalive = _warmed_config(cfg, args)
    print(generate_full_report(cfg))
    del keepalive
    if registry is not None:
        from repro.obs import render_metrics_table, render_prometheus

        if args.metrics == "-":
            print()
            print(render_metrics_table(registry))
        else:
            with open(args.metrics, "w", encoding="utf-8") as fp:
                fp.write(render_prometheus(registry))
            print(f"\nwrote Prometheus metrics to {args.metrics}")
    if profiler is not None:
        if args.profile:
            print()
            print(profiler.report())
        _write_profile_exports(profiler, args)
    return 0


def _cmd_obs(args) -> int:
    from repro.analysis import span_timeline
    from repro.core import DetourPlanner
    from repro.obs import (
        extract_span_records,
        record_trace_health,
        render_metrics_table,
        render_prometheus,
        write_jsonl,
    )
    from repro.testbed import build_case_study

    profile = (_build_profiler(args) if _profile_requested(args)
               else args.profile)
    world = build_case_study(seed=args.seed, trace=True, metrics=True,
                             profile=profile)
    planner = DetourPlanner(world, runs_per_route=args.runs,
                            discard_runs=1 if args.runs > 1 else 0)
    comparison = planner.compare(args.client, args.provider,
                                 int(units.mb(args.size_mb)))

    record_trace_health(world.metrics, world.tracer)
    out = sys.stdout if args.out in (None, "-") else open(
        args.out, "w", encoding="utf-8")
    try:
        if args.fmt == "json":
            write_jsonl(out, metrics=world.metrics, tracer=world.tracer)
        elif args.fmt == "prom":
            out.write(render_prometheus(world.metrics))
        else:
            out.write(comparison.render() + "\n\n")
            out.write(span_timeline(extract_span_records(world.tracer)) + "\n\n")
            out.write(f"trace: {len(world.tracer)} event(s), "
                      f"{world.tracer.dropped} dropped\n\n")
            out.write(render_metrics_table(world.metrics) + "\n")
            if args.profile and world.profiler is not None:
                out.write("\n" + world.profiler.report() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
            print(f"wrote {args.fmt} export to {args.out}")
    if world.profiler is not None:
        _write_profile_exports(world.profiler, args)
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignRunner,
        PoolConfig,
        campaign_status,
        export_campaign,
    )
    from repro.obs import MetricsRegistry

    spec = _campaign_spec(args)

    if args.campaign_command == "run":
        store = _campaign_store(args, required=False)
        registry = MetricsRegistry()
        pool = PoolConfig(jobs=args.jobs, timeout_s=args.timeout_s,
                          retries=args.retries)
        telemetry = None
        if args.progress or args.metrics:
            from repro.obs import TelemetryAggregator, render_event

            on_event = None
            if args.progress:
                def on_event(ev):
                    print(render_event(ev), file=sys.stderr)
            telemetry = TelemetryAggregator(metrics=registry,
                                            on_event=on_event)
        result = CampaignRunner(spec, store=store, pool=pool,
                                metrics=registry, telemetry=telemetry).run()
        if telemetry is not None and args.progress:
            from repro.obs import render_progress

            print(render_progress(telemetry.snapshot()), file=sys.stderr)
        for rec in result.records:
            if rec.ok:
                mean = rec.measurement.kept.mean
                print(f"  ok    {rec.cell.describe():<44} mean {mean:9.2f} s")
            else:
                print(f"  ERROR {rec.cell.describe():<44} "
                      f"{rec.error.describe()}")
        print(f"\n{spec.describe()}")
        print(f"executed {result.executed}, cached {result.cached}, "
              f"quarantined {result.errors}"
              + (f"; store: {store.root}" if store is not None else ""))
        if args.metrics:
            _write_cli_metrics(registry, args.metrics)
        return 0 if result.errors == 0 else 1

    store = _campaign_store(args, required=True)
    if args.campaign_command == "status":
        if args.watch:
            import time

            from repro.obs import ProgressSnapshot, render_progress

            print(f"{spec.describe()}  (store: {store.root})")
            while True:
                status = campaign_status(spec, store)
                snap = ProgressSnapshot(total=status["total"],
                                        finished_ok=status["ok"],
                                        finished_error=status["error"])
                print(render_progress(snap), flush=True)
                if status["missing"] == 0:
                    break
                time.sleep(args.interval_s)
            return 0 if status["error"] == 0 else 1
        status = campaign_status(spec, store)
        print(f"{spec.describe()}")
        print(f"ok {status['ok']}  error {status['error']}  "
              f"missing {status['missing']}  (store: {store.root})")
        for desc in status["missing_cells"][:20]:
            print(f"  missing: {desc}")
        if status["missing"] > 20:
            print(f"  ... and {status['missing'] - 20} more")
        return 0 if status["missing"] == 0 and status["error"] == 0 else 1

    # export
    if args.out in (None, "-"):
        export_campaign(spec, store, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            n = export_campaign(spec, store, fp)
        print(f"exported {n} cell record(s) to {args.out}")
    return 0


def _broker_sweep_spec(args):
    """Build a BrokerSweepSpec from the shared fleet flags."""
    from repro.broker import BrokerSweepSpec

    return BrokerSweepSpec(
        sites=_split_csv(args.sites) or BrokerSweepSpec.sites,
        provider=args.provider,
        modes=_split_csv(args.modes, sep=";") or BrokerSweepSpec.modes,
        n_uploads_per_site=args.uploads_per_site,
        mean_interarrival_s=args.interarrival_s,
        mean_size_mb=args.size_mb,
        size_dist=args.size_dist,
        seeds=_split_csv(args.seeds, cast=int) or (0,),
        cross_traffic=not args.no_cross_traffic,
    )


def _cmd_broker(args) -> int:
    from repro.broker import BrokerSweepSpec, run_fleet, score_sweep

    if args.broker_command == "simulate":
        registry = profiler = None
        if args.metrics:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
        if args.profile_trace:
            from repro.obs import KernelProfiler

            profiler = KernelProfiler(timeline=True)
        result = run_fleet(
            seed=args.seed,
            sites=_split_csv(args.sites) or BrokerSweepSpec.sites,
            provider=args.provider,
            n_uploads_per_site=args.uploads_per_site,
            mean_interarrival_s=args.interarrival_s,
            mean_size_mb=args.size_mb,
            size_dist=args.size_dist,
            mode=args.mode,
            cross_traffic=not args.no_cross_traffic,
            metrics=registry if registry is not None else False,
            profile=profiler if profiler is not None else False,
        )
        if args.show_uploads:
            for r in result.records:
                print(f"  #{r.index:<3} t={r.start_s:8.1f}s {r.client_site:<7} "
                      f"{r.size_bytes / 1e6:7.1f} MB  {r.route_descr:<13} "
                      f"[{r.source}{', spilled' if r.spilled else ''}]  "
                      f"{r.duration_s:8.2f} s")
        n = len(result.records)
        print(f"fleet [{result.mode}]: {n} uploads, "
              f"mean transfer {result.mean_transfer_s:.2f} s")
        print(f"  probes {result.probes_issued} "
              f"({result.probes_per_upload:.2f}/upload), "
              f"directory hit rate {result.hit_rate:.0%} "
              f"({result.directory_hits}/{result.directory_hits + result.directory_misses}), "
              f"evictions {result.directory_evictions}, "
              f"admission spills {result.admission_spills}")
        if registry is not None:
            _write_cli_metrics(registry, args.metrics)
        if profiler is not None:
            _write_profile_exports(profiler, args)
        return 0

    from repro.campaign import CampaignRunner, PoolConfig, export_campaign

    spec = _broker_sweep_spec(args)
    store = _campaign_store(args, required=(args.broker_command == "export"))

    if args.broker_command == "eval":
        pool = PoolConfig(jobs=args.jobs)
        result = CampaignRunner(spec, store=store, pool=pool).run()
        for rec in result.records:
            if not rec.ok:
                print(f"  ERROR {rec.cell.describe():<52} {rec.error.describe()}")
        print(spec.describe())
        print(f"executed {result.executed}, cached {result.cached}, "
              f"quarantined {result.errors}"
              + (f"; store: {store.root}" if store is not None else ""))
        if result.errors:
            return 1
        summary = score_sweep(spec, result.records)
        print()
        print(summary.render())
        if args.metrics:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
            summary.to_metrics(registry)
            _write_cli_metrics(registry, args.metrics)
        return 0

    # export
    if args.out in (None, "-"):
        export_campaign(spec, store, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            n = export_campaign(spec, store, fp)
        print(f"exported {n} fleet cell record(s) to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    import os

    from repro.obs.bench import (
        DEFAULT_THRESHOLD,
        check_regressions,
        load_bench_results,
        read_ledger,
        record_generation,
        render_regressions,
        render_trend,
    )

    ledger_path = args.ledger or os.path.join(args.results_dir,
                                              "bench_ledger.jsonl")
    if args.bench_command == "trend":
        print(render_trend(read_ledger(ledger_path), suite=args.suite,
                           last=args.last))
        return 0

    # check
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    results = load_bench_results(args.results_dir)
    if not results:
        print(f"bench check: no BENCH_*.json under {args.results_dir}")
        return 0
    ledger = read_ledger(ledger_path)
    regressions = check_regressions(results, ledger, threshold=threshold)
    print(render_regressions(regressions, threshold))
    if not ledger:
        print("note: ledger is empty — nothing to compare against"
              + ("" if args.record else "; use --record to seed it"))
    if args.record:
        import datetime

        stamp = datetime.datetime.now().isoformat(timespec="seconds")
        gen = record_generation(ledger_path, results, stamp=stamp,
                                note=args.note)
        print(f"recorded generation {gen} in {ledger_path}")
    return 1 if regressions else 0


def _cmd_lint(args) -> int:
    from repro.lint import run_graph_export, run_lint

    if args.paths and args.paths[0] == "graph":
        return run_graph_export(
            paths=args.paths[1:] or None,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
        )
    return run_lint(
        paths=args.paths or None,
        fmt=args.fmt,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        update_baseline=args.update_baseline,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )


def _write_cli_metrics(registry, dest: str) -> None:
    """Shared `--metrics` epilogue: '-' prints a table, else Prometheus."""
    from repro.obs import render_metrics_table, render_prometheus

    if dest == "-":
        print()
        print(render_metrics_table(registry))
    else:
        with open(dest, "w", encoding="utf-8") as fp:
            fp.write(render_prometheus(registry))
        print(f"wrote Prometheus metrics to {dest}")


def _cmd_shard(args) -> int:
    from repro.shard import ShardPlan, merge_sharded, run_sharded, shard_status
    from repro.shard.runner import read_run_file

    if args.shard_command == "run":
        from repro.broker import BrokerSweepSpec

        registry = None
        if args.metrics or args.progress:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
        telemetry = None
        if args.progress:
            from repro.obs import TelemetryAggregator, render_event

            def on_event(ev):
                print(render_event(ev), file=sys.stderr)

            telemetry = TelemetryAggregator(metrics=registry,
                                            on_event=on_event)
        plan = ShardPlan(
            sites=_split_csv(args.sites) or BrokerSweepSpec.sites,
            provider=args.provider,
            modes=_split_csv(args.modes, sep=";") or ("direct", "broker"),
            n_shards=args.shards,
            n_uploads_per_site=args.uploads_per_site,
            mean_interarrival_s=args.interarrival_s,
            mean_size_mb=args.size_mb,
            size_dist=args.size_dist,
            seed=args.seed,
            cross_traffic=not args.no_cross_traffic,
            topo=_load_topo_spec(args.topo) if args.topo else None,
        )
        result = run_sharded(
            plan, args.root, jobs=args.jobs, warm_from=args.warm_from,
            timeout_s=args.timeout_s, retries=args.retries,
            metrics=registry, telemetry=telemetry)
        print(plan.describe())
        if result.warm_from is not None:
            print(f"warmed from {result.warm_from} "
                  f"({result.warm_entries} entries)")
        print(f"executed {result.executed}, cached {result.cached}; "
              f"root: {args.root}")
        print(result.merge.render(per_site=args.per_site))
        if args.metrics:
            _write_cli_metrics(registry, args.metrics)
        return 0

    payload = read_run_file(args.root)
    plan = ShardPlan.from_dict(payload["plan"])
    warm_hash = str(payload.get("warm_hash", ""))

    if args.shard_command == "status":
        status = shard_status(plan, args.root, warm_hash=warm_hash)
        print(plan.describe())
        print(f"cells ok {status['ok']}  error {status['error']}  "
              f"missing {status['missing']}  (root: {args.root})")
        print(f"site reports {status['reports_published']}"
              f"/{status['reports_expected']}; merged snapshot "
              f"{'published' if status['merged_published'] else 'missing'}")
        for desc in status["missing_cells"][:10]:
            print(f"  missing: {desc}")
        if status["missing"] > 10:
            print(f"  ... and {status['missing'] - 10} more")
        return 0 if status["missing"] == 0 and status["error"] == 0 else 1

    # merge
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    merge = merge_sharded(plan, args.root, warm_hash=warm_hash,
                          metrics=registry)
    print(plan.describe())
    print(merge.render(per_site=args.per_site))
    if args.metrics:
        _write_cli_metrics(registry, args.metrics)
    return 0


def _load_topo_spec(path: str):
    from repro.topo import TopoSpec

    with open(path, "r", encoding="utf-8") as fp:
        return TopoSpec.from_json(fp.read())


def _cmd_topo(args) -> int:
    import os

    from repro.core.atomic import atomic_write, atomic_write_text
    from repro.topo import (
        CompiledTopology,
        compile_spec,
        export_itdk,
        generate,
        ingest_itdk,
        preset_spec,
    )

    if args.topo_command == "generate":
        if args.from_itdk:
            spec = ingest_itdk(args.from_itdk, name=args.name or "ingested",
                               prefix=args.prefix)
        else:
            spec = preset_spec(args.preset, seed=args.seed,
                               name=args.name or "")
        out = args.out or f"{spec.name}.topo.json"
        atomic_write_text(out, spec.to_json() + "\n")
        stats = generate(spec).stats()
        shape = ", ".join(f"{k}={v}" for k, v in stats.items())
        print(f"wrote {out}: {spec.source} spec {spec.name!r} "
              f"(hash {spec.content_hash()[:12]}; {shape})")
        return 0

    if args.topo_command == "inspect":
        if args.path.endswith(".npz"):
            compiled = CompiledTopology.load(args.path)
            for key, value in compiled.describe().items():
                print(f"{key:>12}: {value}")
            print(f"{'digest':>12}: {compiled.content_digest()[:16]}")
        else:
            spec = _load_topo_spec(args.path)
            print(f"{'name':>12}: {spec.name}")
            print(f"{'source':>12}: {spec.source}")
            print(f"{'hash':>12}: {spec.content_hash()[:16]}")
            for key, value in generate(spec).stats().items():
                print(f"{key:>12}: {value}")
        return 0

    if args.topo_command == "compile":
        spec = _load_topo_spec(args.spec)
        compiled = compile_spec(spec, cache_dir=args.cache_dir,
                                routes=not args.no_routes)
        out = args.out or os.path.splitext(args.spec)[0] + ".npz"
        with atomic_write(out, suffix=".npz") as tmp:
            compiled.save(str(tmp))
        print(f"wrote {out}: {compiled.n_nodes} nodes, {compiled.n_links} "
              f"links, {compiled.n_routes} routes "
              f"(digest {compiled.content_digest()[:12]})")
        return 0

    # export
    spec = _load_topo_spec(args.spec)
    graph = generate(spec)
    files = export_itdk(graph, args.out, prefix=args.prefix)
    print(f"wrote {len(files)} snapshot file(s) to {args.out}")
    return 0


_COMMANDS = {
    "compare": _cmd_compare,
    "report": _cmd_report,
    "upload": _cmd_upload,
    "traceroute": _cmd_traceroute,
    "figure": _cmd_figure,
    "table": _cmd_table,
    "routeviews": _cmd_routeviews,
    "tiv": _cmd_tiv,
    "validate": _cmd_validate,
    "obs": _cmd_obs,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
    "broker": _cmd_broker,
    "shard": _cmd_shard,
    "topo": _cmd_topo,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
