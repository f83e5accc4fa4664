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
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

_SITES = ["ubc", "purdue", "ucla"]
_PROVIDERS = ["gdrive", "dropbox", "onedrive"]

# Every flag that more than one parser takes, declared once: its name ->
# its argparse keywords.  The help here is the one most uses print;
# `_add` takes a per-use override where a parser's text differs.
_FLAGS = {
    "client": dict(choices=_SITES),
    "provider": dict(choices=_PROVIDERS),
    "spec": dict(help="spec JSON path"),
    "--size-mb": dict(type=float, default=100.0),
    "--seed": dict(type=int, default=0),
    "--runs": dict(type=int, default=3),
    "--fast": dict(action="store_true"),
    "--jobs": dict(type=int, default=1, metavar="N",
                   help="precompute the experiment matrix with N parallel "
                        "workers before rendering (default: 1, in-process)"),
    "--timeout-s": dict(type=float, metavar="S", help="per-cell wall-clock "
                        "budget (needs --jobs > 1)"),
    "--retries": dict(type=int, default=1, help="extra attempts after a "
                      "worker crash/timeout (default: 1)"),
    "--cache-dir": dict(metavar="DIR", help="campaign result store: reuse "
                        "cells already there, persist cells computed here"),
    "--out": dict(metavar="FILE",
                  help="write the export to FILE instead of stdout"),
    "--root": dict(required=True, metavar="DIR"),
    "--per-site": dict(action="store_true"),
    "--metrics": dict(metavar="FILE", help="export metrics: '-' prints a "
                      "table to stdout, any other path gets Prometheus "
                      "exposition text"),
    "--trace-out": dict(metavar="FILE", help="dump metrics + trace events "
                        "as JSON lines to FILE ('-' for stdout)"),
    "--profile": dict(action="store_true", help="profile kernel callbacks "
                      "and print a wall-time report"),
    "--profile-trace": dict(metavar="FILE", help="record the profiler "
                            "timeline and write it as Chrome-trace/Perfetto "
                            "JSON (implies --profile)"),
    "--profile-stacks": dict(metavar="FILE", help="write self-time-weighted "
                             "collapsed stacks in flamegraph format "
                             "(implies --profile)"),
    "--progress": dict(action="store_true", help="stream one telemetry line "
                       "per cell-lifecycle event to stderr "
                       "(started/finished/retried/quarantined)"),
    "--clients": dict(metavar="A,B", help="comma-separated client sites "
                      "(default: ubc,purdue,ucla)"),
    "--providers": dict(metavar="A,B", help="comma-separated providers "
                        "(default: gdrive,dropbox,onedrive)"),
    "--routes": dict(metavar="R;R", help="semicolon-separated canonical "
                     "routes ('direct', 'via umich', 'via ualberta "
                     "(pipelined)'); default: the paper route set per client"),
    "--sizes-mb": dict(metavar="N,N", help="comma-separated sizes in MB "
                       "(default: the paper sweep)"),
    "--seeds": dict(metavar="S1,S2,..."),
    "--no-cross-traffic": dict(action="store_true", help="build worlds "
                               "without background cross-traffic"),
    "--sites": dict(metavar="A,B", help="comma-separated client sites "
                    "(default: ubc,purdue,ucla)"),
    "--provider": dict(default="gdrive", choices=_PROVIDERS),
    "--uploads-per-site": dict(type=int, default=20, metavar="N"),
    "--interarrival-s": dict(type=float, default=60.0, metavar="S",
                             help="mean exponential interarrival per site "
                                  "(default: 60)"),
    "--size-dist": dict(choices=["lognormal", "fixed"], default="lognormal",
                        help="heavy-tailed lognormal sizes, or every upload "
                             "at exactly --size-mb"),
    "--modes": dict(metavar="M1;M2;..."),
    "--results-dir": dict(default="benchmarks/results", metavar="DIR",
                          help="directory holding BENCH_*.json "
                               "(default: benchmarks/results)"),
    "--ledger": dict(metavar="FILE", help="ledger path (default: "
                     "<results-dir>/bench_ledger.jsonl)"),
    "--prefix": dict(default="itdk", help="snapshot file prefix"),
}

# Flag groups several parsers share, in declaration order.
_OBS = ("--metrics", "--trace-out", "--profile", "--profile-trace",
        "--profile-stacks")
_CACHE = ("--jobs", "--cache-dir")
_POOL = (("--jobs", "parallel worker processes (default: 1, in-process)"),
         "--timeout-s", "--retries")
_CAMPAIGN = (
    "--clients", "--providers", "--routes", "--sizes-mb",
    ("--seeds", {"metavar": "N,N",
                 "help": "comma-separated master seeds (default: 0)"}),
    ("--fast", "3 runs (discard 1) instead of the paper's 7-run protocol"),
    "--no-cross-traffic",
    ("--cache-dir", "result store directory (run: resume into it; "
                    "status/export: read from it)"))
_FLEET = (
    "--sites", "--provider", "--uploads-per-site", "--interarrival-s",
    ("--size-mb", {"default": 40.0,
                   "help": "mean upload size in MB (default: 40)"}),
    "--size-dist", "--no-cross-traffic")


def _add(p: argparse.ArgumentParser, *flags) -> None:
    """Attach `_FLAGS` entries to *p* in order.  A flag is its table key,
    or a ``(key, use)`` pair: *use* is this parser's help text (None for
    none), or a dict of argparse keywords that override the table's."""
    for flag in flags:
        key, use = flag if isinstance(flag, tuple) else (flag, {})
        p.add_argument(key, **{**_FLAGS[key], **(
            use if isinstance(use, dict) else {"help": use})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Routing detours to cloud-storage providers (IPPS 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="measure direct vs detour routes for one upload")
    _add(p, "client", "provider", "--size-mb", "--seed", "--runs", *_OBS)

    p = sub.add_parser("upload", help="plan (compare) and execute the best route")
    _add(p, "client", "provider", "--size-mb", "--seed", *_OBS)

    p = sub.add_parser("traceroute", help="traceroute between two simulated hosts")
    p.add_argument("src")
    p.add_argument("dst")
    _add(p, "--seed")

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("figure_id",
                   choices=["fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                            "fig9", "fig10", "fig11"])
    _add(p, ("--fast", "3 runs x 3 sizes instead of the full protocol"),
         "--seed", *_CACHE)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("table_id", choices=["1", "2", "3", "4", "5"])
    _add(p, "--fast", "--seed", *_CACHE)

    p = sub.add_parser("routeviews", help="dump the BGP RIB toward a provider AS "
                                          "and flag control/forwarding anomalies")
    p.add_argument("dest", choices=["google", "dropbox", "microsoft"])
    _add(p, "--seed")

    p = sub.add_parser("tiv", help="probe the overlay mesh and catalog "
                                   "triangle-inequality violations")
    _add(p, "--seed")
    p.add_argument("--margin", type=float, default=1.10)

    p = sub.add_parser("validate", help="check the testbed calibration against "
                                        "the paper-derived targets")
    _add(p, "--size-mb")
    p.add_argument("--tolerance", type=float, default=0.35)
    _add(p, "--seed")

    p = sub.add_parser("report", help="regenerate all tables + the "
                                      "paper-vs-measured comparison")
    _add(p, "--fast", "--seed", *_CACHE, *_OBS)

    p = sub.add_parser("campaign", help="run/inspect/export an experiment "
                                        "campaign (parallel, cached, resumable)")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="execute every cell of the matrix not "
                                    "already in the store")
    _add(c, *_CAMPAIGN, *_POOL,
         ("--metrics", "export campaign metrics: '-' prints a table, any "
                       "other path gets Prometheus exposition text"),
         "--progress")

    c = csub.add_parser("status", help="how much of the matrix the store holds")
    _add(c, *_CAMPAIGN)
    c.add_argument("--watch", action="store_true",
                   help="re-poll the store and print a progress line until "
                        "every cell is present (follow a run live)")
    c.add_argument("--interval-s", type=float, default=2.0, dest="interval_s",
                   metavar="S", help="poll interval for --watch (default: 2)")

    c = csub.add_parser("export", help="canonical JSON of every stored cell, "
                                       "in spec order")
    _add(c, *_CAMPAIGN, "--out")

    p = sub.add_parser("broker", help="simulate/evaluate the detour-brokerage "
                                      "control plane over a client fleet")
    bsub = p.add_subparsers(dest="broker_command", required=True)

    b = bsub.add_parser("simulate", help="run one fleet under one policy and "
                                         "print the per-upload ledger")
    _add(b, *_FLEET)
    b.add_argument("--mode", default="broker", metavar="POLICY",
                   help="'broker', 'direct', or 'static:<route>' "
                        "(default: broker)")
    _add(b, "--seed")
    b.add_argument("--uploads", action="store_true", dest="show_uploads",
                   help="also print one line per upload")
    _add(b, ("--metrics", "export per-site fleet metrics: '-' prints a "
                          "table, any other path gets Prometheus exposition "
                          "text"),
         ("--profile-trace", "profile the fleet's kernel and write the "
                             "timeline as Chrome-trace/Perfetto JSON"))

    b = bsub.add_parser("eval", help="run the broker-on vs broker-off sweep "
                                     "through the campaign engine and score it")
    _add(b, *_FLEET,
         ("--modes", "policies to compare, ';'-separated (default: direct, "
                     "both static detours, broker)"),
         "--seeds", *_CACHE,
         ("--metrics", "export the per-policy score rollup: '-' prints a "
                       "table, any other path gets Prometheus text"))

    b = bsub.add_parser("export", help="canonical JSON of every stored fleet "
                                       "cell, in sweep order")
    _add(b, *_FLEET, "--modes", "--seeds",
         ("--cache-dir", "result store directory to export from"), "--out")

    p = sub.add_parser("shard", help="run a fleet as sharded campaign cells "
                                     "with a shared route directory")
    hsub = p.add_subparsers(dest="shard_command", required=True)

    h = hsub.add_parser("run", help="execute (or resume) a sharded fleet "
                                    "plan under a run root, then merge")
    _add(h, *_FLEET,
         ("--root", "run root: cell store, shared directory tier, and the "
                    "plan's provenance file live under it"),
         ("--modes", "policies to compare, ';'-separated "
                     "(default: direct;broker)"))
    h.add_argument("--shards", type=int, default=1, metavar="N",
                   help="stable-hash site partitions (default: 1)")
    _add(h, "--seed", *_POOL)
    h.add_argument("--warm-from", default=None, metavar="NAME",
                   dest="warm_from",
                   help="published directory snapshot to preload broker "
                        "cells from (e.g. a previous run's 'merged-<key>')")
    h.add_argument("--topo", default=None, metavar="SPEC.json",
                   help="run the fleet on a generated world spec instead of "
                        "the calibrated case study")
    _add(h, ("--per-site", "include the per-site breakdown in the merged "
                           "score"),
         ("--metrics", "export run metrics: '-' prints a table, any other "
                       "path gets Prometheus exposition text"),
         ("--progress", "stream one telemetry line per cell-lifecycle event "
                        "to stderr"))

    h = hsub.add_parser("status", help="how far the run under a root has "
                                       "progressed (crash-safe, read-only)")
    _add(h, "--root")

    h = hsub.add_parser("merge", help="fold a completed run's stored cells "
                                      "and published reports into the fleet "
                                      "score (works offline)")
    _add(h, "--root", "--per-site",
         ("--metrics", "export merge metrics: '-' prints a table, any other "
                       "path gets Prometheus exposition text"))

    p = sub.add_parser("obs", help="run an instrumented compare and export "
                                   "its metrics, spans, and profile")
    _add(p, ("client", {"nargs": "?", "default": "ubc"}),
         ("provider", {"nargs": "?", "default": "gdrive"}),
         ("--size-mb", {"default": 20.0}), "--seed", ("--runs", {"default": 2}))
    p.add_argument("--format", choices=["text", "json", "prom"], default="text",
                   dest="fmt",
                   help="text: timeline + metrics table; json: JSON-lines "
                        "metrics+trace dump; prom: Prometheus exposition")
    _add(p, "--out",
         ("--profile", "also print the kernel wall-time profile (text format)"),
         ("--profile-trace", "record the profiler timeline and write it as "
                             "Chrome-trace/Perfetto JSON"),
         ("--profile-stacks", "write self-time-weighted collapsed stacks in "
                              "flamegraph format"))

    p = sub.add_parser("bench", help="trend ledger over the benchmark "
                                     "suite's BENCH_*.json results")
    nsub = p.add_subparsers(dest="bench_command", required=True)

    n = nsub.add_parser("check", help="flag results that regressed past a "
                                      "threshold vs the ledger's last "
                                      "generation (exit 1 on regression)")
    _add(n, "--results-dir", "--ledger")
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
    _add(n, ("--results-dir", None), ("--ledger", None))
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
    _add(t, ("--seed", "generator seed baked into the spec"))
    t.add_argument("--name", default=None,
                   help="spec name (default: the preset name)")
    t.add_argument("--from-itdk", default=None, metavar="DIR", dest="from_itdk",
                   help="ingest an ITDK-style snapshot directory instead of "
                        "generating synthetically")
    _add(t, ("--prefix", "with --from-itdk: snapshot file prefix"))
    t.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="spec JSON path (default: <name>.topo.json)")

    t = tsub.add_parser("inspect", help="summarize a spec JSON or a compiled "
                                        ".npz world")
    t.add_argument("path", help="a *.topo.json spec or a compiled *.npz")

    t = tsub.add_parser("compile", help="compile a spec to flat arrays + "
                                        "precomputed routes (.npz)")
    _add(t, "spec")
    t.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="compiled output (default: <spec stem>.npz)")
    _add(t, ("--cache-dir", "content-addressed compiled-world cache directory"))
    t.add_argument("--no-routes", action="store_true", dest="no_routes",
                   help="skip route precomputation (routes resolve on "
                        "demand at materialize time)")

    t = tsub.add_parser("export", help="write a spec's expanded graph as an "
                                       "ITDK-style text snapshot")
    _add(t, "spec")
    t.add_argument("-o", "--out", required=True, metavar="DIR",
                   help="snapshot output directory")
    _add(t, "--prefix")

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
    _add(p, ("--cache-dir", "incremental analysis cache (default: .lint_cache)"))
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


def _obs_tools(args, registry=False):
    """The instruments the obs flags ask for, as ``(registry, profiler)``.

    A MetricsRegistry comes with ``--metrics`` or a true *registry*; a
    KernelProfiler with ``--profile``, ``--profile-trace`` or
    ``--profile-stacks``, recording a timeline only for
    ``--profile-trace``, the one export that reads it.  Each is None when
    nothing asks for it; a flag the subparser lacks asks for nothing.
    """
    from repro.obs import KernelProfiler, MetricsRegistry

    timeline = bool(getattr(args, "profile_trace", None))
    profile = (getattr(args, "profile", False) or timeline
               or getattr(args, "profile_stacks", None))
    return (MetricsRegistry() if registry or getattr(args, "metrics", None)
            else None,
            KernelProfiler(timeline=timeline) if profile else None)


def _obs_epilogue(args, registry, profiler, tracer=None, gap="") -> None:
    """Write what the obs flags asked for once the command's own output
    is printed: *tracer*'s span timeline, ``--metrics`` ('-' prints a
    table, a path gets Prometheus text and a note, with *gap* before the
    note), ``--trace-out``, the ``--profile`` report, and the
    ``--profile-trace`` / ``--profile-stacks`` files."""
    from repro.obs import render_metrics_table, render_prometheus

    if tracer is not None:
        from repro.analysis import span_timeline
        from repro.obs import extract_span_records, record_trace_health

        record_trace_health(registry, tracer)
        print()
        print(span_timeline(extract_span_records(tracer)))
        print(f"trace: {len(tracer)} event(s), {tracer.dropped} dropped")
    if args.metrics == "-":
        print()
        print(render_metrics_table(registry))
    elif args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fp:
            fp.write(render_prometheus(registry))
        print(f"{gap}wrote Prometheus metrics to {args.metrics}")
    if tracer is not None and args.trace_out:
        from repro.obs import write_jsonl

        if args.trace_out == "-":
            print()
            write_jsonl(sys.stdout, metrics=registry, tracer=tracer)
        else:
            with open(args.trace_out, "w", encoding="utf-8") as fp:
                lines = write_jsonl(fp, metrics=registry, tracer=tracer)
            print(f"\nwrote {lines} JSON lines to {args.trace_out}")
    if profiler is not None:
        if getattr(args, "profile", False):
            print()
            print(profiler.report())
        _write_profile_exports(profiler, args)


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


def _telemetry(args, registry, always: bool = False):
    """A TelemetryAggregator feeding *registry* that echoes each event to
    stderr under ``--progress``; None unless --progress or *always*."""
    if not (args.progress or always):
        return None
    from repro.obs import TelemetryAggregator, render_event

    def on_event(ev):
        print(render_event(ev), file=sys.stderr)

    return TelemetryAggregator(metrics=registry,
                               on_event=on_event if args.progress else None)


def _case_study(args):
    """The case-study world for compare/upload, traced and instrumented
    only when an obs flag asks: without one it is exactly
    ``build_case_study(seed=...)``, so default runs stay byte-identical
    to the uninstrumented CLI."""
    from repro.testbed import build_case_study

    registry, profiler = _obs_tools(args, registry=args.trace_out)
    return build_case_study(
        seed=args.seed, trace=registry is not None or profiler is not None,
        metrics=registry if registry is not None else False,
        profile=profiler if profiler is not None else False)


def _cmd_compare(args) -> int:
    from repro.core import DetourPlanner

    world = _case_study(args)
    planner = DetourPlanner(world, runs_per_route=args.runs,
                            discard_runs=1 if args.runs > 1 else 0)
    comparison = planner.compare(args.client, args.provider,
                                 int(units.mb(args.size_mb)))
    print(comparison.render())
    if world.tracer.enabled:
        _obs_epilogue(args, world.metrics, world.profiler,
                      tracer=world.tracer, gap="\n")
    return 0


def _cmd_upload(args) -> int:
    from repro.core import DetourPlanner

    world = _case_study(args)
    planner = DetourPlanner(world)
    planned = planner.upload(args.client, args.provider, int(units.mb(args.size_mb)))
    print(planned.comparison.render())
    print()
    print(planned.final.describe())
    if world.tracer.enabled:
        _obs_epilogue(args, world.metrics, world.profiler,
                      tracer=world.tracer, gap="\n")
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
    from dataclasses import replace

    from repro.analysis import generate_full_report

    if args.trace_out:
        print("note: --trace-out is ignored by report (per-world traces "
              "are not aggregated)", file=sys.stderr)
    registry, profiler = _obs_tools(args)
    cfg = replace(_analysis_config(args.fast, args.seed), metrics=registry,
                  profiler=profiler)
    cfg, keepalive = _warmed_config(cfg, args)
    print(generate_full_report(cfg))
    del keepalive
    _obs_epilogue(args, registry, profiler, gap="\n")
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

    registry, profiler = _obs_tools(args, registry=True)
    world = build_case_study(
        seed=args.seed, trace=True, metrics=registry,
        profile=profiler if profiler is not None else False)
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
            if args.profile:
                out.write("\n" + profiler.report() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
            print(f"wrote {args.fmt} export to {args.out}")
    if profiler is not None:
        _write_profile_exports(profiler, args)
    return 0


def _export(spec, store, out: Optional[str], what: str = "cell") -> int:
    """Canonical JSON of *store*'s cells for *spec*, to stdout or *out*."""
    from repro.campaign import export_campaign

    if out in (None, "-"):
        export_campaign(spec, store, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            n = export_campaign(spec, store, fp)
        print(f"exported {n} {what} record(s) to {out}")
    return 0


def _missing(status, cap: int) -> int:
    """List up to *cap* missing cells; exit 0 only when none is missing
    and none errored."""
    for desc in status["missing_cells"][:cap]:
        print(f"  missing: {desc}")
    if status["missing"] > cap:
        print(f"  ... and {status['missing'] - cap} more")
    return 0 if status["missing"] == 0 and status["error"] == 0 else 1


def _cmd_campaign(args) -> int:
    from repro.campaign import CampaignRunner, PoolConfig, campaign_status

    spec = _campaign_spec(args)

    if args.campaign_command == "run":
        store = _campaign_store(args, required=False)
        registry, _ = _obs_tools(args, registry=True)
        pool = PoolConfig(jobs=args.jobs, timeout_s=args.timeout_s,
                          retries=args.retries)
        telemetry = _telemetry(args, registry, always=bool(args.metrics))
        result = CampaignRunner(spec, store=store, pool=pool,
                                metrics=registry, telemetry=telemetry).run()
        if args.progress:
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
        _obs_epilogue(args, registry, None)
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
        return _missing(status, 20)

    return _export(spec, store, args.out)


def _fleet_axes(args) -> dict:
    """The workload fields the fleet flags set, as the keyword arguments
    BrokerSweepSpec, run_fleet and ShardPlan share."""
    from repro.broker import BrokerSweepSpec

    return dict(
        sites=_split_csv(args.sites) or BrokerSweepSpec.sites,
        provider=args.provider,
        n_uploads_per_site=args.uploads_per_site,
        mean_interarrival_s=args.interarrival_s,
        mean_size_mb=args.size_mb,
        size_dist=args.size_dist,
        cross_traffic=not args.no_cross_traffic,
    )


def _cmd_broker(args) -> int:
    from repro.broker import BrokerSweepSpec, run_fleet, score_sweep

    if args.broker_command == "simulate":
        registry, profiler = _obs_tools(args)
        result = run_fleet(
            seed=args.seed, mode=args.mode, **_fleet_axes(args),
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
        _obs_epilogue(args, registry, profiler)
        return 0

    from repro.campaign import CampaignRunner, PoolConfig

    spec = BrokerSweepSpec(
        **_fleet_axes(args),
        modes=_split_csv(args.modes, sep=";") or BrokerSweepSpec.modes,
        seeds=_split_csv(args.seeds, cast=int) or (0,))
    store = _campaign_store(args, required=(args.broker_command == "export"))
    if args.broker_command == "export":
        return _export(spec, store, args.out, what="fleet cell")

    # eval
    result = CampaignRunner(spec, store=store,
                            pool=PoolConfig(jobs=args.jobs)).run()
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
    registry, _ = _obs_tools(args)
    if registry is not None:
        summary.to_metrics(registry)
    _obs_epilogue(args, registry, None)
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



def _cmd_shard(args) -> int:
    from repro.shard import ShardPlan, merge_sharded, run_sharded, shard_status
    from repro.shard.runner import read_run_file

    if args.shard_command == "run":
        registry, _ = _obs_tools(args, registry=args.progress)
        telemetry = _telemetry(args, registry)
        plan = ShardPlan(
            **_fleet_axes(args),
            modes=_split_csv(args.modes, sep=";") or ("direct", "broker"),
            n_shards=args.shards,
            seed=args.seed,
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
        _obs_epilogue(args, registry, None)
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
        return _missing(status, 10)

    # merge
    registry, _ = _obs_tools(args)
    merge = merge_sharded(plan, args.root, warm_hash=warm_hash,
                          metrics=registry)
    print(plan.describe())
    print(merge.render(per_site=args.per_site))
    _obs_epilogue(args, registry, None)
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
    """Entry point; returns a process exit code.

    A library error (any ReproError) or a failed file operation is one
    ``repro: error: <message>`` line on stderr and exit status 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
