"""Plan execution: run direct and detoured uploads in a World.

Reproduces the paper's measurement procedure exactly:

* **direct** — provider API from the client,
* **detour (store-and-forward)** — the staged file is deleted from the
  DTN first (no rsync delta advantage), then ``rsync`` client -> DTN,
  then the provider API DTN -> cloud; total time is the sum of the legs,
* **detour (pipelined)** — extension: the two legs overlap chunk by
  chunk through the DTN's staging buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.cloud.provider import CloudProvider
from repro.core.routes import DetourRoute, DirectRoute, TransferPlan
from repro.core.world import World
from repro.errors import TransferError
from repro.net.tcp import TcpPathParams
from repro.transfer.api_client import CloudClient, UploadReport
from repro.transfer.dtn import RelayMode, pipelined_relay
from repro.transfer.files import FileSpec
from repro.transfer.rsync import RsyncSession

__all__ = ["LegResult", "PlanResult", "PlanExecutor"]


@dataclass(frozen=True)
class LegResult:
    """One leg of a plan (rsync hop or API upload)."""

    kind: str  # "rsync" | "api"
    src: str
    dst: str
    duration_s: float
    payload_bytes: float

    @property
    def throughput_bps(self) -> float:
        return units.throughput_bps(self.payload_bytes, self.duration_s)


@dataclass(frozen=True)
class PlanResult:
    """Outcome of executing one :class:`TransferPlan`."""

    plan: TransferPlan
    start_time: float
    end_time: float
    legs: Tuple[LegResult, ...]
    token_fetched: bool = False

    @property
    def total_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def throughput_bps(self) -> float:
        return units.throughput_bps(self.plan.file.size_bytes, self.total_s)

    def describe(self) -> str:
        legs = ", ".join(
            f"{leg.kind} {leg.src}->{leg.dst}: {leg.duration_s:.2f}s" for leg in self.legs
        )
        return f"{self.plan.describe()}: {self.total_s:.2f}s ({legs})"


class PlanExecutor:
    """Executes transfer plans inside one :class:`World`."""

    def __init__(self, world: World):
        self.world = world
        self.cloud_client = CloudClient(
            sim=world.sim,
            engine=world.engine,
            router=world.router,
            dns=world.dns,
            tcp=world.tcp,
            token_cache=world.token_cache,
            rng=world.rng.stream("api.jitter"),
            metrics=world.metrics,
            spans=world.spans,
        )
        self.rsync = RsyncSession(world.engine, world.router, world.tcp)
        self.spans = world.spans
        self._m_plans = world.metrics.counter(
            "repro_executor_plans_total", "Transfer plans executed")
        self._m_plan_s = world.metrics.histogram(
            "repro_executor_plan_seconds", "End-to-end plan duration")
        self._m_leg_s = world.metrics.histogram(
            "repro_executor_leg_seconds", "Per-leg duration")

    def _record(self, plan: TransferPlan, result: "PlanResult") -> "PlanResult":
        self._m_plans.inc(route=plan.route.describe(), provider=plan.provider_name)
        self._m_plan_s.observe(result.total_s, route=plan.route.describe())
        for leg in result.legs:
            self._m_leg_s.observe(leg.duration_s, kind=leg.kind)
        return result

    # -- public API -----------------------------------------------------------

    def execute(self, plan: TransferPlan):
        """Kernel coroutine: run *plan*; returns a :class:`PlanResult`."""
        with self.spans.span(
            "core.executor", f"plan:{plan.route.describe()}",
            client=plan.client_site, provider=plan.provider_name,
            bytes=int(plan.file.size_bytes),
        ):
            if isinstance(plan.route, DirectRoute):
                result = yield from self._execute_direct(plan)
            elif plan.route.mode is RelayMode.STORE_AND_FORWARD:
                result = yield from self._execute_store_and_forward(plan)
            else:
                result = yield from self._execute_pipelined(plan)
        return self._record(plan, result)

    def run(self, plan: TransferPlan, horizon_s: float = 1e7) -> PlanResult:
        """Convenience wrapper: spawn, simulate to completion, return."""
        proc = self.world.sim.process(self.execute(plan), name=f"plan:{plan.describe()}")
        self.world.sim.run_until_triggered(proc.done, horizon=self.world.sim.now + horizon_s)
        if not proc.finished:
            raise TransferError(f"plan did not finish within {horizon_s}s: {plan.describe()}")
        return proc.result

    # -- downloads ---------------------------------------------------------

    def execute_download(self, plan: TransferPlan, remote_path: Optional[str] = None):
        """Kernel coroutine: fetch ``remote_path`` (default: the plan's
        file name) *to* the client, over the plan's route.

        Detoured downloads mirror detoured uploads: the DTN pulls from the
        provider API, then rsyncs to the client.  The paper benchmarks
        uploads; downloads exercise the same machinery in reverse and are
        reported as an extension.
        """
        world = self.world
        start = world.sim.now
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        path = remote_path or plan.file.name

        if isinstance(plan.route, DirectRoute):
            report = yield from self.cloud_client.download(client_host, provider, path)
            leg = LegResult("api", report.frontend, client_host,
                            report.duration_s, report.size_bytes)
            return PlanResult(plan, start, world.sim.now, (leg,))

        if plan.route.mode is not RelayMode.STORE_AND_FORWARD:
            raise TransferError("pipelined detoured downloads are not supported")
        dtn = world.dtn_of(plan.route.via_site)
        leg1_start = world.sim.now
        report = yield from self.cloud_client.download(dtn.host, provider, path)
        leg1 = LegResult("api", report.frontend, dtn.host,
                         world.sim.now - leg1_start, report.size_bytes)
        staged = FileSpec(path, report.size_bytes, seed=plan.file.seed)
        dtn.stage(staged, now=world.sim.now)
        leg2_start = world.sim.now
        yield from self.rsync.push(dtn.host, client_host, staged)
        leg2 = LegResult("rsync", dtn.host, client_host,
                         world.sim.now - leg2_start, report.size_bytes)
        return PlanResult(plan, start, world.sim.now, (leg1, leg2))

    # -- direct --------------------------------------------------------------

    def _execute_direct(self, plan: TransferPlan):
        world = self.world
        start = world.sim.now
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        with self.spans.span("core.executor", "leg:api",
                             src=client_host, provider=provider.name):
            report: UploadReport = yield from self.cloud_client.upload(
                client_host, provider, plan.file
            )
        leg = LegResult(
            "api", client_host, report.frontend, report.duration_s, plan.file.size_bytes
        )
        return PlanResult(plan, start, world.sim.now, (leg,), report.token_fetched)

    # -- store-and-forward detour ---------------------------------------------

    def _execute_store_and_forward(self, plan: TransferPlan):
        world = self.world
        start = world.sim.now
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        dtn = world.dtn_of(plan.route.via_site)

        # Honor the DTN's concurrent-session limit: the slot covers both
        # legs (the staged file occupies the DTN until it is uploaded).
        slot = None
        if dtn.sessions is not None:
            slot = yield from dtn.sessions.acquire()
        try:
            # Paper protocol: "files on the Intermediate Node(s) are always
            # deleted before benchmarking".
            dtn.delete(plan.file.name)

            leg1_start = world.sim.now
            with self.spans.span("core.executor", "leg:rsync",
                                 src=client_host, dst=dtn.host):
                yield from self.rsync.push(client_host, dtn.host, plan.file)
            dtn.stage(plan.file, now=world.sim.now)
            leg1 = LegResult(
                "rsync", client_host, dtn.host, world.sim.now - leg1_start,
                plan.file.size_bytes
            )

            leg2_start = world.sim.now
            with self.spans.span("core.executor", "leg:api",
                                 src=dtn.host, provider=provider.name):
                report: UploadReport = yield from self.cloud_client.upload(
                    dtn.host, provider, plan.file
                )
            leg2 = LegResult(
                "api", dtn.host, report.frontend, world.sim.now - leg2_start,
                plan.file.size_bytes
            )
        finally:
            if slot is not None:
                dtn.sessions.release(slot)
        return PlanResult(plan, start, world.sim.now, (leg1, leg2), report.token_fetched)

    # -- pipelined detour (extension) ------------------------------------------

    def _execute_pipelined(self, plan: TransferPlan):
        world = self.world
        sim = world.sim
        start = sim.now
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        proto = provider.protocol
        dtn = world.dtn_of(plan.route.via_site)
        dtn.delete(plan.file.name)

        # hop 1 path (rsync-style stream) and hop 2 path (API)
        in_path = world.router.resolve(client_host, dtn.host)
        in_params = TcpPathParams(rtt_s=in_path.rtt_s, loss=in_path.loss)
        in_dirs = world.engine.intern(world.router.path_directions(in_path))
        in_ceiling = min(world.tcp.rate_ceiling_bps(in_params), in_path.per_flow_cap_bps)

        frontend = provider.frontend_for(world.dns, dtn.host)
        out_path = world.router.resolve(dtn.host, frontend)
        out_params = TcpPathParams(rtt_s=out_path.rtt_s, loss=out_path.loss)
        out_dirs = world.engine.intern(world.router.path_directions(out_path))
        out_ceiling = min(world.tcp.rate_ceiling_bps(out_params), out_path.per_flow_cap_bps)

        jitter_rng = world.rng.stream("api.jitter")

        def jitter(mean: float) -> float:
            if mean <= 0 or proto.server_jitter_sigma <= 0:
                return mean
            return mean * float(np.exp(jitter_rng.normal(0.0, proto.server_jitter_sigma)))

        # setup: rsync handshakes on hop 1 + token/TLS/init on hop 2 (in series
        # from the relay's perspective, since the relay must be reachable first)
        yield world.tcp.connect_time_s(in_params)
        yield RsyncSession.SSH_HANDSHAKE_RTTS * in_params.rtt_s
        token, token_fetched = yield from self.cloud_client._ensure_token(
            dtn.host, provider, []
        )
        yield world.tcp.connect_time_s(out_params, tls=True)
        yield world.tcp.request_response_time_s(out_params, jitter(proto.session_init_server_s))

        def leg_in(chunk_bytes: float, index: int):
            transfer = world.engine.start_transfer(
                in_dirs, chunk_bytes,
                ceiling_bps=in_ceiling,
                label=f"relay-in:{plan.file.name}#{index}",
            )
            yield transfer.done

        def leg_out(chunk_bytes: float, index: int):
            transfer = world.engine.start_transfer(
                out_dirs, chunk_bytes + proto.request_overhead_bytes,
                ceiling_bps=out_ceiling,
                label=f"relay-out:{plan.file.name}#{index}",
            )
            yield transfer.done
            yield out_params.rtt_s + jitter(proto.per_chunk_server_s)

        relay_start = sim.now
        with self.spans.span("core.executor", "leg:relay",
                             src=client_host, dst=frontend):
            yield from pipelined_relay(
                sim,
                total_bytes=float(plan.file.size_bytes),
                leg_in=leg_in,
                leg_out=leg_out,
                chunk_bytes=float(proto.chunk_bytes),
            )

        # commit (refreshing the bearer token if the relay outlived it)
        token = yield from self.cloud_client._refresh_if_expired(
            dtn.host, provider, token, []
        )
        yield world.tcp.request_response_time_s(out_params, jitter(proto.commit_server_s))
        # The commit round trip itself takes time: a token valid when the
        # request went out can be expired by the time the server checks it.
        token = yield from self.cloud_client._refresh_if_expired(
            dtn.host, provider, token, []
        )
        provider.oauth.validate(token.value, sim.now)
        provider.store.put(
            plan.file.name, plan.file.size_bytes, plan.file.content_digest(),
            owner=dtn.host, now=sim.now,
        )
        dtn.stage(plan.file, now=sim.now)
        leg = LegResult(
            "relay", client_host, frontend, sim.now - relay_start, plan.file.size_bytes
        )
        return PlanResult(plan, start, sim.now, (leg,), token_fetched)
