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
from typing import Optional, Tuple

from repro import units
from repro.core.routes import DirectRoute, TransferPlan
from repro.core.world import World
from repro.errors import TransferError
from repro.net.tcp import TcpFlow
from repro.transfer.api_client import CloudClient, UploadReport
from repro.transfer.dtn import DataTransferNode, RelayMode, pipelined_relay
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

    # -- public API -----------------------------------------------------------

    def execute(self, plan: TransferPlan):
        """Kernel coroutine: run *plan*; returns a :class:`PlanResult`.

        A detour holds one of its DTN's session slots for the whole relay
        (the staged file occupies the DTN until it is uploaded); the plan's
        clock starts before the slot wait, so queueing counts in ``total_s``.
        """
        if isinstance(plan.route, DirectRoute):
            body = self._execute_direct(plan)
        else:
            dtn = self.world.dtn_of(plan.route.via_site)
            relay = (self._execute_store_and_forward
                     if plan.route.mode is RelayMode.STORE_AND_FORWARD
                     else self._execute_pipelined)
            body = dtn.hold(relay(plan, dtn))
        return (yield from self._observed(plan, body))

    def _observed(self, plan: TransferPlan, body):
        """Run *body* (a coroutine returning ``(legs, token_fetched)``) as
        one plan: in a ``plan:`` span, timed from now, and counted in the
        plan and leg metrics."""
        world = self.world
        start = world.sim.now
        route = plan.route.describe()
        with self.spans.span(
            "core.executor", f"plan:{route}",
            client=plan.client_site, provider=plan.provider_name,
            bytes=int(plan.file.size_bytes),
        ):
            legs, token_fetched = yield from body
        result = PlanResult(plan, start, world.sim.now, legs, token_fetched)
        self._m_plans.inc(route=route, provider=plan.provider_name)
        self._m_plan_s.observe(result.total_s, route=route)
        for leg in legs:
            self._m_leg_s.observe(leg.duration_s, kind=leg.kind)
        return result

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
        provider API, then rsyncs to the client, holding a session slot
        throughout.  The paper benchmarks uploads; downloads exercise the
        same machinery in reverse and are reported as an extension.
        """
        world = self.world
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        path = remote_path or plan.file.name

        if isinstance(plan.route, DirectRoute):
            body = self._download_direct(client_host, provider, path)
        else:
            if plan.route.mode is not RelayMode.STORE_AND_FORWARD:
                raise TransferError("pipelined detoured downloads are not supported")
            dtn = world.dtn_of(plan.route.via_site)
            body = dtn.hold(
                self._download_via(dtn, client_host, provider, path, plan.file.seed))
        return (yield from self._observed(plan, body))

    def _download_direct(self, client_host: str, provider, path: str):
        report = yield from self.cloud_client.download(client_host, provider, path)
        return (LegResult("api", report.frontend, client_host,
                          report.duration_s, report.size_bytes),), False

    def _download_via(self, dtn: DataTransferNode, client_host: str, provider, path: str,
                      seed: int):
        world = self.world
        leg1_start = world.sim.now
        report = yield from self.cloud_client.download(dtn.host, provider, path)
        leg1 = LegResult("api", report.frontend, dtn.host,
                         world.sim.now - leg1_start, report.size_bytes)
        staged = FileSpec(path, report.size_bytes, seed=seed)
        dtn.stage(staged, now=world.sim.now)
        leg2_start = world.sim.now
        yield from self.rsync.push(dtn.host, client_host, staged)
        leg2 = LegResult("rsync", dtn.host, client_host,
                         world.sim.now - leg2_start, report.size_bytes)
        return (leg1, leg2), False

    # -- direct --------------------------------------------------------------

    def _execute_direct(self, plan: TransferPlan):
        world = self.world
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
        return (leg,), report.token_fetched

    # -- store-and-forward detour ---------------------------------------------

    def _execute_store_and_forward(self, plan: TransferPlan, dtn: DataTransferNode):
        world = self.world
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)

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
        return (leg1, leg2), report.token_fetched

    # -- pipelined detour (extension) ------------------------------------------

    def _execute_pipelined(self, plan: TransferPlan, dtn: DataTransferNode):
        """The API leg is the client's own upload session (open, one
        request per chunk, commit), fed chunk by chunk by the rsync-style
        hop into the DTN."""
        world = self.world
        sim = world.sim
        client = self.cloud_client
        client_host = world.host_of(plan.client_site)
        provider = world.provider(plan.provider_name)
        name = plan.file.name
        dtn.delete(name)

        # hop 1 (rsync-style stream) and hop 2 (API)
        in_flow = TcpFlow(world.engine, world.router, world.tcp,
                          world.router.resolve(client_host, dtn.host))
        frontend = provider.frontend_for(world.dns, dtn.host)
        out_flow = TcpFlow(world.engine, world.router, world.tcp,
                           world.router.resolve(dtn.host, frontend))

        # setup: rsync handshakes on hop 1 + token/TLS/init on hop 2 (in series
        # from the relay's perspective, since the relay must be reachable first)
        yield world.tcp.connect_time_s(in_flow.params)
        yield RsyncSession.SSH_HANDSHAKE_RTTS * in_flow.params.rtt_s
        session, token, token_fetched = yield from client._open(
            dtn.host, provider, out_flow, provider.protocol.init_request_name, [])

        def leg_in(chunk_bytes: float, index: int):
            return in_flow.send(chunk_bytes, f"relay-in:{name}#{index}")

        def leg_out(chunk_bytes: float, index: int):
            return client._put_chunk(session, out_flow, provider, chunk_bytes,
                                     f"relay-out:{name}#{index}", f"relay chunk {index}")

        relay_start = sim.now
        with self.spans.span("core.executor", "leg:relay",
                             src=client_host, dst=frontend):
            yield from pipelined_relay(
                sim,
                total_bytes=float(plan.file.size_bytes),
                leg_in=leg_in,
                leg_out=leg_out,
                chunk_bytes=float(provider.protocol.chunk_bytes),
            )
        # commit (refreshing the bearer token if the relay outlived it)
        yield from client._commit(dtn.host, provider, session, token, plan.file, name, [])
        dtn.stage(plan.file, now=sim.now)
        leg = LegResult(
            "relay", client_host, frontend, sim.now - relay_start, plan.file.size_bytes
        )
        return (leg,), token_fetched
