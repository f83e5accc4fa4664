"""Cloud-storage API client: executes uploads/downloads over the WAN.

The simulated counterpart of the paper's "very basic programs in Java,
using the APIs of the cloud-storage providers".  An upload is a kernel
coroutine: OAuth2 token fetch (first use only — later runs reuse the
cached token, which is part of why the paper discards warm-up runs), TLS
connect, session initiation, chunked payload PUTs with per-request server
time, and the final commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.cloud.http import HttpsSession
from repro.cloud.provider import CloudProvider
from repro.cloud.oauth import TokenCache
from repro.net.dns import DnsResolver
from repro.net.engine import NetworkEngine
from repro.net.routing import Router
from repro.net.tcp import TcpFlow, TcpModel, TcpPathParams
from repro.obs.metrics import RATE_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.transfer.files import FileSpec

__all__ = ["CloudClient", "UploadReport", "DownloadReport"]


@dataclass(frozen=True)
class UploadReport:
    """Everything measured about one API upload."""

    provider: str
    src: str
    frontend: str
    file_name: str
    size_bytes: int
    start_time: float
    end_time: float
    chunk_count: int
    token_fetched: bool
    events: Tuple[Tuple[float, str], ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def throughput_bps(self) -> float:
        return units.throughput_bps(self.size_bytes, self.duration_s)


@dataclass(frozen=True)
class DownloadReport:
    """Everything measured about one API download."""

    provider: str
    dst: str
    frontend: str
    file_name: str
    size_bytes: int
    start_time: float
    end_time: float
    chunk_count: int

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time


class CloudClient:
    """Drives provider APIs from a given host over the simulated network."""

    def __init__(
        self,
        sim: Simulator,
        engine: NetworkEngine,
        router: Router,
        dns: DnsResolver,
        tcp: Optional[TcpModel] = None,
        token_cache: Optional[TokenCache] = None,
        rng: Optional[np.random.Generator] = None,
        app_name: str = "repro-bench",
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.sim = sim
        self.engine = engine
        self.router = router
        self.dns = dns
        self.tcp = tcp if tcp is not None else TcpModel()
        self.token_cache = token_cache if token_cache is not None else TokenCache()
        self.rng = rng
        self.app_name = app_name
        self._secrets: Dict[Tuple[str, str], str] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.spans = spans if spans is not None else SpanTracer(sim, Tracer(enabled=False))
        self._m_uploads = self.metrics.counter(
            "repro_api_uploads_total", "API uploads completed")
        self._m_downloads = self.metrics.counter(
            "repro_api_downloads_total", "API downloads completed")
        self._m_chunks = self.metrics.counter(
            "repro_api_chunks_total", "Payload chunks transferred")
        self._m_token_fetches = self.metrics.counter(
            "repro_api_token_fetches_total", "OAuth2 token fetches")
        self._m_upload_s = self.metrics.histogram(
            "repro_api_upload_seconds", "End-to-end API upload duration")
        self._m_upload_bps = self.metrics.histogram(
            "repro_api_upload_throughput_bps", "API upload throughput",
            buckets=RATE_BUCKETS)

    # -- helpers -----------------------------------------------------------

    def _jitter(self, mean_s: float, sigma: float) -> float:
        if mean_s <= 0:
            return 0.0
        if self.rng is None or sigma <= 0:
            return mean_s
        return mean_s * float(np.exp(self.rng.normal(0.0, sigma)))

    def _credentials(self, host: str, provider: CloudProvider) -> Tuple[str, str]:
        key = (host, provider.name)
        client_id = f"{self.app_name}@{host}"
        if key not in self._secrets:
            # Idempotent: another CloudClient instance (an earlier run in
            # the same world) may have registered this app already.
            self._secrets[key] = provider.oauth.ensure_client(client_id)
        return client_id, self._secrets[key]

    def _session(self, provider: CloudProvider, params: TcpPathParams) -> HttpsSession:
        return HttpsSession(
            self.sim, self.tcp, params,
            fault=provider.fault_injector,
            retry=provider.retry_policy,
            metrics=self.metrics,
            endpoint=provider.name,
        )

    def _ensure_token(self, host: str, provider: CloudProvider, events: List):
        """Coroutine: fetch a bearer token unless a valid one is cached."""
        token = self.token_cache.get_valid(host, provider.name, self.sim.now)
        if token is not None:
            return token, False
        with self.spans.span("transfer.api", "token_fetch", provider=provider.name):
            auth_node = self.dns.resolve(provider.auth_hostname, client_node=host)
            auth_path = self.router.resolve(host, auth_node)
            params = TcpPathParams(rtt_s=auth_path.rtt_s, loss=auth_path.loss)
            session = self._session(provider, params)
            yield from session.request(
                self._jitter(provider.protocol.auth_server_s,
                             provider.protocol.server_jitter_sigma),
                label="POST /oauth2/token",
            )
            client_id, secret = self._credentials(host, provider)
            token = provider.oauth.issue_token(client_id, secret, self.sim.now)
            self.token_cache.store(host, provider.name, token)
        self._m_token_fetches.inc(provider=provider.name)
        events.append((self.sim.now, "POST /oauth2/token"))
        return token, True

    def _refresh_if_expired(self, host: str, provider: CloudProvider, token, events: List):
        """Coroutine: long uploads can outlive a bearer token; on expiry the
        client refreshes before the next request (the 401-retry path of
        real SDKs, taken proactively here)."""
        if token.valid_at(self.sim.now):
            return token
        refreshed, _ = yield from self._ensure_token(host, provider, events)
        return refreshed

    # -- the three phases of every API transfer ----------------------------------

    def _open(self, host: str, provider: CloudProvider, flow: TcpFlow,
              init_label: str, events: List):
        """Coroutine: token, TLS connect and session init on *flow*'s path;
        returns ``(session, token, token_fetched)``."""
        token, token_fetched = yield from self._ensure_token(host, provider, events)
        # TLS connect + session initiation (retried on transient errors)
        session = self._session(provider, flow.params)
        yield from session.connect()
        yield from session.request(
            self._jitter(provider.protocol.session_init_server_s,
                         provider.protocol.server_jitter_sigma),
            label=init_label,
        )
        events.append((self.sim.now, init_label))
        return session, token, token_fetched

    def _put_chunk(self, session: HttpsSession, flow: TcpFlow, provider: CloudProvider,
                   chunk: float, label: str, request_label: str, ramp: bool = False):
        """Coroutine: one chunk's payload over *flow*, then its request."""
        proto = provider.protocol
        yield from flow.send(chunk + proto.request_overhead_bytes, label, ramp=ramp)
        yield from session.request(
            self._jitter(proto.per_chunk_server_s, proto.server_jitter_sigma),
            label=request_label,
        )
        self._m_chunks.inc(provider=provider.name)

    def _send_chunks(self, session: HttpsSession, flow: TcpFlow, provider: CloudProvider,
                     size_bytes: float, label: str, request_label: str, events: List):
        """Coroutine: the chunk loop; the first chunk pays the slow-start
        ramp.  Returns the chunk count."""
        proto = provider.protocol
        sizes = proto.chunk_sizes(size_bytes)
        for index, chunk in enumerate(sizes):
            with self.spans.span("transfer.api", f"chunk#{index}", bytes=int(chunk)):
                yield from self._put_chunk(
                    session, flow, provider, chunk, f"{label}#{index}",
                    f"{request_label} {index}", ramp=index == 0,
                )
            events.append((self.sim.now,
                           proto.chunk_request_name.replace("{index}", str(index))))
        return len(sizes)

    def _commit(self, host: str, provider: CloudProvider, session: HttpsSession,
                token, spec: FileSpec, remote_path: str, events: List):
        """Coroutine: the commit request, then the object lands in the store."""
        proto = provider.protocol
        token = yield from self._refresh_if_expired(host, provider, token, events)
        yield from session.request(
            self._jitter(proto.commit_server_s, proto.server_jitter_sigma),
            label=proto.commit_request_name,
        )
        events.append((self.sim.now, proto.commit_request_name))

        # The commit request itself takes time, so a token that was
        # valid when it was sent can be expired by the time the server
        # checks it — re-check at validation time (the 401-retry a
        # real SDK would absorb).
        token = yield from self._refresh_if_expired(host, provider, token, events)
        provider.oauth.validate(token.value, self.sim.now)
        provider.store.put(
            remote_path, spec.size_bytes, spec.content_digest(), owner=host, now=self.sim.now,
        )

    # -- uploads -------------------------------------------------------------

    def upload(
        self,
        src: str,
        provider: CloudProvider,
        spec: FileSpec,
        remote_path: Optional[str] = None,
    ):
        """Coroutine: upload *spec* from host *src*; returns UploadReport."""
        start = self.sim.now
        events: List[Tuple[float, str]] = []
        proto = provider.protocol
        frontend = provider.frontend_for(self.dns, src)
        flow = TcpFlow(self.engine, self.router, self.tcp, self.router.resolve(src, frontend))

        with self.spans.span("transfer.api", f"upload:{spec.name}",
                             provider=provider.name, src=src,
                             bytes=int(spec.size_bytes)):
            session, token, token_fetched = yield from self._open(
                src, provider, flow, proto.init_request_name, events)
            chunk_count = yield from self._send_chunks(
                session, flow, provider, spec.size_bytes,
                f"api:{provider.name}:{src}:{spec.name}", "chunk", events)
            yield from self._commit(src, provider, session, token, spec,
                                    remote_path or spec.name, events)
        self._m_uploads.inc(provider=provider.name)
        duration = self.sim.now - start
        self._m_upload_s.observe(duration, provider=provider.name)
        if duration > 0:
            self._m_upload_bps.observe(
                units.throughput_bps(spec.size_bytes, duration),
                provider=provider.name)
        return UploadReport(
            provider=provider.name,
            src=src,
            frontend=frontend,
            file_name=spec.name,
            size_bytes=spec.size_bytes,
            start_time=start,
            end_time=self.sim.now,
            chunk_count=chunk_count,
            token_fetched=token_fetched,
            events=tuple(events),
        )

    # -- downloads ----------------------------------------------------------

    def download(self, dst: str, provider: CloudProvider, remote_path: str):
        """Coroutine: download *remote_path* to host *dst*; returns DownloadReport."""
        start = self.sim.now
        events: List[Tuple[float, str]] = []
        frontend = provider.frontend_for(self.dns, dst)
        obj = provider.store.get(remote_path)  # 404 surfaces before any traffic

        up_path = self.router.resolve(dst, frontend)       # request direction
        down_path = self.router.resolve(frontend, dst)     # data direction
        flow = TcpFlow(self.engine, self.router, self.tcp, down_path,
                       TcpPathParams(rtt_s=up_path.rtt_s, loss=down_path.loss))

        with self.spans.span("transfer.api", f"download:{remote_path}",
                             provider=provider.name, dst=dst,
                             bytes=int(obj.size_bytes)):
            session, _, _ = yield from self._open(
                dst, provider, flow, "GET (ranged download start)", events)
            chunk_count = yield from self._send_chunks(
                session, flow, provider, obj.size_bytes,
                f"api-dl:{provider.name}:{dst}:{remote_path}", "dl chunk", events)
        self._m_downloads.inc(provider=provider.name)
        return DownloadReport(
            provider=provider.name,
            dst=dst,
            frontend=frontend,
            file_name=remote_path,
            size_bytes=obj.size_bytes,
            start_time=start,
            end_time=self.sim.now,
            chunk_count=chunk_count,
        )
