"""Data Transfer Nodes (DTNs): staging intermediaries for routing detours.

A DTN is the "Intermediate Node" of the paper's Fig. 1: the user machine
rsyncs the file to it, then the DTN uploads to the cloud provider.  This
module supplies:

* :class:`DataTransferNode` — the staging area (files are deleted before
  each benchmarked run, per the paper's protocol, so rsync never gets a
  delta advantage; keeping the cache is the extension we ablate),
* :class:`RelayMode` — store-and-forward (the paper: total = t1 + t2) vs
  pipelined cut-through (our extension: total ≈ max(t1, t2) + ramp),
* :func:`pipelined_relay` — a kernel coroutine that overlaps the two legs
  chunk by chunk with a bounded staging buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Generator, List, Optional

from repro import units
from repro.errors import TransferError
from repro.sim.kernel import AllOf, Signal, Simulator
from repro.transfer.files import FileSpec

__all__ = ["RelayMode", "DataTransferNode", "pipelined_relay"]


class RelayMode(Enum):
    """How a detour moves data through the intermediate node."""

    STORE_AND_FORWARD = "store_and_forward"  # paper: finish leg 1, then leg 2
    PIPELINED = "pipelined"                  # extension: overlap the legs


@dataclass
class _StagedFile:
    spec: FileSpec
    staged_at: float
    digest: str


class DataTransferNode:
    """Staging area living on a topology host.

    ``max_sessions`` optionally bounds concurrent relay sessions (rsync
    daemons cap connections; Globus DTNs cap concurrent transfers); call
    :meth:`attach_session_limit` with the simulator to activate it, after
    which :attr:`sessions` is a FIFO :class:`~repro.sim.resources.Resource`.
    """

    def __init__(self, host: str, capacity_bytes: Optional[float] = None,
                 max_sessions: Optional[int] = None):
        if max_sessions is not None and max_sessions < 1:
            raise TransferError(f"DTN {host}: max_sessions must be >= 1")
        self.host = host
        self.capacity_bytes = capacity_bytes
        self.max_sessions = max_sessions
        self.sessions = None  # set by attach_session_limit
        self._staged: Dict[str, _StagedFile] = {}

    def attach_session_limit(self, sim: Simulator) -> None:
        """Create the session-slot resource (idempotent, no-op if unbounded)."""
        if self.max_sessions is not None and self.sessions is None:
            from repro.sim.resources import Resource

            self.sessions = Resource(sim, self.max_sessions, name=f"dtn:{self.host}")

    def hold(self, work: Generator) -> Generator:
        """Coroutine: run relay *work* holding one session slot (directly
        when the DTN has no session limit); returns what *work* returns.
        Every detour form takes its slot here."""
        if self.sessions is None:
            return (yield from work)
        return (yield from self.sessions.using(work))

    # -- staging -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(f.spec.size_bytes for f in self._staged.values())

    def has(self, name: str) -> bool:
        return name in self._staged

    def stage(self, spec: FileSpec, now: float = 0.0) -> None:
        """Record *spec* as present on the DTN's disk."""
        new_usage = self.used_bytes + spec.size_bytes
        if self.has(spec.name):
            new_usage -= self._staged[spec.name].spec.size_bytes
        if self.capacity_bytes is not None and new_usage > self.capacity_bytes:
            raise TransferError(
                f"DTN {self.host}: staging {spec.name} would need {new_usage} bytes "
                f"(capacity {self.capacity_bytes})"
            )
        self._staged[spec.name] = _StagedFile(spec, now, spec.content_digest())

    def delete(self, name: str) -> bool:
        """Remove a staged file (the paper's pre-run cleanup). True if present."""
        return self._staged.pop(name, None) is not None

    def clear(self) -> None:
        """Delete everything (fresh benchmarking state)."""
        self._staged.clear()

    def staged_names(self) -> List[str]:
        return sorted(self._staged)

    def digest_of(self, name: str) -> str:
        try:
            return self._staged[name].digest
        except KeyError:
            raise TransferError(f"DTN {self.host}: no staged file {name!r}") from None


LegRunner = Callable[[float, int], Generator]
"""A leg executor: ``leg(chunk_bytes, chunk_index)`` returns a kernel
generator that completes when the chunk has crossed that leg."""


def pipelined_relay(
    sim: Simulator,
    total_bytes: float,
    leg_in: LegRunner,
    leg_out: LegRunner,
    chunk_bytes: float = 8 * units.MiB,
    max_buffered_chunks: int = 4,
) -> Generator:
    """Cut-through relay: overlap ingest and egress chunk by chunk.

    The producer runs ``leg_in`` per chunk; each completed chunk is handed
    to the consumer, which runs ``leg_out``.  A bounded buffer models the
    DTN's staging memory: the producer stalls when it gets
    ``max_buffered_chunks`` ahead.

    Yields from inside a simulation process; returns total elapsed time.
    """
    if total_bytes <= 0:
        raise TransferError("relay size must be positive")
    if chunk_bytes <= 0 or max_buffered_chunks < 1:
        raise TransferError("bad pipelining parameters")

    n_chunks = int(total_bytes // chunk_bytes)
    sizes = [chunk_bytes] * n_chunks
    tail = total_bytes - n_chunks * chunk_bytes
    if tail > 0:
        sizes.append(tail)

    start = sim.now
    arrived: List[Signal] = [Signal(sim, name=f"relay-chunk-{i}") for i in range(len(sizes))]
    consumed: List[Signal] = [Signal(sim, name=f"relay-slot-{i}") for i in range(len(sizes))]

    def producer():
        for i, size in enumerate(sizes):
            if i >= max_buffered_chunks:
                # wait until the consumer frees the slot `i - max_buffered`
                yield consumed[i - max_buffered_chunks]
            yield from leg_in(size, i)
            arrived[i].trigger(sim.now)

    def consumer():
        for i, size in enumerate(sizes):
            yield arrived[i]
            yield from leg_out(size, i)
            consumed[i].trigger(sim.now)

    p = sim.process(producer(), name="relay-producer")
    c = sim.process(consumer(), name="relay-consumer")
    yield AllOf([p, c])
    if p.error:
        raise p.error
    if c.error:
        raise c.error
    return sim.now - start
