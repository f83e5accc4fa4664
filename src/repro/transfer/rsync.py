"""rsync: the delta-transfer protocol and its network cost model.

Two layers:

* a **real implementation** of the rsync algorithm (signatures, rolling
  match, delta, apply) operating on byte strings — exercised by tests on
  materialized files, so the "no benefit from deltas on fresh random
  files" claim in the paper's Sec. II is demonstrated rather than assumed;
* a **cost model** (:class:`RsyncSession`) that executes a transfer over
  the simulated network: ssh/TCP handshakes, file-list exchange, then the
  delta wire bytes as a fluid flow.

The paper always deletes the file from the intermediate node before each
run and uses incompressible data, so every benchmarked rsync degenerates
to a full-file literal transfer — but the machinery stays honest for the
general case (and for the DTN cache extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.errors import TransferError
from repro.net.engine import NetworkEngine, TransferResult
from repro.net.routing import Router
from repro.net.tcp import TcpFlow, TcpModel
from repro.transfer.checksums import (
    BlockSignature,
    RollingChecksum,
    block_signatures,
    strong_checksum,
)
from repro.transfer.files import FileSpec

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "RsyncDelta",
    "RsyncStats",
    "RsyncSession",
    "compute_delta",
    "apply_delta",
]

DEFAULT_BLOCK_SIZE = 2048

#: Wire overhead per delta op / per literal byte is negligible next to
#: payload; the fixed protocol framing below is what matters for small files.
FILE_LIST_BYTES = 512          # per-file metadata exchange
PER_BLOCK_SIG_BYTES = 20       # weak (4) + strong (16) checksum per block

Op = Union[Tuple[str, int], Tuple[str, bytes]]  # ("copy", idx) | ("literal", data)


@dataclass(frozen=True)
class RsyncDelta:
    """Sender-computed instructions to reconstruct the new file."""

    ops: Tuple[Op, ...]
    block_size: int

    @property
    def literal_bytes(self) -> int:
        return sum(len(op[1]) for op in self.ops if op[0] == "literal")

    @property
    def matched_bytes(self) -> int:
        return sum(self.block_size for op in self.ops if op[0] == "copy")


@dataclass(frozen=True)
class RsyncStats:
    """Accounting for one rsync transfer."""

    file_bytes: int
    literal_bytes: int
    matched_bytes: int
    signature_bytes: int
    wire_bytes: float  # what actually crossed the network

    @property
    def speedup(self) -> float:
        """rsync's reported 'speedup' = file size / wire bytes."""
        return self.file_bytes / self.wire_bytes if self.wire_bytes else float("inf")


def compute_delta(old: bytes, new: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> RsyncDelta:
    """The rsync sender algorithm: match *new* against *old*'s blocks."""
    if block_size <= 0:
        raise TransferError("block size must be positive")
    sigs = block_signatures(old, block_size)
    by_weak: dict[int, List[BlockSignature]] = {}
    for sig in sigs:
        by_weak.setdefault(sig.weak, []).append(sig)

    ops: List[Op] = []
    literal_start = 0
    i = 0
    n = len(new)
    rc: Optional[RollingChecksum] = None
    while i + block_size <= n:
        if rc is None:
            rc = RollingChecksum(new[i:i + block_size])
        match = None
        candidates = by_weak.get(rc.digest())
        if candidates:
            strong = strong_checksum(new[i:i + block_size])
            for sig in candidates:
                if sig.strong == strong:
                    match = sig
                    break
        if match is not None:
            if literal_start < i:
                ops.append(("literal", new[literal_start:i]))
            ops.append(("copy", match.index))
            i += block_size
            literal_start = i
            rc = None
        else:
            if i + block_size >= n:
                break
            rc.roll(new[i], new[i + block_size])
            i += 1
    if literal_start < n:
        ops.append(("literal", new[literal_start:]))
    return RsyncDelta(tuple(ops), block_size)


def apply_delta(old: bytes, delta: RsyncDelta) -> bytes:
    """Receiver side: rebuild the new file from old blocks + literals."""
    out = bytearray()
    for op in delta.ops:
        if op[0] == "copy":
            idx = op[1]
            start = idx * delta.block_size
            block = old[start:start + delta.block_size]
            if len(block) != delta.block_size:
                raise TransferError(f"delta references invalid block {idx}")
            out.extend(block)
        elif op[0] == "literal":
            out.extend(op[1])
        else:
            raise TransferError(f"unknown delta op {op[0]!r}")
    return bytes(out)


class RsyncSession:
    """Cost model of ``rsync`` between two hosts over the simulated WAN.

    Usage (inside a simulation process)::

        session = RsyncSession(engine, router, tcp)
        result = yield from session.push(src, dst, filespec)

    ``basis_bytes`` optionally provides the receiver's existing copy (the
    DTN cache extension); with no basis — the paper's protocol deletes
    staged files before each run — the full file crosses the wire.
    """

    #: ssh transport setup costs on top of the TCP handshake
    SSH_HANDSHAKE_RTTS = 2.0

    def __init__(
        self,
        engine: NetworkEngine,
        router: Router,
        tcp: Optional[TcpModel] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compress: bool = False,
    ):
        self.engine = engine
        self.router = router
        self.tcp = tcp if tcp is not None else TcpModel()
        self.block_size = block_size
        #: rsync -z: literal bytes are compressed on the wire.  The paper
        #: uses random data precisely so this cannot help ("resistant to
        #: any compression-based performance artifacts"); text-class files
        #: would shrink ~3x.
        self.compress = compress

    # -- wire-size accounting ------------------------------------------------

    def plan(self, spec: FileSpec, basis: Optional[bytes] = None) -> RsyncStats:
        """Compute what would cross the wire for this transfer."""
        if basis:
            new = spec.materialize()
            delta = compute_delta(basis, new, self.block_size)
            sig_bytes = (len(basis) // self.block_size) * PER_BLOCK_SIG_BYTES
            literal = delta.literal_bytes
            matched = delta.matched_bytes
        else:
            sig_bytes = 0
            literal = spec.size_bytes
            matched = 0
        literal_wire = (
            literal * spec.entropy.compression_ratio if self.compress else literal
        )
        wire = FILE_LIST_BYTES + sig_bytes + literal_wire + 4 * max(1, literal // 65536)
        return RsyncStats(
            file_bytes=spec.size_bytes,
            literal_bytes=literal,
            matched_bytes=matched,
            signature_bytes=sig_bytes,
            wire_bytes=float(wire),
        )

    # -- execution ---------------------------------------------------------------

    def push(self, src: str, dst: str, spec: FileSpec, basis: Optional[bytes] = None):
        """Generator: run the transfer; returns (TransferResult, RsyncStats).

        Must be driven by the simulation kernel (``yield from``).
        """
        flow = TcpFlow(self.engine, self.router, self.tcp, self.router.resolve(src, dst))
        params = flow.params
        stats = self.plan(spec, basis)

        # TCP + ssh handshakes, then the file-list / signature exchange.
        yield self.tcp.connect_time_s(params)
        yield self.SSH_HANDSHAKE_RTTS * params.rtt_s
        yield self.tcp.request_response_time_s(params)  # file list + sig request
        result: TransferResult = yield from flow.send(
            stats.wire_bytes, f"rsync:{src}->{dst}:{spec.name}", ramp=True)
        # final ack / close
        yield params.rtt_s
        return result, stats
