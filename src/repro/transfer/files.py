"""Test files: the simulated equivalent of ``dd if=/dev/urandom``.

The paper benchmarks with binary files of 10, 20, 30, 40, 50, 60 and
100 MB filled with random data, "resistant to any compression-based
performance artifacts".  A :class:`FileSpec` describes such a file by
(size, entropy class, seed), and that triple *is* the file's identity:
:meth:`FileSpec.content_digest` hashes it, never the bytes, because the
bytes are a deterministic function of it.  Transfer cost depends only
on size and compressibility, so contents are materialized to real bytes
only for the rsync delta protocol (:mod:`repro.transfer.rsync`, small
specs only).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence

import numpy as np

from repro import units
from repro.errors import TransferError

__all__ = ["Entropy", "FileSpec", "generate_bytes", "make_test_files", "PAPER_SIZES_MB"]

#: The file-size sweep used throughout the paper's evaluation (MB).
PAPER_SIZES_MB: Sequence[int] = (10, 20, 30, 40, 50, 60, 100)

#: Materialization guard: specs above this size stay descriptive.
MAX_MATERIALIZE_BYTES = 64 * units.MiB


class Entropy(Enum):
    """Compressibility class of a file's contents."""

    RANDOM = "random"        # incompressible (dd from /dev/urandom)
    TEXT = "text"            # ~3x compressible
    ZEROS = "zeros"          # fully compressible (dd from /dev/zero)

    @property
    def compression_ratio(self) -> float:
        """Approximate compressed/original size under a gzip-class codec."""
        return {"random": 1.0, "text": 0.35, "zeros": 0.01}[self.value]


@dataclass(frozen=True)
class FileSpec:
    """Description of a test file."""

    name: str
    size_bytes: int
    entropy: Entropy = Entropy.RANDOM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise TransferError(f"file {self.name!r}: size must be positive")

    @property
    def size_mb(self) -> float:
        return units.bytes_to_mb(self.size_bytes)

    def compressed_bytes(self) -> float:
        """Wire size if a compressing transport were used."""
        return self.size_bytes * self.entropy.compression_ratio

    def materialize(self) -> bytes:
        """Produce the actual file contents (small files only).

        Only the rsync delta path needs real bytes; everything else works
        from the spec (see :meth:`content_digest`).
        """
        if self.size_bytes > MAX_MATERIALIZE_BYTES:
            raise TransferError(
                f"file {self.name!r} is {self.size_bytes} bytes; only specs up to "
                f"{MAX_MATERIALIZE_BYTES} are materialized — use the size-based cost model"
            )
        return generate_bytes(self.size_bytes, self.entropy, self.seed)

    def content_digest(self) -> str:
        """Stable digest identifying the contents: a hash of the
        (size, entropy, seed) triple, which determines every byte."""
        meta = f"{self.size_bytes}:{self.entropy.value}:{self.seed}".encode()
        return hashlib.sha256(meta).hexdigest()


def generate_bytes(size_bytes: int, entropy: Entropy = Entropy.RANDOM, seed: int = 0) -> bytes:
    """The ``dd``-equivalent: deterministic pseudo-random file contents."""
    if size_bytes < 0:
        raise TransferError("size must be non-negative")
    if entropy is Entropy.ZEROS:
        return bytes(size_bytes)
    # File *contents* are part of a FileSpec's identity, not of simulation
    # state: they derive from the spec's own seed so the same spec always
    # materializes the same bytes, independent of any master seed.
    rng = np.random.default_rng(seed)  # simlint: ignore[SL103] -- content identity, seeded per FileSpec
    if entropy is Entropy.RANDOM:
        return rng.integers(0, 256, size=size_bytes, dtype=np.uint8).tobytes()
    # TEXT: words over a small alphabet with spaces/newlines — compressible
    alphabet = np.frombuffer(b"etaoinshrdlu bcfgmpwyv,.\n", dtype=np.uint8)
    idx = rng.integers(0, len(alphabet), size=size_bytes)
    return alphabet[idx].tobytes()


def make_test_files(
    sizes_mb: Sequence[float] = PAPER_SIZES_MB,
    entropy: Entropy = Entropy.RANDOM,
    seed: int = 0,
) -> List[FileSpec]:
    """The paper's benchmark file set (random binary, 10..100 MB)."""
    specs = []
    for i, size in enumerate(sizes_mb):
        specs.append(
            FileSpec(
                name=f"test-{size:g}MB.bin",
                size_bytes=int(units.mb(size)),
                entropy=entropy,
                seed=seed + i,
            )
        )
    return specs
