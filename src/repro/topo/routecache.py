"""Content-addressed on-disk cache of precompiled forwarding paths.

Valley-free/policy route resolution over thousands of ASes is the
expensive phase of compilation, and it depends only on the spec (routes
are computed on *unjittered* capacities; per-seed jitter is applied at
materialize time and never changes hop sequences).  So routes are cached
under the spec's content hash: ``routes-<hash>.npz`` holding the two
route arrays, plus a JSON sidecar carrying the cache version and the
sha256 of the payload file.

Lookups have three outcomes, each counted (and exported through
:class:`~repro.topo.instrument.TopoInstrumentation` when attached):

* **hit** — sidecar checks out, payload hash matches: arrays are loaded.
* **miss** — no entry for the key: caller recomputes and stores.
* **corrupt** — entry exists but the sidecar is unreadable, the version
  is foreign, or the payload hash mismatches: the entry is ignored and
  the caller recomputes (then overwrites).  Corruption never propagates.

Writes are atomic (temp file + ``os.replace``) so a crashed compile
can't leave a half-written entry that later loads garbage.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional, Tuple

import numpy as np

from repro.core.atomic import atomic_write, atomic_write_json, read_json_object
from repro.errors import TopoError
from repro.topo.instrument import TopoInstrumentation

__all__ = ["RouteCache"]

#: Bump when the route array encoding changes; old entries recompute.
ROUTE_CACHE_VERSION = 1


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RouteCache:
    """Route-array cache rooted at one directory."""

    def __init__(self, cache_dir: str,
                 instrumentation: Optional[TopoInstrumentation] = None):
        self.cache_dir = cache_dir
        self.obs = instrumentation if instrumentation is not None \
            else TopoInstrumentation()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        os.makedirs(cache_dir, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def payload_path(self, key: str) -> str:
        self._check_key(key)
        return os.path.join(self.cache_dir, f"routes-{key}.npz")

    def sidecar_path(self, key: str) -> str:
        self._check_key(key)
        return os.path.join(self.cache_dir, f"routes-{key}.json")

    @staticmethod
    def _check_key(key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise TopoError(f"route-cache key must be a hex digest, got {key!r}")

    # -- lookup --------------------------------------------------------------

    def load(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(route_indptr, route_node)`` for *key*, or None to recompute."""
        payload = self.payload_path(key)
        sidecar = self.sidecar_path(key)
        if not os.path.exists(payload) and not os.path.exists(sidecar):
            self.misses += 1
            self.obs.cache_misses.inc()
            return None
        try:
            expect = read_json_object(sidecar)
            if expect is None:
                raise ValueError("sidecar missing")
            if expect.get("version") != ROUTE_CACHE_VERSION:
                raise ValueError(f"cache version {expect.get('version')}")
            if expect.get("key") != key:
                raise ValueError("sidecar names a different key")
            if _file_sha256(payload) != expect.get("sha256"):
                raise ValueError("payload checksum mismatch")
            with np.load(payload, allow_pickle=False) as data:
                indptr = np.asarray(data["route_indptr"], dtype=np.int64)
                flat = np.asarray(data["route_node"], dtype=np.int64)
        except (OSError, ValueError, KeyError):
            self.corrupt += 1
            self.obs.cache_corrupt.inc()
            return None
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != flat.size:
            self.corrupt += 1
            self.obs.cache_corrupt.inc()
            return None
        self.hits += 1
        self.obs.cache_hits.inc()
        return indptr, flat

    # -- store ---------------------------------------------------------------

    def store(self, key: str, route_indptr: np.ndarray,
              route_node: np.ndarray) -> str:
        """Atomically persist the route arrays under *key*."""
        payload = self.payload_path(key)
        record = {
            "version": ROUTE_CACHE_VERSION,
            "key": key,
        }
        # temp name keeps the .npz suffix so numpy doesn't append one;
        # payload publishes before its sidecar so a reader that sees the
        # sidecar always finds a complete payload to checksum.
        with atomic_write(payload, suffix=".npz") as tmp_payload:
            np.savez_compressed(tmp_payload, route_indptr=route_indptr,
                                route_node=route_node)
            record["sha256"] = _file_sha256(str(tmp_payload))
        atomic_write_json(self.sidecar_path(key), record, sort_keys=True,
                          trailing_newline=False)
        return payload
