"""Content-addressed on-disk cache of compiled worlds.

A compiled world depends only on its spec (routes are computed on
*unjittered* capacities; per-seed jitter is applied at materialize time
and never changes hop sequences).  So the whole
:class:`~repro.topo.compiled.CompiledTopology`, precompiled routes
included, is cached under the spec's content hash: ``routes-<hash>.npz``
written by :meth:`CompiledTopology.save` (level-1 deflate; entries an
older writer deflated at level 6 load the same), plus a JSON sidecar carrying
the cache version and the sha256 of the payload file.  A warm compile
loads it and skips ``generate``, the array build and route resolution.

Lookups have three outcomes, each counted (and exported through
:class:`~repro.topo.instrument.TopoInstrumentation` when attached):

* **hit** — sidecar checks out, payload hash matches, and the payload
  loads as a compiled world of this spec: it is returned.
* **miss** — no entry for the key: caller recomputes and stores.
* **corrupt** — entry exists but the sidecar is unreadable, the version
  is foreign, the payload hash mismatches, or the payload is not a
  compiled world of this spec: the entry is ignored and the caller
  recomputes (then overwrites).  Corruption never propagates.

Writes are atomic (temp file + ``os.replace``) so a crashed compile
can't leave a half-written entry that later loads garbage.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from repro.core.atomic import atomic_write, atomic_write_json, read_json_object
from repro.errors import TopoError
from repro.topo.compiled import CompiledTopology
from repro.topo.instrument import TopoInstrumentation

__all__ = ["RouteCache"]

#: Bump when the payload encoding changes; old entries recompute.
ROUTE_CACHE_VERSION = 2


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RouteCache:
    """Compiled-world cache rooted at one directory."""

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

    def load(self, key: str) -> Optional[CompiledTopology]:
        """The compiled world stored under *key*, or None to recompute."""
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
            compiled = CompiledTopology.load(payload)
            if compiled.meta.get("spec_hash") != key:
                raise ValueError("payload names a different spec")
        except (OSError, ValueError, TopoError):
            self.corrupt += 1
            self.obs.cache_corrupt.inc()
            return None
        self.hits += 1
        self.obs.cache_hits.inc()
        return compiled

    # -- store ---------------------------------------------------------------

    def store(self, key: str, compiled: CompiledTopology) -> str:
        """Atomically persist *compiled* under *key*."""
        payload = self.payload_path(key)
        record = {
            "version": ROUTE_CACHE_VERSION,
            "key": key,
        }
        # payload publishes before its sidecar so a reader that sees the
        # sidecar always finds a complete payload to checksum.
        with atomic_write(payload, suffix=".npz") as tmp_payload:
            compiled.save(str(tmp_payload))
            record["sha256"] = _file_sha256(str(tmp_payload))
        atomic_write_json(self.sidecar_path(key), record, sort_keys=True,
                          trailing_newline=False)
        return payload
