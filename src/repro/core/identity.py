"""Content identity: the one canonical JSON encoding and its hash.

Everything the reproduction persists under a content-derived name —
campaign cell keys, shard cell and plan keys, published site-report
names, directory snapshot hashes, world hashes, the lint cache
fingerprint — is the sha256 of one canonical JSON encoding (sorted
keys, no whitespace) of an identity dict.  Keeping the encoding and the
hash here means two identities are equal exactly when their keys are,
whichever module computed them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

__all__ = ["canonical_json", "content_key"]


def canonical_json(payload: object) -> str:
    """The one true JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: object, length: Optional[int] = None) -> str:
    """sha256 hex digest of :func:`canonical_json`, cut to *length* chars."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:length]
