"""The sanctioned atomic-write protocol, and the one verified reader.

Every durable artifact in the tree — campaign store records, shared
directory-tier documents, shard run files, compiled-route caches, the
lint cache — is written by *racing writers*: pool children, shard
workers, and the parent process all persist state concurrently, and any
of them can be killed mid-write.  POSIX ``rename(2)`` is atomic within a
filesystem, so the one safe shape is: write the full payload to a
process-unique temp file in the destination directory, then
``os.replace`` it over the final name.  A reader sees either the old
complete document or the new complete document, never a torn one.

This module is the *only* sanctioned implementation of that shape; the
``SL1002`` lint rule (:mod:`repro.lint.rules.conc`) flags hand-rolled
copies and non-atomic durable writes elsewhere.

* :func:`atomic_write_text` / :func:`atomic_write_bytes` /
  :func:`atomic_write_json` — one-shot replacements for
  ``Path.write_text`` / ``Path.write_bytes`` / ``json.dump``.
* :func:`atomic_write` — a context manager yielding the temp path, for
  writers that need a real file on disk (``np.savez``, incremental
  serializers).  The replace happens on clean exit; on an exception the
  temp file is removed and nothing is published.
* :func:`read_json_object` — the read side every JSON store shares:
  ``None`` when there is no file, ``ValueError`` for bytes that are not
  UTF-8 JSON or for a document that is not a JSON object.  Stores catch
  the ``ValueError`` and map it to their own outcome for a corrupt
  entry (raise a domain error, count a miss, drop the cache).

Temp names are ``<final name>.<pid>.tmp`` (plus a caller suffix when the
serializer is picky about extensions, e.g. ``.npz``), so concurrent
writers in different processes never collide and stale temp files from
killed writers are recognizable — ``*.tmp`` globs inside artifact
directories (see ``DirectoryFileTier.clean_tmp``) sweep them without
ever matching a published document.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "read_json_object",
]


def _tmp_path(path: Path, suffix: str) -> Path:
    return path.with_name(f"{path.name}.{os.getpid()}.tmp{suffix}")


@contextmanager
def atomic_write(path: Union[str, Path], suffix: str = "",
                 mkdir: bool = False) -> Iterator[Path]:
    """Yield a temp path; atomically publish it over *path* on success.

    *suffix* is appended to the temp name for serializers that insist on
    an extension (``np.savez`` appends ``.npz`` to anything else).  With
    ``mkdir=True`` the destination directory is created first.  On an
    exception inside the block the temp file is deleted and *path* is
    left untouched.
    """
    path = Path(path)
    if mkdir:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path, suffix)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Union[str, Path], data: bytes,
                       mkdir: bool = False) -> Path:
    """Atomically write *data* to *path*; returns the final path."""
    path = Path(path)
    with atomic_write(path, mkdir=mkdir) as tmp:
        tmp.write_bytes(data)
    return path


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8", mkdir: bool = False) -> Path:
    """Atomically write *text* to *path*; returns the final path."""
    return atomic_write_bytes(path, text.encode(encoding), mkdir=mkdir)


def atomic_write_json(path: Union[str, Path], payload: object, *,
                      sort_keys: bool = True, indent=None, separators=None,
                      trailing_newline: bool = True,
                      mkdir: bool = False) -> Path:
    """Atomically serialize *payload* as JSON to *path*.

    The keyword knobs mirror ``json.dumps`` so existing writers migrate
    byte-identically (the shard byte-identity suite pins exact bytes).
    """
    blob = json.dumps(payload, sort_keys=sort_keys, indent=indent,
                      separators=separators)
    if trailing_newline:
        blob += "\n"
    return atomic_write_text(path, blob, mkdir=mkdir)


def read_json_object(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The JSON object stored at *path*, or None when there is no file.

    Raises ``ValueError`` (``UnicodeDecodeError`` and
    ``json.JSONDecodeError`` are subclasses) when the bytes are not
    UTF-8 JSON, and when the document parses to anything but an object.
    """
    path = Path(path)
    if not path.is_file():
        return None
    payload = json.loads(path.read_bytes().decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(
            f"expected a JSON object, got {type(payload).__name__}")
    return payload
