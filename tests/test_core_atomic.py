"""Unit contract of the sanctioned atomic-write protocol.

`repro.core.atomic` backs every durable artifact in the tree (campaign
records, directory-tier documents, shard run files, route caches, the
lint cache), so its contract is pinned in isolation: round-trips,
``mkdir``/``suffix`` knobs, temp-file hygiene, and — the point of the
module — that an exception mid-write leaves the destination untouched
and no temp file behind.  The read side is pinned too: every JSON store
reads through ``read_json_object``, and a file that is not a JSON object
maps to that store's own corrupt-file outcome.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.atomic import (atomic_write, atomic_write_bytes,
                               atomic_write_json, atomic_write_text,
                               read_json_object)

pytestmark = pytest.mark.core


def _no_tmp_files(directory: Path):
    return [p.name for p in directory.glob("*.tmp*")] == []


def test_text_round_trip_and_return_value(tmp_path):
    target = tmp_path / "doc.txt"
    assert atomic_write_text(target, "héllo\n") == target
    assert target.read_text(encoding="utf-8") == "héllo\n"
    assert _no_tmp_files(tmp_path)


def test_bytes_round_trip(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write_bytes(target, b"\x00\x01\x02")
    assert target.read_bytes() == b"\x00\x01\x02"
    assert _no_tmp_files(tmp_path)


def test_json_knobs_mirror_json_dumps(tmp_path):
    payload = {"b": 1, "a": [1, 2]}
    target = tmp_path / "doc.json"
    atomic_write_json(target, payload, sort_keys=True,
                      separators=(",", ":"))
    expected = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
    assert target.read_text(encoding="utf-8") == expected
    atomic_write_json(target, payload, indent=1, trailing_newline=False)
    assert target.read_text(encoding="utf-8") \
        == json.dumps(payload, sort_keys=True, indent=1)


def test_mkdir_creates_missing_parents(tmp_path):
    target = tmp_path / "a" / "b" / "doc.json"
    atomic_write_json(target, {"k": 1}, mkdir=True)
    assert json.loads(target.read_text(encoding="utf-8")) == {"k": 1}


def test_write_without_mkdir_fails_on_missing_parent(tmp_path):
    with pytest.raises(FileNotFoundError):
        atomic_write_text(tmp_path / "missing" / "doc.txt", "x")


def test_overwrite_replaces_whole_document(tmp_path):
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "a much longer first version\n")
    atomic_write_text(target, "v2\n")
    assert target.read_text(encoding="utf-8") == "v2\n"


def test_context_manager_suffix_and_pid_in_temp_name(tmp_path):
    target = tmp_path / "routes.npz"
    with atomic_write(target, suffix=".npz") as tmp:
        assert tmp.parent == tmp_path
        assert tmp.name == f"routes.npz.{os.getpid()}.tmp.npz"
        tmp.write_bytes(b"payload")
    assert target.read_bytes() == b"payload"
    assert _no_tmp_files(tmp_path)


def test_exception_leaves_target_untouched_and_no_temp(tmp_path):
    target = tmp_path / "doc.txt"
    atomic_write_text(target, "original\n")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as tmp:
            tmp.write_text("half-written", encoding="utf-8")
            raise RuntimeError("killed mid-write")
    assert target.read_text(encoding="utf-8") == "original\n"
    assert _no_tmp_files(tmp_path)


def test_exception_before_temp_exists_is_clean(tmp_path):
    target = tmp_path / "doc.txt"
    with pytest.raises(ValueError):
        with atomic_write(target):
            raise ValueError("serializer refused")
    assert not target.exists()
    assert _no_tmp_files(tmp_path)


# -- the verified reader -------------------------------------------------------

#: Files that are not a JSON object: valid JSON of the wrong shape, and
#: bytes that are not UTF-8 at all.
NOT_AN_OBJECT = [b"[]", b"null", b'"x"', b"\xff\xfe"]


def test_read_json_object_round_trip_and_missing_file(tmp_path):
    target = tmp_path / "doc.json"
    assert read_json_object(target) is None
    atomic_write_json(target, {"k": [1, "é"]})
    assert read_json_object(target) == {"k": [1, "é"]}


@pytest.mark.parametrize("blob", NOT_AN_OBJECT + [b"{", b""])
def test_read_json_object_rejects_with_value_error(tmp_path, blob):
    target = tmp_path / "doc.json"
    target.write_bytes(blob)
    with pytest.raises(ValueError):
        read_json_object(target)


@pytest.mark.parametrize("blob", NOT_AN_OBJECT)
def test_every_store_maps_a_non_object_file_to_its_outcome(tmp_path, blob):
    """Each JSON store reads through ``read_json_object`` and keeps its
    own documented outcome for a corrupt file — never a raw
    ``AttributeError`` or ``UnicodeDecodeError``."""
    from repro.campaign.spec import CampaignCell
    from repro.campaign.store import ResultStore
    from repro.errors import CampaignError, ShardError
    from repro.lint.graph.cache import SummaryCache
    from repro.shard.runner import RUN_FILE, read_run_file
    from repro.shard.service import DirectoryFileTier, SharedDirectoryService
    from repro.topo import compile_spec, preset_spec
    from repro.topo.routecache import RouteCache

    # campaign result store: raises CampaignError, from get and records
    cell = CampaignCell("ubc", "gdrive", "direct", 10.0)
    store = ResultStore(tmp_path / "cells")
    atomic_write_bytes(store.path_for(cell), blob, mkdir=True)
    with pytest.raises(CampaignError, match="corrupt"):
        store.get(cell)
    with pytest.raises(CampaignError, match="corrupt"):
        store.records()

    # shared-directory file tier (and the service over it): ShardError
    tier = DirectoryFileTier(tmp_path / "directory")
    atomic_write_bytes(tier.path_for("snap"), blob, mkdir=True)
    with pytest.raises(ShardError, match="corrupt"):
        tier.fetch("snap")
    with pytest.raises(ShardError, match="corrupt"):
        SharedDirectoryService(tmp_path / "directory").fetch_snapshot("snap")

    # shard run file: ShardError
    atomic_write_bytes(tmp_path / "run" / RUN_FILE, blob, mkdir=True)
    with pytest.raises(ShardError, match="corrupt"):
        read_run_file(tmp_path / "run")

    # route cache: a corrupt sidecar is a counted miss, never an error
    cache = RouteCache(str(tmp_path / "routes"))
    spec = preset_spec("smoke", seed=0)
    key = spec.content_hash()
    cache.store(key, compile_spec(spec))
    atomic_write_bytes(cache.sidecar_path(key), blob)
    assert cache.load(key) is None
    assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 1)

    # lint cache: the whole cache document is dropped
    atomic_write_bytes(tmp_path / "lint" / "lint-cache-f00d.json", blob,
                       mkdir=True)
    lint_cache = SummaryCache(tmp_path / "lint", "f00d")
    assert lint_cache.stats.corrupt
    assert lint_cache.lookup("a.py", "0" * 64) is None


@pytest.mark.parametrize("entry", [[], None, "x", 3])
def test_lint_cache_entry_that_is_not_an_object_is_invalidated(tmp_path,
                                                                entry):
    from repro.lint.graph.cache import CACHE_VERSION, SummaryCache

    atomic_write_json(tmp_path / "lint-cache-f00d.json", {
        "version": CACHE_VERSION, "fingerprint": "f00d",
        "files": {"a.py": entry}})
    lint_cache = SummaryCache(tmp_path, "f00d")
    assert not lint_cache.stats.corrupt
    assert lint_cache.lookup("a.py", "0" * 64) is None
    assert (lint_cache.stats.invalidated, lint_cache.stats.misses) == (1, 1)
