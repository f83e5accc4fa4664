"""File specs, generation, and checksum primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransferError
from repro.transfer import (
    FileSpec,
    RollingChecksum,
    block_signatures,
    generate_bytes,
    make_test_files,
    strong_checksum,
)
from repro.transfer import DataTransferNode
from repro.transfer.files import MAX_MATERIALIZE_BYTES, Entropy, PAPER_SIZES_MB
from repro.units import mb


class TestFileSpec:
    def test_paper_file_set(self):
        specs = make_test_files()
        assert [s.size_mb for s in specs] == list(PAPER_SIZES_MB)
        assert all(s.entropy is Entropy.RANDOM for s in specs)

    def test_materialize_deterministic(self):
        spec = FileSpec("f", 4096, seed=7)
        assert spec.materialize() == spec.materialize()

    def test_different_seeds_differ(self):
        a = FileSpec("a", 4096, seed=1).materialize()
        b = FileSpec("b", 4096, seed=2).materialize()
        assert a != b

    def test_materialize_size_guard(self):
        big = FileSpec("big", int(mb(100)))
        with pytest.raises(TransferError, match="cost model"):
            big.materialize()

    def test_digest_stable_for_large_files(self):
        big = FileSpec("big", int(mb(100)), seed=3)
        assert big.content_digest() == FileSpec("x", int(mb(100)), seed=3).content_digest()

    def test_zero_size_rejected(self):
        with pytest.raises(TransferError):
            FileSpec("empty", 0)

    def test_random_data_incompressible(self):
        spec = FileSpec("r", 1000, entropy=Entropy.RANDOM)
        assert spec.compressed_bytes() == 1000

    def test_compressible_classes(self):
        assert FileSpec("t", 1000, entropy=Entropy.TEXT).compressed_bytes() < 500
        assert FileSpec("z", 1000, entropy=Entropy.ZEROS).compressed_bytes() < 50

    def test_generated_entropy_actually_differs(self):
        import zlib

        rnd = generate_bytes(50_000, Entropy.RANDOM, seed=1)
        txt = generate_bytes(50_000, Entropy.TEXT, seed=1)
        zer = generate_bytes(50_000, Entropy.ZEROS)
        assert len(zlib.compress(rnd)) > 0.95 * len(rnd)   # incompressible
        assert len(zlib.compress(txt)) < 0.70 * len(txt)   # compressible
        assert len(zlib.compress(zer)) < 0.01 * len(zer)   # trivial


class TestContentIdentity:
    """A file's identity is its (size, entropy, seed) triple: the digest
    hashes that, and never generates the bytes."""

    SIZES = (1, 4096, int(mb(40)), MAX_MATERIALIZE_BYTES,
             MAX_MATERIALIZE_BYTES + 1, int(mb(100)))

    @pytest.fixture(autouse=True)
    def no_materialize(self, monkeypatch):
        def refuse(spec):
            raise AssertionError(f"{spec.name}: contents materialized")
        monkeypatch.setattr(FileSpec, "materialize", refuse)

    def test_digest_never_materializes(self):
        for size in self.SIZES:
            for entropy in Entropy:
                FileSpec("f", size, entropy, seed=3).content_digest()

    def test_digest_distinct_across_triple(self):
        digests = {
            FileSpec("f", size, entropy, seed).content_digest()
            for size in self.SIZES for entropy in Entropy for seed in (0, 1, 7)
        }
        assert len(digests) == len(self.SIZES) * len(Entropy) * 3

    def test_digest_stable_and_independent_of_name(self):
        spec = FileSpec("a.bin", int(mb(40)), Entropy.TEXT, seed=5)
        first = spec.content_digest()
        assert spec.content_digest() == first
        renamed = FileSpec("b.bin", int(mb(40)), Entropy.TEXT, seed=5)
        assert renamed.content_digest() == first

    def test_dtn_digest_agrees(self):
        dtn = DataTransferNode("dtn")
        for i, size in enumerate(self.SIZES):
            spec = FileSpec(f"f{i}", size, seed=i)
            dtn.stage(spec)
            assert dtn.digest_of(spec.name) == spec.content_digest()


class TestRollingChecksum:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            RollingChecksum(b"")

    def test_roll_equals_recompute(self):
        data = generate_bytes(600, seed=5)
        window = 64
        rc = RollingChecksum(data[:window])
        for i in range(window, len(data)):
            rc.roll(data[i - window], data[i])
            expected = RollingChecksum(data[i - window + 1:i + 1]).digest()
            assert rc.digest() == expected

    @given(st.binary(min_size=2, max_size=256), st.binary(min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_roll_property(self, data, extra):
        window = max(1, len(data) // 2)
        stream = data + extra
        rc = RollingChecksum(stream[:window])
        for i in range(window, len(stream)):
            rc.roll(stream[i - window], stream[i])
        assert rc.digest() == RollingChecksum(stream[-window:]).digest()

    def test_digest_is_32_bits(self):
        d = RollingChecksum(b"x" * 1000).digest()
        assert 0 <= d < 2**32


class TestStrongChecksum:
    def test_length(self):
        assert len(strong_checksum(b"abc")) == 16

    def test_sensitivity(self):
        assert strong_checksum(b"abc") != strong_checksum(b"abd")


class TestBlockSignatures:
    def test_count_excludes_partial_tail(self):
        sigs = block_signatures(b"x" * 2500, block_size=1000)
        assert [s.index for s in sigs] == [0, 1]

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            block_signatures(b"x", 0)

    def test_signatures_match_blocks(self):
        data = generate_bytes(4096, seed=9)
        sigs = block_signatures(data, 1024)
        for s in sigs:
            block = data[s.index * 1024:(s.index + 1) * 1024]
            assert s.weak == RollingChecksum(block).digest()
            assert s.strong == strong_checksum(block)
