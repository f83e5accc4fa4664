"""Named, seeded random-number streams.

Every stochastic component of the simulation (per-run jitter, cross-traffic
arrivals, API service-time noise, ...) draws from its own named stream, all
derived deterministically from one master seed.  Two experiments with the
same master seed produce bit-identical results regardless of the order in
which components were constructed, because each stream's seed depends only
on the master seed and the stream name.

A component that knows its stream names up front (the topology generator
does) can :meth:`RngRegistry.prime` them in one batch: the seeds are
expanded by a vectorised copy of numpy's ``SeedSequence`` mixing, so a
primed stream draws exactly what ``np.random.default_rng(seed)`` would.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngRegistry", "derive_seed"]

_MASK32 = 0xFFFFFFFF

#: numpy's ``SeedSequence`` constants (``bit_generator.pyx``): the
#: hash-constant seeds and multipliers of the pool hashmix (A) and the
#: output stage (B), and the pool word mix multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: Pool words, and uint32 output words PCG64 asks for (4 uint64 words).
_POOL = 4
_OUT_WORDS = 8


def _hash_consts(init: int, mult: int, n: int) -> List[np.uint32]:
    """The hash constant's successive values: it starts at *init* and is
    multiplied by *mult* after every use, independently of the data."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return [np.uint32(c) for c in out]


#: One hashmix per pool word, then one per ordered pair of pool words.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, _OUT_WORDS)


def _seed_states(seeds: List[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    Runs numpy's mixing once over uint32 columns (arithmetic wraps modulo
    2**32, as in the C code).  A 64-bit seed is entropy words
    ``[lo, hi]``; a seed below 2**32 is numpy's one-word case, which
    hashes the missing word as 0, so the zero-padded pair gives the same
    pool.  Returns a C-contiguous ``(len(seeds), 4)`` uint64 array.
    """
    s = np.array(seeds, dtype=np.uint64)
    zeros = np.zeros(s.shape, dtype=np.uint32)
    entropy = [(s & np.uint64(_MASK32)).astype(np.uint32),
               (s >> np.uint64(32)).astype(np.uint32), zeros, zeros]
    step = 0

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal step
        value = (value ^ _HASH_A[step]) * _HASH_A[step + 1]
        step += 1
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = np.empty((s.shape[0], _OUT_WORDS), dtype=np.uint32)
    for i in range(_OUT_WORDS):
        word = (pool[i % _POOL] ^ _HASH_B[i]) * _HASH_B[i + 1]
        out[:, i] = word ^ (word >> _XSHIFT)
    # pairs of little-endian uint32 words form each uint64, as in numpy
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _Seeded(ISeedSequence):
    """A seed sequence whose PCG64 state words were computed in a batch."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"precomputed seed state serves PCG64's (4, uint64) "
                f"request only, got ({n_words}, {np.dtype(dtype)})")
        return self._state


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from (master_seed, name), stably."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory for named :class:`numpy.random.Generator` streams.

    >>> r = RngRegistry(42)
    >>> a = r.stream("crosstraffic.purdue")
    >>> b = r.stream("crosstraffic.purdue")
    >>> a is b
    True
    >>> r2 = RngRegistry(42)
    >>> float(r2.stream("crosstraffic.purdue").random()) == float(np.random.default_rng(derive_seed(42, "crosstraffic.purdue")).random())
    True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def prime(self, names: Iterable[str]) -> None:
        """Create the streams for *names* in one vectorised batch.

        Each primed stream draws exactly what :meth:`stream` would have
        returned for its name; names that already have a stream keep
        their generator (and its advanced state).  Seeding one stream at
        a time costs a ``SeedSequence`` per name; a batch runs the mixing
        once over all of them.

        >>> r = RngRegistry(42)
        >>> r.prime(["a", "b"])
        >>> float(r.stream("b").random()) == float(np.random.default_rng(derive_seed(42, "b")).random())
        True
        """
        fresh = [n for n in dict.fromkeys(names) if n not in self._streams]
        if not fresh:
            return
        states = _seed_states([derive_seed(self.master_seed, n) for n in fresh])
        for name, state in zip(fresh, states):
            self._streams[name] = Generator(PCG64(_Seeded(state)))

    def fork(self, run_index: int) -> "RngRegistry":
        """Registry for an independent experiment run.

        Used by the measurement harness: run *i* of an experiment gets
        streams derived from ``(master_seed, "run", i)`` so that runs are
        independent but individually reproducible.
        """
        return RngRegistry(derive_seed(self.master_seed, f"run:{run_index}"))

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """Draw a multiplicative jitter factor with unit median.

        ``sigma`` is the log-space standard deviation; 0 yields exactly 1.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if sigma == 0:
            return 1.0
        return float(np.exp(self.stream(name).normal(0.0, sigma)))
