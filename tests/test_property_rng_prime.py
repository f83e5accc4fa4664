"""Batch-primed streams ≡ streams seeded one at a time.

``RngRegistry.prime`` seeds many named streams at once through a
vectorised copy of numpy's ``SeedSequence`` mixing.  The oracle is the
scalar path it replaces: ``np.random.default_rng(derive_seed(master,
name))``.  Every primed generator must produce the oracle's draws
(uniform, normal, integer, Poisson, and the registry's lognormal
factor), for master seeds at the 32- and 64-bit word boundaries and for
name lists with duplicates; a name streamed (and advanced) before
priming keeps its generator and state.  The state expansion itself is
checked against ``SeedSequence.generate_state`` on raw seeds, including
the ones below 2**32 that numpy hashes as a single entropy word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry, _seed_states, _Seeded, derive_seed

#: Word boundaries of a seed's uint32 split, plus arbitrary 64-bit seeds.
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
MASTERS = st.sampled_from(BOUNDARY_SEEDS[:-1]) | st.integers(0, 2**64 - 1)
NAMES = st.lists(st.text(alphabet="ab.01", min_size=1, max_size=6),
                 max_size=12)


def _draws(gen: np.random.Generator) -> list:
    return [gen.random(3).tolist(), gen.normal(0.0, 2.0, 2).tolist(),
            gen.integers(0, 1000, 3).tolist(), gen.poisson(1.5, 3).tolist()]


@settings(max_examples=80, deadline=None)
@given(master=MASTERS, names=NAMES,
       early=st.lists(st.integers(0, 11), max_size=4))
def test_primed_streams_draw_what_default_rng_draws(master, names, early):
    reg = RngRegistry(master)
    advanced = {}
    for i in early:
        if names:
            name = names[i % len(names)]
            gen = reg.stream(name)
            gen.random()
            advanced.setdefault(name, [gen, 0])[1] += 1
    reg.prime(names)
    for name in dict.fromkeys(names):
        gen = reg.stream(name)
        ref = np.random.default_rng(derive_seed(master, name))
        if name in advanced:
            kept, steps = advanced[name]
            assert gen is kept
            ref.random(steps)
        assert _draws(gen) == _draws(ref), name
        sigma = 0.4
        assert reg.lognormal_factor(name, sigma) == \
            float(np.exp(ref.normal(0.0, sigma))), name


@settings(max_examples=40, deadline=None)
@given(master=MASTERS, names=NAMES)
def test_priming_twice_or_in_pieces_changes_nothing(master, names):
    whole = RngRegistry(master)
    whole.prime(names)
    pieces = RngRegistry(master)
    half = len(names) // 2
    pieces.prime(names[:half])
    pieces.prime(names[half:])
    pieces.prime(names)
    for name in dict.fromkeys(names):
        assert _draws(whole.stream(name)) == _draws(pieces.stream(name))


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.sampled_from(BOUNDARY_SEEDS)
                      | st.integers(0, 2**32 - 1)
                      | st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_seed_states_match_seed_sequence(seeds):
    states = _seed_states(seeds)
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    for seed, row in zip(seeds, states):
        expect = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tolist() == expect.tolist(), seed


def test_precomputed_state_serves_only_pcg64s_request():
    seeded = _Seeded(_seed_states([5])[0])
    assert seeded.generate_state(4, np.uint64).tolist() == \
        np.random.SeedSequence(5).generate_state(4, np.uint64).tolist()
    with pytest.raises(ValueError, match="PCG64"):
        seeded.generate_state(8, np.uint32)
