"""Stream derivation and the block of first words against numpy's own SeedSequence and PCG64."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framegate
from framegate.streams import BLOCK, pair_words, stream

# 2**130 + 5 has five 32-bit words, one more than SeedSequence's pool, so it
# runs the branch that mixes the remaining entropy into the pool.
SEEDS = [0, 7, 2**32 + 1, 2**130 + 5]
PATHS = [(), (0,), (5,), ("init",), ("epoch", 3), (2**32,), (2**70 + 3, "x", 0)]


def reference(seed, *path) -> np.random.Generator:
    """The generator numpy's SeedSequence gives, names hashed to their first 8 sha256 bytes."""
    key = tuple(part if isinstance(part, int)
                else int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "big")
                for part in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS, ids=repr)
def test_stream_matches_numpy_seed_sequence(seed, path):
    ours, theirs = stream(seed, *path), reference(seed, *path)
    assert state(ours) == state(theirs)
    assert np.array_equal(ours.integers(0, 2**63, 16), theirs.integers(0, 2**63, 16))


def first_words(rng: np.random.Generator) -> list[int]:
    """The first four next_uint32 words: each 64-bit output's low half, then its high half."""
    return [int(half) for raw in rng.bit_generator.random_raw(2)
            for half in (raw & 0xFFFFFFFF, raw >> 32)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_words_match_numpy(seed):
    words = pair_words(seed, 7)
    assert words.shape == (7, 4) and words.dtype == np.uint32
    for i in range(7):
        assert words[i].tolist() == first_words(stream(seed, i)) == first_words(reference(seed, i))
    assert pair_words(seed, 0).shape == (0, 4)


def test_pair_words_cross_block_boundaries():
    for seed in SEEDS:
        words = pair_words(seed, BLOCK + 2)
        assert words.shape == (BLOCK + 2, 4) and words.dtype == np.uint32
        for i in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            assert words[i].tolist() == first_words(reference(seed, i))
        assert np.array_equal(pair_words(seed, 5), words[:5])


@pytest.mark.parametrize("seed,path", [(-1, ()), (-1, (0,)), (0, (-1,)), (7, ("init", -2))])
def test_negative_seed_or_component_is_refused(seed, path):
    with pytest.raises(ValueError, match="non-negative"):
        stream(seed, *path)
    with pytest.raises(ValueError, match="non-negative"):
        reference(seed, *path)


def test_pair_words_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        pair_words(-1, 3)


def test_importing_framegate_leaves_numpy_random_unloaded():
    # numpy.random costs a fresh import about 12 ms; only drawing should load it.
    source = str(Path(framegate.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, framegate.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
