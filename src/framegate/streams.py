"""Deterministic random substreams derived from a single master seed.

Every random draw in the package goes through `stream(seed, *path)` or
`streams(seed, count)`, so one integer seed pins the whole run. Path
components may be non-negative integers (dataset pair indices, epoch
numbers) or short names ("init", "epoch"); names are hashed to fixed
integers so the derivation is stable across runs.

`stream(seed, *path)` draws exactly what
`np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))` draws,
but builds no SeedSequence, which costs about 20 us per stream, half of a
3,000-pair `gen-data`. `_seed_words` runs SeedSequence's pool hash and its
`generate_state(4, np.uint64)` for a whole block of spawn keys at once, in
uint32 arrays whose overflow wraps as in numpy's C code. Each row's four
words reach PCG64 through numpy's `ISeedSequence` hook, and PCG64 seeds
itself from them as usual. `streams(seed, count)` yields stream(seed, i) for
each pair index i from such blocks, one generator at a time; `stream` is the
one-row case.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterator

import numpy as np

MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's pool size and hash constants (bit_generator.pyx).
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Pair indices per block of `streams`, a power of two below 2**32: a block
# starts at a multiple of BLOCK, so its indices differ from the start in the
# low bits of the lowest 32-bit word only.
BLOCK = 4096


def _component(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of value, [0] for zero, as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"stream seeds and path components must be non-negative, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def _entropy(seed: int, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=key)'s entropy words for each row of keys,
    a (rows, words) uint32 array of spawn keys split into 32-bit words."""
    run = _words(int(seed))
    if keys.shape[1]:
        # With a spawn key, SeedSequence pads the seed to the pool size.
        run += [0] * (POOL_SIZE - len(run))
    return np.hstack((np.tile(np.array(run, dtype=np.uint32), (len(keys), 1)), keys))


def _multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of `count` hashmix steps and after the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray, step: int, width: int) -> np.ndarray:
    """Hashmix steps step..step+width-1, one per column of the result."""
    mixed = (values ^ consts[step:step + width]) * consts[step + 1:step + width + 1]
    return mixed ^ (mixed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return mixed ^ (mixed >> 16)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy row).generate_state(4, np.uint64) for every row at once.

    Follows numpy's mix_entropy step for step: hashmix each word into the
    pool, mix every pool word into every other, then mix each word past the
    pool into every pool word. The hash constant advances once per hashmix
    regardless of the data, so each step's constants are one slice.
    """
    rows, width = entropy.shape
    extra = max(width - POOL_SIZE, 0)
    consts = _multipliers(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE + POOL_SIZE * extra)
    first = np.zeros((rows, POOL_SIZE), dtype=np.uint32)
    first[:, :width] = entropy[:, :POOL_SIZE]
    pool = _hashmix(first, consts, 0, POOL_SIZE)
    step = POOL_SIZE
    for src in range(POOL_SIZE):
        others = [dst for dst in range(POOL_SIZE) if dst != src]
        pool[:, others] = _mix(pool[:, others],
                               _hashmix(pool[:, src, None], consts, step, POOL_SIZE - 1))
        step += POOL_SIZE - 1
    for src in range(POOL_SIZE, width):
        pool = _mix(pool, _hashmix(entropy[:, src, None], consts, step, POOL_SIZE))
        step += POOL_SIZE
    # generate_state cycles through the pool for 8 uint32 words, then reads
    # each little-endian pair as one uint64. PCG64 reads a row's buffer
    # directly, ignoring strides, so the rows must be contiguous.
    state = _hashmix(np.tile(pool, 2), _multipliers(INIT_B, MULT_B, 2 * POOL_SIZE),
                     0, 2 * POOL_SIZE).astype(np.uint64)
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << np.uint64(32))


@functools.cache
def _seeded():
    """An ISeedSequence that hands PCG64 four precomputed uint64 words. Made
    on first use, so importing framegate does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"precomputed seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
            return self.words

    return Seeded


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    seeded = _seeded()
    for row in words:
        yield np.random.Generator(np.random.PCG64(seeded(row)))


def stream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); same arguments, same draws."""
    key = np.array([[word for part in path for word in _words(_component(part))]],
                   dtype=np.uint32)
    return next(_generators(_seed_words(_entropy(seed, key))))


def streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """stream(seed, i) for i in range(count), in order, derived a block at a time."""
    for start in range(0, count, BLOCK):
        keys = np.tile(np.array(_words(start), dtype=np.uint32), (min(BLOCK, count - start), 1))
        keys[:, 0] += np.arange(len(keys), dtype=np.uint32)
        yield from _generators(_seed_words(_entropy(seed, keys)))
