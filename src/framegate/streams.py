"""Deterministic random substreams derived from a single master seed.

Every random draw in the package goes through `stream(seed, *path)`, so one
integer seed pins the whole run. Path components may be non-negative
integers (dataset pair indices, epoch numbers) or short names ("init",
"epoch"); names are hashed to fixed integers so the derivation is stable
across runs. `stream(seed, *path)` is
`np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))`.

`pair_words(seed, count)` computes, without building a generator, the first
four `next_uint32` words of stream(seed, i) for every pair index i: a
3,000-pair `gen-data` needs nothing else, and 3,000 generators cost several
times the whole draw. `_seed_words` runs SeedSequence's pool hash and its
`generate_state(4, np.uint64)` for a block of spawn keys at once, in uint32
arrays whose overflow wraps as in numpy's C code. PCG64 (O'Neill, 2014)
seeds itself from those words and takes two outputs, in uint64 arrays
holding each 128-bit value as its high and low halves.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's pool size and hash constants (bit_generator.pyx).
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as high and low 64-bit halves (pcg64.h).
MULT_HI, MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Pair indices per block of `pair_words`, a power of two below 2**32: a block
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
    a (rows, words) uint32 array of non-empty spawn keys split into 32-bit
    words. With a spawn key, SeedSequence pads the seed to the pool size."""
    run = _words(int(seed))
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
    """SeedSequence(entropy row).generate_state(4, np.uint64) for every row of
    at least POOL_SIZE words at once.

    Follows numpy's mix_entropy step for step: hashmix each word into the
    pool, mix every pool word into every other, then mix each word past the
    pool into every pool word. The hash constant advances once per hashmix
    regardless of the data, so each step's constants are one slice.
    """
    width = entropy.shape[1]
    consts = _multipliers(INIT_A, MULT_A, POOL_SIZE * width)
    pool = _hashmix(entropy[:, :POOL_SIZE], consts, 0, POOL_SIZE)
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
    # each little-endian pair as one uint64.
    state = _hashmix(np.tile(pool, 2), _multipliers(INIT_B, MULT_B, 2 * POOL_SIZE),
                     0, 2 * POOL_SIZE).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _add(a, b):
    """a + b mod 2**128, each a (high, low) pair of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _step(state, inc):
    """One PCG64 step, state * MULT + inc mod 2**128. The low halves' full
    128-bit product is summed from 32-bit limbs, each product below 2**64."""
    high, low = state
    a1, a0 = low >> 32, low & MASK32
    b1, b0 = MULT_LO >> 32, MULT_LO & MASK32
    mid = (a0 * b0 >> 32) + (a0 * b1 & MASK32) + (a1 * b0 & MASK32)
    carry = a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
    product = carry + low * MULT_HI + high * MULT_LO, low * MULT_LO
    return _add(product, inc)


def _output(state) -> np.ndarray:
    """PCG64's XSL-RR output: high ^ low rotated right by the top 6 bits of high."""
    value, turn = state[0] ^ state[1], state[0] >> 58
    return value >> turn | value << (64 - turn & 63)


def pair_words(seed: int, count: int) -> np.ndarray:
    """The first four next_uint32 words of stream(seed, i) for i in range(count),
    a (count, 4) uint32 array derived a block of pairs at a time.

    Follows numpy's pcg64_set_seed: state 0, inc (seq << 1) | 1, one step,
    add the init state, one step. next_uint32 then hands out each 64-bit
    output's low half before its high half.
    """
    out = np.empty((count, 4), dtype=np.uint32)
    for start in range(0, count, BLOCK):
        keys = np.tile(np.array(_words(start), dtype=np.uint32), (min(BLOCK, count - start), 1))
        keys[:, 0] += np.arange(len(keys), dtype=np.uint32)
        init_hi, init_lo, seq_hi, seq_lo = _seed_words(_entropy(seed, keys)).T
        inc = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        state = _step(_add(inc, (init_hi, init_lo)), inc)
        rows = out[start:start + len(keys)]
        for col in (0, 2):
            state = _step(state, inc)
            value = _output(state)
            rows[:, col], rows[:, col + 1] = value & MASK32, value >> 32
    return out


def stream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); same arguments, same draws."""
    key = tuple(_component(part) for part in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
