"""Synthetic sprite world: square sprites on a black grid, one factor moving at a time.

Each sample is a pair of consecutive grayscale frames. Between the two
frames exactly one generative factor changes: horizontal position, vertical
position, or brightness. Which factor changes cycles with the pair index,
so a dataset of 3k pairs covers each factor 1k times.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic, keyvalue
from .streams import pair_words, stream

FACTORS = ("x", "y", "brightness")

MANIFEST_NAME = "manifest.txt"
FRAMES_NAME = "frames.bin"
BINARY_VERSION = 1


@dataclass(frozen=True, eq=False)
class Pairs:
    """Frame pairs as one array of stored bytes: frames[i] is pair i, labels[i]
    the factor it changes. `x_prev` and `x_curr` convert each pair's first and
    second frame to intensities when asked for; no float copy is kept."""

    frames: np.ndarray  # (count, 2, n*n) uint8 frame bytes
    labels: np.ndarray  # (count,) factor names

    def __post_init__(self):
        dtype = getattr(self.frames, "dtype", type(self.frames).__name__)
        shape = np.shape(self.frames)
        if dtype != np.uint8 or len(shape) != 3 or shape[1] != 2:
            raise ValueError(f"frames must be a uint8 (count, 2, pixels) array, "
                             f"got {dtype} of shape {shape}")
        if np.shape(self.labels) != shape[:1]:
            raise ValueError(f"labels of shape {np.shape(self.labels)} for {shape[0]} pairs")

    @property
    def x_prev(self) -> np.ndarray:
        return intensities(self.frames[:, 0])

    @property
    def x_curr(self) -> np.ndarray:
        return intensities(self.frames[:, 1])

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, rows) -> Pairs:
        """The pairs at a slice or an index array, frames with their labels."""
        frames = self.frames[rows]
        if frames.ndim != 3:
            raise TypeError("select pairs with a slice or an index array, not a single index")
        return Pairs(frames, self.labels[rows])


def brightness_levels(levels: int) -> np.ndarray:
    """Evenly spaced brightness values from 0.2 to 1.0 inclusive, each its own frame byte."""
    if levels < 2:
        raise ValueError(f"need at least 2 brightness levels, got {levels}")
    clash = ValueError(f"{levels} brightness levels do not fit 8-bit frames: two share a byte")
    if levels > 256:  # more levels than byte values, refused before linspace allocates them
        raise clash
    # linspace pins both endpoints exactly; a scaled arange can overshoot 1.0
    # by one ulp and fail the render range check.
    values = np.linspace(0.2, 1.0, levels)
    quantized = quantize(values)  # non-decreasing, so equal bytes are neighbours
    if (quantized[1:] == quantized[:-1]).any():
        raise clash
    return values


def render(x: int, y: int, brightness: float, n: int, s: int) -> np.ndarray:
    """Reference raster of an s-by-s sprite at corner (x, y): an n-by-n frame, flat, row-major."""
    if s < 1 or s > n:
        raise ValueError(f"sprite side {s} does not fit a {n}x{n} frame")
    if not (0 <= x <= n - s and 0 <= y <= n - s):
        raise ValueError(f"sprite at ({x}, {y}) leaves the {n}x{n} frame")
    if not 0.0 <= brightness <= 1.0:
        raise ValueError(f"brightness {brightness} outside [0, 1]")
    frame = np.zeros((n, n))
    frame[y:y + s, x:x + s] = brightness
    return frame.reshape(-1)


def _positions(n: int, s: int) -> int:
    """Corner positions per axis of an s-pixel sprite in an n-pixel frame, at least 2."""
    if s < 1:
        raise ValueError(f"sprite side {s} does not fit a {n}x{n} frame")
    if n - s + 1 < 2:
        raise ValueError(f"frame side {n} with sprite side {s} leaves no room to move")
    return n - s + 1


def _redraw_different(rng: np.random.Generator, old: int, count: int) -> int:
    # Uniform over the other count - 1 values; never re-samples in a loop.
    pick = int(rng.integers(0, count - 1))
    return pick + 1 if pick >= old else pick


def sample_pair(rng: np.random.Generator, factor: str, n: int, s: int,
                levels: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Draw a base frame, then change exactly `factor` for the second frame.

    Returns (prev, curr), each an (x, y, level) tuple of ints: the sprite's
    corner and its index into `brightness_levels(levels)`. Draw order is fixed:
    x, y, level, then the redraw. The redrawn value always differs from the original.
    """
    if factor not in FACTORS:
        raise ValueError(f"unknown factor {factor!r}, expected one of {FACTORS}")
    positions = _positions(n, s)
    if levels < 2:
        raise ValueError(f"need at least 2 brightness levels, got {levels}")
    x = int(rng.integers(0, positions))
    y = int(rng.integers(0, positions))
    level = int(rng.integers(0, levels))
    prev = x, y, level
    if factor == "x":
        x = _redraw_different(rng, x, positions)
    elif factor == "y":
        y = _redraw_different(rng, y, positions)
    else:
        level = _redraw_different(rng, level, levels)
    return prev, (x, y, level)


def quantize(frame: np.ndarray) -> np.ndarray:
    """Intensities in [0, 1] as bytes: scaled by 255, rounded half away from zero
    (floor(x + 0.5), as intensities are non-negative)."""
    return np.floor(frame * 255.0 + 0.5).astype(np.uint8)


def intensities(raw: np.ndarray) -> np.ndarray:
    """Inverse of `quantize`: frame bytes over 255, as float64 within 1/510 of
    the intensities they were quantized from."""
    return np.divide(raw, 255.0)


def _bounded(words: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(0, high) on one next_uint32 word each, by numpy's bounded
    draw (Lemire, ACM TOMACS 2019), and whether numpy would reject that word."""
    product = words.astype(np.uint64) * high
    return (product >> 32).astype(np.int64), (product & 0xFFFFFFFF) < (2**32 - high) % high


def generate_dataset(out_dir, count: int, seed: int, n: int = 16, s: int = 4,
                     levels: int = 5) -> None:
    """Write `count` frame pairs plus a manifest under out_dir.

    Pair i draws from stream(seed, i) and changes factor i mod 3, so any
    pair can be regenerated without the rest and reruns are byte-identical.
    Every pair's draws come from `pair_words(seed, count)` in one array pass;
    the rare pair on which numpy would reject a word and draw again is drawn
    by `sample_pair` from its own stream. The first three pairs are drawn
    both ways, and a numpy whose streams differ is refused.
    Geometry and levels are checked and the frames buffer is allocated
    before any pair is drawn, and every pair is drawn before out_dir is
    made, so bad arguments leave no directory behind.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    level_bytes = quantize(brightness_levels(levels))
    positions = _positions(n, s)
    payload = np.empty(1 + 2 * count * n * n, dtype=np.uint8)  # an impossible count fails first
    payload[0] = BINARY_VERSION
    labels = [FACTORS[i % len(FACTORS)] for i in range(count)]
    rows = np.arange(count)
    factor = rows % len(FACTORS)
    bounds = np.array([positions, positions, levels], dtype=np.uint64)
    words = pair_words(seed, count)
    prev, rejected = _bounded(words[:, :3], bounds)
    pick, last_rejected = _bounded(words[:, 3], bounds[factor] - 1)
    curr = prev.copy()
    curr[rows, factor] = pick + (pick >= prev[rows, factor])
    draws = np.stack((prev, curr), axis=1)  # (pair, frame, x|y|level)
    redrawn = rejected.any(axis=1) | last_rejected
    # numpy draws the rows it would redraw, and checks one pair of each factor.
    for i in sorted({*np.flatnonzero(redrawn).tolist(), *range(min(count, len(FACTORS)))}):
        drawn = sample_pair(stream(seed, i), labels[i], n, s, levels)
        if not redrawn[i] and (draws[i] != drawn).any():
            raise RuntimeError(f"pair {i} draws {draws[i].tolist()} from numpy's emulated stream "
                               f"but {list(map(list, drawn))} from numpy {np.__version__}")
        draws[i] = drawn
    draws = draws.reshape(-1, 3)  # (frame, x|y|level)
    lit = level_bytes[draws[:, 2]]  # each frame's sprite byte
    corners = draws[:, 1::-1, None]  # (frame, y|x, 1)
    inside = (np.arange(n) >= corners) & (np.arange(n) < corners + s)  # (frame, row|col, n)
    np.multiply((inside[:, 0] * lit[:, None])[:, :, None], inside[:, 1, None, :],
                out=payload[1:].reshape(-1, n, n))
    manifest = {"version": BINARY_VERSION, "n": n, "s": s, "L": levels, "count": count,
                "seed": seed, "labels": ",".join(labels)}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic.write_bytes(out_dir / MANIFEST_NAME, keyvalue.write(manifest).encode())
    atomic.write_bytes(out_dir / FRAMES_NAME, payload)


def read_manifest(path) -> tuple[int, int, list[str]]:
    """Parse and validate a dataset manifest; returns its frame side n, count and labels."""
    examples = {"version": 0, "n": 0, "s": 0, "L": 0, "count": 0, "seed": 0, "labels": ""}
    fields = keyvalue.read(Path(path).read_text(), examples, str(path), complete=True)
    if fields["version"] != BINARY_VERSION:
        raise ValueError(f"{path}: unknown dataset version {fields['version']!r}")
    n, count = fields["n"], fields["count"]
    for key, ok, need in (("n", n >= 2, ">= 2"), ("s", 1 <= fields["s"] < n, "in [1, n)"),
                          ("L", fields["L"] >= 2, ">= 2"), ("count", count >= 1, ">= 1")):
        if not ok:
            raise ValueError(f"{path}: {key}={fields[key]} must be {need}")
    labels = fields["labels"].split(",") if fields["labels"] else []
    if len(labels) != count:
        raise ValueError(f"{path}: manifest lists {len(labels)} labels for count={count}")
    for label in labels:
        if label not in FACTORS:
            raise ValueError(f"{path}: manifest contains unknown factor label {label!r}")
    return n, count, labels


def load_dataset(path, rows=slice(None)) -> Pairs:
    """Read the pairs at `rows` (a slice or an index list; all by default) from a
    dataset directory. The frames file is memory-mapped, so only those rows are
    read; the pairs own a copy of their stored bytes, which `Pairs.x_prev` and
    `Pairs.x_curr` convert to intensities."""
    path = Path(path)
    n, count, labels = read_manifest(path / MANIFEST_NAME)
    frames = path / FRAMES_NAME
    size = frames.stat().st_size
    expected = 1 + count * 2 * n * n
    if size != expected:
        raise ValueError(f"{frames}: binary has {size} bytes, expected {expected}")
    blob = np.memmap(frames, dtype=np.uint8, mode="r")
    if blob[0] != BINARY_VERSION:
        raise ValueError(f"{frames}: unknown binary version {int(blob[0])}")
    raw = blob[1:].view(np.ndarray).reshape(count, 2, -1)[rows]
    return Pairs(np.array(raw), np.array(labels)[rows])
