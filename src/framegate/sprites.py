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
from .streams import stream

FACTORS = ("x", "y", "brightness")

MANIFEST_NAME = "manifest.txt"
FRAMES_NAME = "frames.bin"
BINARY_VERSION = 1


@dataclass(frozen=True)
class FactorVector:
    """Complete description of one frame: sprite corner position and brightness."""

    x: int
    y: int
    brightness: float


@dataclass
class FramePair:
    x_prev: np.ndarray  # (n*n,) intensities in [0, 1]
    x_curr: np.ndarray
    changed_factor: str


def brightness_levels(levels: int) -> np.ndarray:
    """Evenly spaced brightness values from 0.2 to 1.0 inclusive."""
    if levels < 2:
        raise ValueError(f"need at least 2 brightness levels, got {levels}")
    # linspace pins both endpoints exactly; a scaled arange can overshoot 1.0
    # by one ulp and fail the render range check.
    return np.linspace(0.2, 1.0, levels)


def render(factors: FactorVector, n: int, s: int) -> np.ndarray:
    """Rasterize one sprite onto an n-by-n frame, returned flat and row-major."""
    if s < 1 or s > n:
        raise ValueError(f"sprite side {s} does not fit a {n}x{n} frame")
    if not (0 <= factors.x <= n - s and 0 <= factors.y <= n - s):
        raise ValueError(f"sprite at ({factors.x}, {factors.y}) leaves the {n}x{n} frame")
    if not 0.0 <= factors.brightness <= 1.0:
        raise ValueError(f"brightness {factors.brightness} outside [0, 1]")
    frame = np.zeros((n, n))
    frame[factors.y:factors.y + s, factors.x:factors.x + s] = factors.brightness
    return frame.reshape(-1)


def _redraw_different(rng: np.random.Generator, old: int, count: int) -> int:
    # Uniform over the other count - 1 values; never re-samples in a loop.
    pick = int(rng.integers(0, count - 1))
    return pick + 1 if pick >= old else pick


def sample_pair(rng: np.random.Generator, factor: str, n: int, s: int, levels: int) -> FramePair:
    """Draw a base frame, then change exactly `factor` for the second frame.

    Draw order is fixed: x, y, brightness level, then the redraw. The
    redrawn value always differs from the original.
    """
    if factor not in FACTORS:
        raise ValueError(f"unknown factor {factor!r}, expected one of {FACTORS}")
    positions = n - s + 1
    if positions < 2:
        raise ValueError(f"frame side {n} with sprite side {s} leaves no room to move")
    values = brightness_levels(levels)
    x = int(rng.integers(0, positions))
    y = int(rng.integers(0, positions))
    level = int(rng.integers(0, levels))
    prev = FactorVector(x=x, y=y, brightness=float(values[level]))
    if factor == "x":
        curr = FactorVector(x=_redraw_different(rng, x, positions), y=y, brightness=prev.brightness)
    elif factor == "y":
        curr = FactorVector(x=x, y=_redraw_different(rng, y, positions), brightness=prev.brightness)
    else:
        new_level = _redraw_different(rng, level, levels)
        curr = FactorVector(x=x, y=y, brightness=float(values[new_level]))
    return FramePair(x_prev=render(prev, n, s), x_curr=render(curr, n, s), changed_factor=factor)


def _quantize(frame: np.ndarray) -> np.ndarray:
    # Round half away from zero; intensities are non-negative so floor(x + 0.5) does it.
    return np.floor(frame * 255.0 + 0.5).astype(np.uint8)


def generate_dataset(out_dir, count: int, seed: int, n: int = 16, s: int = 4,
                     levels: int = 5) -> None:
    """Write `count` frame pairs plus a manifest under out_dir.

    Pair i draws from stream(seed, i) and changes factor i mod 3, so any
    pair can be regenerated without the rest and reruns are byte-identical.
    Every pair is drawn before out_dir is made, so bad arguments leave no
    directory behind.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    labels = []
    payload = bytearray()
    payload.append(BINARY_VERSION)
    for i in range(count):
        factor = FACTORS[i % len(FACTORS)]
        pair = sample_pair(stream(seed, i), factor, n, s, levels)
        labels.append(factor)
        payload += _quantize(pair.x_prev).tobytes()
        payload += _quantize(pair.x_curr).tobytes()
    manifest = {"version": BINARY_VERSION, "n": n, "s": s, "L": levels, "count": count,
                "seed": seed, "labels": ",".join(labels)}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic.write_bytes(out_dir / MANIFEST_NAME, keyvalue.write(manifest).encode())
    atomic.write_bytes(out_dir / FRAMES_NAME, bytes(payload))


@dataclass(frozen=True)
class DatasetInfo:
    n: int
    s: int
    levels: int
    count: int
    seed: int


def read_manifest(path) -> tuple[DatasetInfo, list[str]]:
    """Parse and validate a dataset manifest; returns geometry plus labels."""
    examples = {"version": 0, "n": 0, "s": 0, "L": 0, "count": 0, "seed": 0, "labels": ""}
    fields = keyvalue.read(Path(path).read_text(), examples, str(path), complete=True)
    if fields["version"] != BINARY_VERSION:
        raise ValueError(f"unknown dataset version {fields['version']!r}")
    info = DatasetInfo(n=fields["n"], s=fields["s"], levels=fields["L"], count=fields["count"],
                       seed=fields["seed"])
    labels = fields["labels"].split(",") if fields["labels"] else []
    if len(labels) != info.count:
        raise ValueError(f"manifest lists {len(labels)} labels for count={info.count}")
    for label in labels:
        if label not in FACTORS:
            raise ValueError(f"manifest contains unknown factor label {label!r}")
    return info, labels


def load_dataset(path) -> list[FramePair]:
    """Read pairs back from a dataset directory.

    Loaded intensities are the stored bytes over 255, so they sit within
    1/510 of the originals.
    """
    path = Path(path)
    info, labels = read_manifest(path / MANIFEST_NAME)
    blob = (path / FRAMES_NAME).read_bytes()
    if len(blob) < 1 or blob[0] != BINARY_VERSION:
        found = blob[0] if blob else None
        raise ValueError(f"unknown binary version {found!r}")
    frame_bytes = info.n * info.n
    expected = 1 + info.count * 2 * frame_bytes
    if len(blob) != expected:
        raise ValueError(f"binary has {len(blob)} bytes, expected {expected}")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=1)
    frames = raw.reshape(info.count, 2, frame_bytes).astype(np.float64) / 255.0
    return [
        FramePair(x_prev=frames[i, 0].copy(), x_curr=frames[i, 1].copy(), changed_factor=labels[i])
        for i in range(info.count)
    ]
