"""Evaluation: gate sharpness, factor consistency, latent traversals, PGM output.

Everything here runs with the noise off and, where a discrete choice is
needed, uses the hard argmax selection. `hard_pass` runs a pair set once,
in row blocks of up to 256 pairs with one hard-gated `forward_pair` each;
`sharpness`, `hard_mode_mse` and `consistency` are reductions of its
result. Frames go to disk as binary PGM (P5) images so the traversal grids
can be eyeballed anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic
from .gating import SharpenParams, hard_select, sharpen
from .model import ForwardResult, ModelParams, decode, encode, forward_pair
from .sprites import FACTORS, Pairs, intensities, quantize

_BLOCK = 256  # pairs per evaluated row block
# P5, then width, height and maxval as unsigned decimals, then one whitespace byte.
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _blocks(pairs: Pairs):
    """Each row block of a non-empty pair set, in order."""
    if not pairs:
        raise ValueError("evaluation needs a non-empty dataset")
    for start in range(0, len(pairs), _BLOCK):
        yield pairs[start:start + _BLOCK]


Passed = list[tuple[Pairs, ForwardResult]]  # what `hard_pass` returns


def hard_pass(params: ModelParams, pairs: Pairs) -> Passed:
    """(pairs, ForwardResult) for each block of a non-empty pair set, the
    gate hard (no SharpenParams): each head swaps its argmax component."""
    return [(chunk, forward_pair(chunk.x_prev, chunk.x_curr, params, None))
            for chunk in _blocks(pairs)]


def _check_component(params: ModelParams, component: int) -> None:
    d = params.config.latent_dim
    if not 0 <= component < d:
        raise ValueError(f"component {component} out of range for latent_dim {d}")


def sharpness(passed: Passed, gamma: float) -> float:
    """Mean over pairs and heads of the largest gate weight sharpened at gamma,
    summed block by block and over heads within a block.

    Noise-free: 1/latent_dim for untrained uniform gates, approaching 1.0
    once the gating commits to single components.
    """
    sp = SharpenParams(gamma=gamma, sigma=0.0)
    total = 0.0
    for _, result in passed:
        for w in result.w_per_head:
            total += float(np.max(sharpen(w, sp).data, axis=-1).sum())
    return total / (sum(len(chunk) for chunk, _ in passed) * len(passed[0][1].w_per_head))


def hard_mode_mse(passed: Passed) -> float:
    """Mean reconstruction error with hard selection, over every pixel of every pair."""
    total = 0.0
    for chunk, result in passed:
        total += result.loss.item() * len(chunk)
    return total / sum(len(chunk) for chunk, _ in passed)


@dataclass(frozen=True)
class FactorStats:
    factor: str
    modal_index: int
    agreement: float
    count: int


@dataclass
class ConsistencyReport:
    """Per-factor modal gated component and how often the heads picked it."""

    factors: list[FactorStats]
    distinct_modal_indices: bool
    omitted: list[str]

    def stats_for(self, factor: str) -> FactorStats:
        for stats in self.factors:
            if stats.factor == factor:
                return stats
        raise KeyError(f"no pairs with factor {factor!r}")


def consistency(passed: Passed) -> ConsistencyReport:
    """Hard-selection agreement per factor.

    For every pair each head picks one component. A factor's modal index is
    the most frequent pick over its pairs (ties to the lowest index), and
    agreement is the fraction of pairs where some head picked that index.
    Factors with no pairs are omitted and listed as such.
    """
    picks = np.concatenate([np.stack([hard_select(w) for w in result.w_per_head], axis=1)
                            for _, result in passed])  # (pairs, heads)
    labels = np.concatenate([chunk.labels for chunk, _ in passed])
    latent_dim = passed[0][1].w_per_head[0].shape[-1]
    stats: list[FactorStats] = []
    omitted: list[str] = []
    for factor in FACTORS:
        rows = picks[labels == factor]
        if not len(rows):
            omitted.append(factor)
            continue
        modal = int(np.argmax(np.bincount(rows.ravel(), minlength=latent_dim)))
        hits = int((rows == modal).any(axis=1).sum())
        stats.append(FactorStats(factor=factor, modal_index=modal,
                                 agreement=hits / len(rows), count=len(rows)))
    modes = [s.modal_index for s in stats]
    return ConsistencyReport(factors=stats, distinct_modal_indices=len(set(modes)) == len(modes),
                             omitted=omitted)


def traverse(params: ModelParams, frame: np.ndarray, component: int,
             values) -> np.ndarray:
    """Decode the frame's latent with one component swept over given values:
    a (len(values), n, n) array, one frame per value in the given order.

    The frame is encoded once as a one-row block; its latent row is copied
    once per value, the component column set to the values, and all rows
    decoded as one block. Values must be finite and strictly increasing (a
    single value is fine). A single value equal to the frame's own component
    reproduces the one-row reconstruction bit for bit.
    """
    values = np.array([float(v) for v in values])
    if not values.size:
        raise ValueError("traverse needs at least one value")
    if not np.isfinite(values).all():
        raise ValueError(f"traversal values must be finite, got {values.tolist()}")
    if not (np.diff(values) > 0).all():  # written so that nan fails it too
        raise ValueError(f"traversal values must be strictly increasing, got {values.tolist()}")
    _check_component(params, component)
    latent = np.repeat(encode(np.reshape(frame, (1, -1)), params).data, values.size, axis=0)
    latent[:, component] = values
    side = params.config.image_side
    return decode(latent, params).data.reshape(-1, side, side)


def observed_range(params: ModelParams, pairs: Pairs, component: int) -> tuple[float, float]:
    """Min and max of one latent component over the current frames of a pair set."""
    _check_component(params, component)
    values = np.concatenate([encode(chunk.x_curr, params).data[:, component]
                             for chunk in _blocks(pairs)])
    return float(values.min()), float(values.max())


def centroid(frame: np.ndarray) -> tuple[float, float]:
    """Intensity-weighted mean (column, row) of a square frame."""
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"centroid expects a square frame, got {arr.shape}")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("centroid needs positive total intensity")
    n = arr.shape[0]
    cols = np.arange(n)
    cx = float((arr.sum(axis=0) * cols).sum() / total)
    cy = float((arr.sum(axis=1) * cols).sum() / total)
    return cx, cy


def write_pgm(frame: np.ndarray, path) -> None:
    """Binary PGM (P5, maxval 255). Intensities in [0, 1] are scaled by 255
    and rounded half away from zero."""
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"write_pgm expects a 2-d frame, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("write_pgm needs a non-empty frame")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # nan fails both
        raise ValueError("intensities must lie in [0, 1]")
    height, width = arr.shape
    payload = quantize(arr).tobytes()
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    atomic.write_bytes(path, header + payload)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM back to intensities in [0, 1]; errors name the path."""
    blob = Path(path).read_bytes()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (missing P5)")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: bad PGM header: expected P5, width, height and maxval")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    payload = blob[header.end():]
    if len(payload) != width * height:
        raise ValueError(f"{path}: PGM payload has {len(payload)} bytes, expected {width * height}")
    return intensities(np.frombuffer(payload, dtype=np.uint8)).reshape(height, width)


def format_report(gamma: float, sharp: float, val_mse: float, baseline_mse: float,
                  report: ConsistencyReport) -> str:
    """Tab-separated evaluation summary; floats use repr so nothing is lost."""
    lines = [
        f"gamma\t{gamma!r}",
        f"sharpness\t{sharp!r}",
        f"val_mse\t{val_mse!r}",
        f"baseline_mse\t{baseline_mse!r}",
        "factor\tmodal_index\tagreement\tcount",
    ]
    for stats in report.factors:
        lines.append(f"{stats.factor}\t{stats.modal_index}\t{stats.agreement!r}\t{stats.count}")
    for factor in report.omitted:
        lines.append(f"{factor}\tomitted\t-\t0")
    lines.append(f"distinct_modal_indices\t{str(report.distinct_modal_indices).lower()}")
    return "\n".join(lines) + "\n"


def copy_baseline_mse(pairs: Pairs) -> float:
    """Error of predicting the current frame as a copy of the previous one."""
    total = 0.0
    for chunk in _blocks(pairs):
        diff = chunk.x_prev - chunk.x_curr
        total += float(np.mean(diff * diff, axis=1).sum())
    return total / len(pairs)
