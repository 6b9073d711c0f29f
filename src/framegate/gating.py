"""Gating over latent components: scoring head, sharpening, combination, mixing.

A gating head, four arrays laid out as `gate_weights` says, looks at how
the representation changed between two consecutive frames and produces a
simplex weighting over latent components; sharpening pushes that weighting
toward one-hot as training progresses, with optional exploration noise.
Multiple heads combine by probabilistic union. Inputs may be arrays or
Tensors: `apply` makes plain arrays constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import CLAMP_MIN, Tensor, apply, constant


@dataclass(frozen=True)
class SharpenParams:
    """Exponent and noise level for the annealed sharpening step."""

    gamma: float
    sigma: float = 0.0

    def __post_init__(self):
        # Written `not x >= bound` so that nan is refused too.
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not self.sigma >= 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def head_input(h_prev, h_curr) -> Tensor:
    """[delta; delta * delta] with delta = h_curr - h_prev.

    Accepts a pair of vectors or of row-batches.
    """
    delta = apply("sub", [h_curr, h_prev])
    return apply("concat", [delta, apply("hadamard", [delta, delta])], {"axis": -1})


def gate_weights(h_prev, h_curr, w1, b1, w2, b2) -> Tensor:
    """Simplex weighting over latent components for a frame pair or a row block:
    softmax(tanh([d; d * d] w1 + b1) w2 + b2) with d = h_curr - h_prev.

    The latents must have equal shapes, vectors or (batch, latent) rows. The
    head sees which components moved and by how much (`head_input`), not the
    latents themselves, so adding one vector to both leaves the weighting
    unchanged. The head arrays are arrays or tape leaves, matrices stored
    (fan_in, fan_out) like the encoder's: w1 is (2 * latent, hidden), b1
    (hidden,), w2 (hidden, latent) and b2 (latent,).
    """
    if h_prev.shape != h_curr.shape:
        raise ValueError(f"latent shapes differ: {h_prev.shape} vs {h_curr.shape}")
    hidden = apply("tanh", [apply("add", [apply("matmul", [head_input(h_prev, h_curr), w1]), b1])])
    return apply("softmax", [apply("add", [apply("matmul", [hidden, w2]), b2])], {"axis": -1})


def sharpen(w, params: SharpenParams, rng: np.random.Generator | None = None) -> Tensor:
    """Noise, clamp, exponentiate, renormalize.

    Each component becomes max(w_i + n_i, CLAMP_MIN) ** gamma, n_i drawn from
    N(0, sigma^2), and the result is divided by the sum of all components so
    it stays on the simplex. The noise enters as a constant, so gradients
    treat the draw as frozen. gamma = 1 with sigma = 0 returns the input
    unchanged. Accepts a vector or a row-batch; rows normalize independently.
    """
    w = _as_tensor(w)
    if params.sigma == 0.0 and params.gamma == 1.0:
        return w
    base = w
    if params.sigma > 0.0:
        if rng is None:
            raise ValueError("sigma > 0 requires an rng for the noise draw")
        noise = rng.normal(0.0, params.sigma, size=w.shape)
        base = apply("add", [w, constant(noise)])
    # The ratio is invariant to a positive rescaling of the base, so divide by
    # the rowwise max first (a constant w.r.t. gradients, contributing exactly
    # zero). Without it, sum(b^gamma) can fall below the clamp floor at large
    # gamma and the reciprocal goes wrong.
    peak = np.maximum(base.data, CLAMP_MIN).max(axis=-1, keepdims=True)
    scale = np.ascontiguousarray(np.broadcast_to(1.0 / peak, w.shape))
    scaled = apply("hadamard", [base, constant(scale)])
    powered = apply("scalar-pow", [scaled], {"exponent": float(params.gamma)})
    d = w.shape[-1]
    # Row sums, replicated across components so the division stays within
    # the primitive set: (B, d) @ ones(d, d) puts the row total everywhere.
    totals = apply("matmul", [powered, constant(np.ones((d, d)))])
    return apply("hadamard", [powered, apply("scalar-pow", [totals], {"exponent": -1.0})])


def combine_heads(sharpened) -> Tensor:
    """Union of per-head weightings: m_i = 1 - prod_k (1 - w_i^(k)).

    A single head passes through unchanged. One-hot inputs give a mask that
    swaps exactly the selected components.
    """
    tensors = [_as_tensor(w) for w in sharpened]
    if not tensors:
        raise ValueError("combine_heads needs at least one weighting")
    if len(tensors) == 1:
        return tensors[0]
    ones = constant(np.ones(tensors[0].shape))
    keep = apply("sub", [ones, tensors[0]])
    for w in tensors[1:]:
        keep = apply("hadamard", [keep, apply("sub", [ones, w])])
    return apply("sub", [ones, keep])


def mix(h_prev, h_curr, mask) -> Tensor:
    """Componentwise interpolation (1 - m) * h_prev + m * h_curr."""
    ones = constant(np.ones(mask.shape))
    kept = apply("hadamard", [apply("sub", [ones, mask]), h_prev])
    swapped = apply("hadamard", [mask, h_curr])
    return apply("add", [kept, swapped])


def hard_select(w):
    """Index of the largest weight along the last axis; ties resolve to the
    lowest index. A vector gives one index, a row block one per row."""
    return np.argmax(w.data if isinstance(w, Tensor) else np.asarray(w), axis=-1)
