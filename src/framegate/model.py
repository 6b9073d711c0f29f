"""Shared encoder, decoder, and the gated two-frame forward pass.

Both frames go through one encoder. The gating heads look at how the latent
changed between the frames and decide which components changed; the mixed
latent keeps the previous frame's components except for the gated ones,
which come from the current frame. The decoder then has to reconstruct the
current frame from that mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Tensor, apply, constant
from .gating import SharpenParams, combine_heads, gate_weights, hard_select, mix, sharpen


@dataclass(frozen=True)
class ModelConfig:
    image_side: int = 16
    latent_dim: int = 32
    num_heads: int = 1
    enc_hidden: tuple[int, ...] = (128, 64)
    dec_hidden: tuple[int, ...] = (64, 128)
    gate_hidden: int = 64

    def __post_init__(self):
        object.__setattr__(self, "enc_hidden", tuple(int(w) for w in self.enc_hidden))
        object.__setattr__(self, "dec_hidden", tuple(int(w) for w in self.dec_hidden))
        if self.image_side < 2:
            raise ValueError(f"image_side must be >= 2, got {self.image_side}")
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.latent_dim < self.num_heads:
            raise ValueError(
                f"latent_dim ({self.latent_dim}) must be >= num_heads ({self.num_heads})")
        widths = (*self.enc_hidden, *self.dec_hidden, self.gate_hidden)
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")

    @property
    def pixels(self) -> int:
        return self.image_side * self.image_side


def _uniform_init(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    bound = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ModelParams:
    """All trainable arrays by name, in `shapes` order. Every weight matrix,
    gating heads included, is stored (fan_in, fan_out), so a row block
    multiplies it from the left.

    Parameters made by `zeros` and `initialize` own `flat`, one contiguous
    float64 vector; every array is a view into it, in `shapes` order, so an
    update of `flat` updates the model. Parameters that hold tape leaves
    (`prepare_batch_params`) have no flat vector.
    """

    config: ModelConfig
    arrays: dict
    flat: np.ndarray | None = None

    @staticmethod
    def shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in the order of `flat` and `named`."""
        out: dict[str, tuple[int, ...]] = {}
        for prefix, dims in (("enc", [config.pixels, *config.enc_hidden, config.latent_dim]),
                             ("dec", [config.latent_dim, *config.dec_hidden, config.pixels])):
            for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
                out[f"{prefix}{i}.w"] = (fan_in, fan_out)
                out[f"{prefix}{i}.b"] = (fan_out,)
        d, hidden = config.latent_dim, config.gate_hidden
        for k in range(config.num_heads):
            out.update({f"head{k}.w1": (2 * d, hidden), f"head{k}.b1": (hidden,),
                        f"head{k}.w2": (hidden, d), f"head{k}.b2": (d,)})
        return out

    @staticmethod
    def size(config: ModelConfig) -> int:
        """Number of values in `flat`, counted from a one-head listing so that
        a huge head count is never listed head by head."""
        one = {name: math.prod(shape)
               for name, shape in ModelParams.shapes(replace(config, num_heads=1)).items()}
        head = sum(size for name, size in one.items() if name.startswith("head"))
        return sum(one.values()) + (config.num_heads - 1) * head

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """All-zero parameters: a fixed point in tests, the buffer a
        checkpoint loads into, and the one `initialize` draws into. `flat` is
        allocated before the heads are listed."""
        flat = np.zeros(cls.size(config))
        arrays: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in cls.shapes(config).items():
            size = math.prod(shape)
            arrays[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return cls(config, arrays, flat)

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator,
                   mean_frame: np.ndarray | None = None) -> "ModelParams":
        """Uniform init scaled by fan-in + fan-out; biases start at zero.

        Given a mean frame, the decoder's output bias starts at its logit
        instead (each pixel clipped to [1e-3, 1 - 1e-3]), so the untrained
        decoder draws the mean frame rather than uniform gray.

        Draw order is fixed (encoder layers, decoder layers, then heads) so a
        given rng always produces the same parameters. Head matrices are
        drawn (fan_out, fan_in), the layout of version-1 checkpoints, and
        transposed, so each seed keeps its values.
        """
        params = cls.zeros(config)
        for name, view in params.arrays.items():
            if view.ndim == 1:
                continue
            if name.startswith("head"):
                view[...] = _uniform_init(rng, view.shape[::-1]).T
            else:
                view[...] = _uniform_init(rng, view.shape)
        if mean_frame is not None:
            mean = np.clip(np.asarray(mean_frame, dtype=np.float64), 1e-3, 1.0 - 1e-3)
            out_bias = params.arrays[f"dec{len(config.dec_hidden)}.b"]
            if mean.shape != out_bias.shape:
                raise ValueError(f"mean frame has shape {mean.shape}, "
                                 f"expected {out_bias.shape}")
            out_bias[...] = np.log(mean / (1.0 - mean))
        return params

    def named(self) -> dict:
        """Name -> live array (or tape leaf), in `shapes` order; mutating the
        arrays updates the model."""
        return dict(self.arrays)


def _mlp(x, params: ModelParams, prefix: str, layers: int) -> Tensor:
    """Affine layers `{prefix}{i}` with a relu after each but the last."""
    out = x
    for i in range(layers):
        w, b = params.arrays[f"{prefix}{i}.w"], params.arrays[f"{prefix}{i}.b"]
        out = apply("add", [apply("matmul", [out, w]), b])
        if i != layers - 1:
            out = apply("relu", [out])
    return out


def encode(frame, params) -> Tensor:
    """Latent representation of a frame or a row-batch of frames.

    Hidden layers are affine + relu; the final affine has no activation.
    """
    pixels, expected = np.shape(frame)[-1], params.arrays["enc0.w"].shape[0]
    if pixels != expected:
        raise ValueError(f"frame has {pixels} pixels, encoder expects {expected}")
    return _mlp(frame, params, "enc", len(params.config.enc_hidden) + 1)


def decode(latent, params) -> Tensor:
    """Frame reconstruction from a latent; final activation is a sigmoid,
    so outputs live in (0, 1)."""
    return apply("sigmoid", [_mlp(latent, params, "dec", len(params.config.dec_hidden) + 1)])


@dataclass
class ForwardResult:
    x_hat: Tensor
    loss: Tensor
    w_per_head: list
    mask: Tensor
    latent_curr: Tensor
    mixed: Tensor


def forward_pair(x_prev, x_curr, params, sharpen_params: SharpenParams | None,
                 rng: np.random.Generator | None = None) -> ForwardResult:
    """Gated reconstruction of the current frames from (batch, pixels) blocks
    of previous and current frames; a single pair of frames runs as a one-row
    block, so every result has one row per pair. With x_curr None, x_prev is
    both blocks stacked, a (2, batch, pixels) block such as `Pairs.stacked`.

    Both frames go through the encoder as one (2·batch, pixels) batch, a view
    of the stacked block, and the loss target is a view of its second half;
    two separate blocks are stacked first. Each head scores the latent
    change h_curr - h_prev and its elementwise square
    (`gating.head_input`), never the two latents themselves. Given
    SharpenParams, each head's weighting is sharpened (drawing noise from rng
    when sigma > 0); given None, the hard gate swaps exactly the argmax
    component per head and ignores rng.
    w_per_head holds the raw simplex weightings before sharpening. The loss
    is the mean squared pixel error against x_curr, over every pixel of every
    row.
    """
    if x_curr is None:
        block = x_prev
        if np.ndim(block) != 3 or np.shape(block)[0] != 2:
            raise ValueError(f"expected a stacked (2, batch, pixels) block, got {np.shape(block)}")
    else:
        x_prev, x_curr = np.atleast_2d(x_prev), np.atleast_2d(x_curr)
        if x_prev.shape != x_curr.shape or x_prev.ndim != 2:
            raise ValueError(f"expected matching (batch, pixels) blocks, got {x_prev.shape} and {x_curr.shape}")
        block = np.stack((x_prev, x_curr))
    block = np.asarray(block, dtype=np.float64, order="C")
    b = block.shape[1]
    stacked = encode(constant(block.reshape(2 * b, block.shape[2])), params)
    latent_prev = apply("slice", [stacked], {"axis": 0, "range": (0, b)})
    latent_curr = apply("slice", [stacked], {"axis": 0, "range": (b, 2 * b)})
    weightings = [gate_weights(latent_prev, latent_curr,
                               *(params.arrays[f"head{k}.{name}"] for name in ("w1", "b1", "w2", "b2")))
                  for k in range(params.config.num_heads)]
    if sharpen_params is not None:
        chosen = [sharpen(w, sharpen_params, rng) for w in weightings]
    else:
        eye = np.eye(latent_prev.shape[-1])
        chosen = [constant(eye[hard_select(w)]) for w in weightings]
    mask = combine_heads(chosen)
    mixed = mix(latent_prev, latent_curr, mask)
    x_hat = decode(mixed, params)
    loss = apply("mean-squared-error", [x_hat, constant(block[1])])
    return ForwardResult(x_hat=x_hat, loss=loss, w_per_head=weightings, mask=mask,
                         latent_curr=latent_curr, mixed=mixed)


def forward_batch(x_prev, x_curr, params, sharpen_params: SharpenParams | None,
                  rng: np.random.Generator | None = None) -> ForwardResult:
    """`forward_pair` under the name `train_epoch` calls and the benchmark
    pins; `train_epoch` passes one stacked block and None."""
    return forward_pair(x_prev, x_curr, params, sharpen_params, rng)


def prepare_batch_params(params: ModelParams, tape: Tape):
    """Every array registered as a leaf on the tape: parameters that hold the
    leaves, and the leaves by name."""
    leaves = {name: tape.leaf(arr) for name, arr in params.arrays.items()}
    return ModelParams(params.config, leaves), leaves


def extract_grads(leaves: dict[str, Tensor], grad_map: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
    """Named gradients from a backward() result."""
    return {name: grad_map[leaf.node] for name, leaf in leaves.items()}
