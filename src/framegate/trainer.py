"""Training loop: sharpening schedule, Adam updates, checkpoints, epoch logs.

A run's settings are the fields of one `TrainConfig`, its `ModelConfig`
included. The sharpening exponent grows linearly with the epoch index, from
`gamma0` by `gamma_slope`, while the noise level `sigma` stays constant;
evaluation always runs with the noise off. The decoder starts from the mean
training frame (its output bias is the logit of that frame), so the first
updates do not drive the sigmoid output into saturation. One master seed
drives parameter init and the per-epoch shuffle/noise streams, so a rerun
with the same seed, config and dataset is byte-identical. An epoch's
sharpening and stream follow from the settings and the epoch index alone:
`train_epoch` and `Checkpoint` take no other epoch state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import atomic, evaluation, keyvalue
from .autodiff import Tape, backward
from .gating import SharpenParams
from .model import (ModelConfig, ModelParams, extract_grads, forward_batch,
                    prepare_batch_params)
from .sprites import Pairs, intensities
from .streams import stream

CHECKPOINT_MAGIC = "framegate-checkpoint"
CHECKPOINT_VERSION = 3  # 2: head matrices stored (fan_in, fan_out); 3: raw float64 payload
_PAYLOAD_DTYPE = np.dtype("<f8")
_BLOCK = 1 << 15  # values per Adam update block; Adam keeps two blocks of scratch


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    gamma0: float = 10.0
    gamma_slope: float = 0.25
    sigma: float = 0.05
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    checkpoint_every: int = 20
    seed: int = 0

    def __post_init__(self):
        # Written `not x >= bound` so that nan is refused too.
        if not self.gamma0 >= 1.0:
            raise ValueError(f"gamma0 must be >= 1, got {self.gamma0}")
        for name in ("gamma_slope", "sigma", "lr"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def schedule_at(config: TrainConfig, epoch: int) -> SharpenParams:
    """The sharpening in effect for a given epoch index: a linear ramp,
    gamma(epoch) = gamma0 + gamma_slope * epoch, at a constant sigma."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return SharpenParams(gamma=config.gamma0 + config.gamma_slope * epoch, sigma=config.sigma)


def settings(config: TrainConfig) -> dict:
    """Every run setting by its flat key: the fields of ModelConfig, then the
    other fields of TrainConfig, each in declaration order."""
    return {**{f.name: getattr(config.model, f.name) for f in fields(ModelConfig)},
            **{f.name: getattr(config, f.name) for f in fields(TrainConfig) if f.name != "model"}}


def from_settings(values: dict) -> TrainConfig:
    """Inverse of `settings`. Every setting must be present; other keys are ignored."""
    return TrainConfig(ModelConfig(**{f.name: values[f.name] for f in fields(ModelConfig)}),
                       **{f.name: values[f.name] for f in fields(TrainConfig) if f.name != "model"})


class Adam:
    """Adaptive-moment gradient descent over one flat parameter vector, with
    the `lr`, `beta1`, `beta2` and `eps` of a TrainConfig, which checks them.

    The moments `m` and `v`, each as long as the vector, and two scratch
    blocks of at most `_BLOCK` values are allocated on the first step; every
    step after that allocates nothing.
    """

    def __init__(self, config: TrainConfig = TrainConfig()):
        self.lr, self.beta1, self.beta2 = config.lr, config.beta1, config.beta2
        self.eps = config.eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def step(self, p: np.ndarray, grads) -> None:
        """One in-place update of the flat vector p from its gradient, given
        as consecutive pieces of any shape in p's order: `[g]` for one array.

        The elementwise operations are those of
        p -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
        after m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g,
        each rounded in that order. They run over each piece in blocks of
        `_BLOCK` values, so a parameter's bits do not depend on the pieces.
        """
        if isinstance(grads, np.ndarray):  # iterating it would update one value at a time
            raise TypeError("Adam.step takes the gradient as pieces: pass [g], not g")
        pieces = [g.reshape(-1) for g in grads]
        size = sum(g.size for g in pieces)
        if size != p.size:
            raise ValueError(f"gradient pieces hold {size} values, the parameters {p.size}")
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = np.empty((2, min(p.size, _BLOCK)), p.dtype)
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        start = 0
        for piece in pieces:
            for lo in range(0, piece.size, _BLOCK):
                g = piece[lo:lo + _BLOCK]
                at = slice(start + lo, start + lo + g.size)
                q, m, v = p[at], self.m[at], self.v[at]
                step, denom = self._scratch[:, :g.size]
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=step)
                m += step
                v *= self.beta2
                np.multiply(g, 1.0 - self.beta2, out=step)
                step *= g
                v += step
                np.divide(m, correct1, out=step)
                step *= self.lr
                np.divide(v, correct2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                step /= denom
                q -= step
            start += piece.size


class TrainingDiverged(RuntimeError):
    """Raised when a batch produces a non-finite loss."""

    def __init__(self, epoch: int, batch_index: int, value: float):
        self.epoch, self.batch_index, self.value = epoch, batch_index, value
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch_index}")


def train_epoch(params: ModelParams, opt: Adam, pairs: Pairs, config: TrainConfig,
                epoch: int) -> float:
    """Epoch `epoch` of a run: one pass over the pairs in a fresh shuffled order.

    The sharpening is `schedule_at(config, epoch)`; the stream
    (config.seed, "epoch", epoch) draws the shuffle and the sharpening noise.
    Each batch's stored bytes are selected and converted once, into the
    stacked block `Pairs.stacked` that the forward pass reads whole; the
    selected bytes go at once, and only the tape holds the block.
    Adam updates `params.flat` in place straight from each batch's per-leaf
    gradients, which `extract_grads` returns in the flat vector's order, so
    the epoch allocates no gradient vector of its own. One batch's tape is
    alive at a time: its tape, with the stacked block, leaves, result and
    gradients are released right after Adam's step, before the next batch
    records anything. Released any earlier, glibc hands the freed heap back
    to the OS on every step and the next forward faults it all in again.
    Returns the mean training loss weighted by batch size. Raises
    TrainingDiverged as soon as a batch loss stops being finite, leaving
    later batches untouched.
    """
    if not pairs:
        raise ValueError("train_epoch needs a non-empty dataset")
    if params.flat is None:
        raise ValueError("train_epoch needs parameters that own a flat vector")
    sp = schedule_at(config, epoch)
    rng = stream(config.seed, "epoch", epoch)
    order = rng.permutation(len(pairs))
    total = 0.0
    for batch_index, start in enumerate(range(0, len(pairs), config.batch_size)):
        ids = order[start:start + config.batch_size]
        tape = Tape()
        batch_params, leaves = prepare_batch_params(params, tape)
        result = forward_batch(pairs[ids].stacked, None, batch_params, sp, rng=rng)
        loss = result.loss.item()
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch, batch_index, loss)
        grads = extract_grads(leaves, backward(result.loss))
        opt.step(params.flat, grads.values())
        total += loss * len(ids)
        # Without this the whole tape stays alive through the next batch's
        # forward, until `result` is rebound. Not before Adam's step: see above.
        del tape, batch_params, leaves, result, grads
    return total / len(pairs)


@dataclass
class Checkpoint:
    """The run settings, the number of epochs trained and the parameters a
    run evaluates from. Everything else about the epoch follows from these:
    the sharpening from `schedule_at`, and every stream from (seed, purpose,
    epoch). It holds no Adam moments, so a run cannot resume from it."""

    config: TrainConfig
    epoch: int
    params: ModelParams

    @property
    def gamma(self) -> float:
        return schedule_at(self.config, self.epoch).gamma


def _header(ckpt: Checkpoint, payload: bytes) -> dict:
    """The key=value header of a checkpoint: every setting, the epoch and the
    schedule's values at it, then the sha256 of the payload."""
    sp = schedule_at(ckpt.config, ckpt.epoch)
    return {**settings(ckpt.config), "epoch": ckpt.epoch, "gamma": sp.gamma,
            "sigma_at_epoch": sp.sigma, "payload_sha256": hashlib.sha256(payload).hexdigest()}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """The magic line, the key=value header and a blank line, then the
    payload: `params.flat` as raw little-endian float64, in `named` order."""
    payload = ckpt.params.flat.astype(_PAYLOAD_DTYPE, copy=False).tobytes()
    magic = f"{CHECKPOINT_MAGIC} version={CHECKPOINT_VERSION}\n"
    atomic.write_bytes(path, (magic + keyvalue.write(_header(ckpt, payload)) + "\n").encode()
                       + payload)


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint; errors name the path once and the offending
    key or parameter (a header line as `path:line`).

    The epoch must be >= 0, and `gamma` and `sigma_at_epoch` must be the
    schedule's values at it. The payload must have the size the header's
    model settings give and match its sha256, and every value must be
    finite. The parameters own a fresh flat vector copied from the payload.
    """
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    magic = first.decode("ascii", errors="replace")
    if not magic.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = magic.removeprefix(CHECKPOINT_MAGIC).strip()
    if version != f"version={CHECKPOINT_VERSION}":
        raise CheckpointError(f"{path}: unsupported checkpoint {version or 'header'}")

    text, _, payload = rest.partition(b"\n\n")
    del rest  # one copy of the payload besides `flat`, not two
    examples = _header(Checkpoint(TrainConfig(), epoch=0, params=None), b"")
    try:
        header = keyvalue.read(text.decode("ascii", errors="replace"), examples, str(path),
                               first_line=2, complete=True)
    except ValueError as err:  # already names path:line
        raise CheckpointError(str(err)) from None
    try:
        config = from_settings(header)
        expected = _header(Checkpoint(config, header["epoch"], params=None), b"")
        for key in ("gamma", "sigma_at_epoch"):
            if header[key] != expected[key]:
                raise ValueError(f"{key}={header[key]!r} is not the schedule's "
                                 f"{expected[key]!r} at epoch {header['epoch']}")
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    # Sized from the config, so a header naming a huge model is refused before it is allocated.
    nbytes = _PAYLOAD_DTYPE.itemsize * ModelParams.size(config.model)
    if len(payload) != nbytes:
        state = "truncated" if len(payload) < nbytes else "oversized"
        raise CheckpointError(f"{path}: payload is {state}: {len(payload)} bytes, expected {nbytes}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload does not match payload_sha256")
    params = ModelParams.zeros(config.model)
    params.flat[:] = np.frombuffer(payload, dtype=_PAYLOAD_DTYPE)
    for name, arr in params.named().items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")
    return Checkpoint(config=config, epoch=header["epoch"], params=params)


def held_out(count: int) -> slice:
    """Rows of a `count`-pair set held out for validation: the last tenth, by
    index. Refused under 10 pairs, whose tenth would be empty."""
    if count < 10:
        raise ValueError(f"need at least 10 pairs for a validation split, got {count}")
    return slice(count - count // 10, count)


def split_validation(pairs: Pairs) -> tuple[Pairs, Pairs]:
    """The training pairs, then the `held_out` validation pairs."""
    val = held_out(len(pairs))
    return pairs[:val.start], pairs[val]


def mean_frame(pairs: Pairs) -> np.ndarray:
    """Per-pixel mean over both frames of every pair, summed frame after frame.
    Frames are converted to intensities 512 at a time; numpy sums a block's
    axis 0 row after row, so adding the running total to a block's first row
    continues the same sequential sum."""
    frames = pairs.frames.reshape(2 * len(pairs), -1)
    total = np.zeros(frames.shape[1])
    for start in range(0, len(frames), 512):
        block = intensities(frames[start:start + 512])
        block[0] += total
        total = block.sum(axis=0)
    return total / len(frames)


def fit(config: TrainConfig, pairs: Pairs, epochs: int, out_dir,
        quiet: bool = False) -> Checkpoint:
    """Train for `epochs` epochs, logging and checkpointing under out_dir.

    Parameters come from `ModelParams.initialize` with the seed's "init"
    stream and the mean frame of the training split.

    Writes log.tsv with one tab-separated line per epoch (epoch, gamma,
    sigma, train loss, validation loss, validation sharpness), mirrored to
    stdout; both validation columns reduce one `evaluation.hard_pass` over
    the validation split. Checkpoints land at epoch 0, every
    checkpoint_every epochs, and at the end; on divergence the files
    already written stay behind.
    Returns the final checkpoint.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    train_pairs, val_pairs = split_validation(pairs)
    params = ModelParams.initialize(config.model, stream(config.seed, "init"),
                                    mean_frame=mean_frame(train_pairs))
    out_dir = Path(out_dir)  # made last, so a refused split or model leaves none behind
    out_dir.mkdir(parents=True, exist_ok=True)
    opt = Adam(config)
    save_checkpoint(Checkpoint(config, 0, params), out_dir / "checkpoint_epoch_0000.txt")

    with open(out_dir / "log.tsv", "w") as log:
        for epoch in range(epochs):
            train_loss = train_epoch(params, opt, train_pairs, config, epoch)
            sp = schedule_at(config, epoch)
            passed = evaluation.hard_pass(params, val_pairs)
            val_loss = evaluation.hard_mode_mse(passed)
            val_sharp = evaluation.sharpness(passed, sp.gamma)
            del passed  # not kept alive through the next epoch's training
            line = f"{epoch}\t{sp.gamma!r}\t{sp.sigma!r}\t{train_loss!r}\t{val_loss!r}\t{val_sharp!r}"
            log.write(line + "\n")
            log.flush()
            if not quiet:
                print(line)
            done = epoch + 1
            if config.checkpoint_every > 0 and done % config.checkpoint_every == 0:
                save_checkpoint(Checkpoint(config, done, params),
                                out_dir / f"checkpoint_epoch_{done:04d}.txt")

    final = Checkpoint(config, epochs, params)
    save_checkpoint(final, out_dir / "checkpoint_final.txt")
    return final
