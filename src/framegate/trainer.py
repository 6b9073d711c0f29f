"""Training loop: sharpening schedule, Adam updates, checkpoints, epoch logs.

The sharpening exponent grows linearly with the epoch index while the noise
level stays constant; evaluation always runs with the noise off. The decoder
starts from the mean training frame (its output bias is the logit of that
frame), so the first updates do not drive the sigmoid output into
saturation. One master seed drives parameter init and the per-epoch
shuffle/noise streams, so a rerun with the same seed, config and dataset is
byte-identical.
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
from .sprites import Pairs
from .streams import stream

CHECKPOINT_MAGIC = "framegate-checkpoint"
CHECKPOINT_VERSION = 3  # 2: head matrices stored (fan_in, fan_out); 3: raw float64 payload
_PAYLOAD_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class Schedule:
    """Linear sharpening ramp: gamma(epoch) = gamma0 + gamma_slope * epoch."""

    gamma0: float = 10.0
    gamma_slope: float = 0.25
    sigma: float = 0.05

    def __post_init__(self):
        # Written `not x >= bound` so that nan is refused too.
        if not self.gamma0 >= 1.0:
            raise ValueError(f"gamma0 must be >= 1, got {self.gamma0}")
        if not self.gamma_slope >= 0.0:
            raise ValueError(f"gamma_slope must be >= 0, got {self.gamma_slope}")
        if not self.sigma >= 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def schedule_at(schedule: Schedule, epoch: int) -> tuple[float, float]:
    """(gamma, sigma) in effect for a given epoch index."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return schedule.gamma0 + schedule.gamma_slope * epoch, schedule.sigma


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=Schedule)
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    checkpoint_every: int = 20
    seed: int = 0

    def __post_init__(self):
        if not self.lr >= 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
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


_SECTIONS = {"model": ModelConfig, "schedule": Schedule}


def settings(config: TrainConfig) -> dict:
    """Every run setting by its flat key: the fields of ModelConfig, Schedule
    and TrainConfig in declaration order, the two sections inlined where
    TrainConfig holds them."""
    out = {}
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if f.name in _SECTIONS:
            out.update({g.name: getattr(value, g.name) for g in fields(value)})
        else:
            out[f.name] = value
    return out


def from_settings(values: dict) -> TrainConfig:
    """Inverse of `settings`. Every setting must be present; other keys are ignored."""
    sections = {name: cls(**{f.name: values[f.name] for f in fields(cls)})
                for name, cls in _SECTIONS.items()}
    return TrainConfig(**sections, **{f.name: values[f.name] for f in fields(TrainConfig)
                                      if f.name not in _SECTIONS})


class Adam:
    """Adaptive-moment gradient descent over one flat parameter vector.

    The moments `m` and `v` and two scratch vectors are allocated on the
    first step; every step after that allocates nothing.
    """

    def __init__(self, lr: float = TrainConfig.lr, beta1: float = TrainConfig.beta1,
                 beta2: float = TrainConfig.beta2, eps: float = TrainConfig.eps):
        if not lr >= 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """One in-place update of the flat vector p from its gradient g.

        The elementwise operations are those of
        p -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
        after m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g,
        each rounded in that order.
        """
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameters {p.shape}")
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = np.empty_like(p), np.empty_like(p)
        m, v = self.m, self.v
        step, denom = self._scratch
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
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
        p -= step


class TrainingDiverged(RuntimeError):
    """Raised when a batch produces a non-finite loss."""

    def __init__(self, batch_index: int, value: float, epoch: int | None = None):
        self.batch_index = batch_index
        self.value = value
        self.epoch = epoch
        super().__init__(f"non-finite loss {value} at batch {batch_index}")

    def __str__(self) -> str:
        where = f"epoch {self.epoch}, batch {self.batch_index}" if self.epoch is not None \
            else f"batch {self.batch_index}"
        return f"non-finite loss {self.value} at {where}"


def train_epoch(params: ModelParams, opt: Adam, pairs: Pairs, gamma: float,
                sigma: float, batch_size: int, rng: np.random.Generator) -> float:
    """One pass over the training pairs in a fresh shuffled order.

    Each batch's gradients are gathered into one flat vector laid out like
    `params.flat`, which Adam then updates in place. The rng drives both the
    shuffle and the sharpening noise. Returns the
    mean training loss weighted by batch size. Raises TrainingDiverged as
    soon as a batch loss stops being finite, leaving later batches untouched.
    """
    if not pairs:
        raise ValueError("train_epoch needs a non-empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if params.flat is None:
        raise ValueError("train_epoch needs parameters that own a flat vector")
    order = rng.permutation(len(pairs))
    sp = SharpenParams(gamma=gamma, sigma=sigma)
    grad = np.empty_like(params.flat)
    total = 0.0
    for batch_index, start in enumerate(range(0, len(pairs), batch_size)):
        ids = order[start:start + batch_size]
        tape = Tape()
        batch_params, leaves = prepare_batch_params(params, tape)
        result = forward_batch(pairs.x_prev[ids], pairs.x_curr[ids], batch_params, sp, rng=rng)
        loss = result.loss.item()
        if not math.isfinite(loss):
            raise TrainingDiverged(batch_index, loss)
        grads = extract_grads(leaves, backward(result.loss))
        np.concatenate([g.reshape(-1) for g in grads.values()], out=grad)
        opt.step(params.flat, grad)
        total += loss * len(ids)
    return total / len(pairs)


@dataclass
class Checkpoint:
    """The run settings, epoch state and parameters a run evaluates from. It
    holds no Adam moments, so a run cannot resume from it. The master seed
    doubles as the rng state: every stream is re-derived from (seed, purpose,
    epoch)."""

    config: TrainConfig
    epoch: int
    gamma: float
    sigma: float
    params: ModelParams


def _header(ckpt: Checkpoint, payload: bytes) -> dict:
    """The key=value header of a checkpoint: every setting, the epoch state,
    then the sha256 of the payload."""
    return {**settings(ckpt.config), "epoch": ckpt.epoch, "gamma": ckpt.gamma,
            "sigma_at_epoch": ckpt.sigma, "payload_sha256": hashlib.sha256(payload).hexdigest()}


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
    """Inverse of save_checkpoint; errors name the offending key or parameter.

    The payload must have the size the header's model settings give and
    match its sha256, and every value must be finite. The parameters own a
    fresh flat vector copied from the payload.
    """
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    magic = first.decode("ascii", errors="replace")
    if not magic.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a checkpoint file")
    version = magic.removeprefix(CHECKPOINT_MAGIC).strip()
    if version != f"version={CHECKPOINT_VERSION}":
        raise CheckpointError(f"unsupported checkpoint {version or 'header'}")

    text, _, payload = rest.partition(b"\n\n")
    examples = _header(Checkpoint(TrainConfig(), epoch=0, gamma=0.0, sigma=0.0, params=None), b"")
    try:
        header = keyvalue.read(text.decode("ascii", errors="replace"), examples, str(path),
                               first_line=2, complete=True)
        config = from_settings(header)
    except ValueError as err:
        raise CheckpointError(str(err)) from None
    params = ModelParams.zeros(config.model)
    if len(payload) != params.flat.nbytes:
        state = "truncated" if len(payload) < params.flat.nbytes else "oversized"
        raise CheckpointError(f"payload is {state}: {len(payload)} bytes, "
                              f"expected {params.flat.nbytes}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("payload does not match payload_sha256")
    params.flat[:] = np.frombuffer(payload, dtype=_PAYLOAD_DTYPE)
    for name, arr in params.named().items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {name!r} holds a non-finite value")
    return Checkpoint(config=config, epoch=header["epoch"], gamma=header["gamma"],
                      sigma=header["sigma_at_epoch"], params=params)


def _checkpoint_at(config: TrainConfig, params: ModelParams, epoch: int) -> Checkpoint:
    gamma, sigma = schedule_at(config.schedule, epoch)
    return Checkpoint(config=config, epoch=epoch, gamma=gamma, sigma=sigma,
                      params=params)


def held_out(count: int) -> slice:
    """Rows of a `count`-pair set held out for validation: the last tenth, by index."""
    return slice(count - count // 10, count)


def split_validation(pairs: Pairs) -> tuple[Pairs, Pairs]:
    """The training pairs, then the `held_out` validation pairs."""
    val = held_out(len(pairs))
    return pairs[:val.start], pairs[val]


def mean_frame(pairs: Pairs) -> np.ndarray:
    """Per-pixel mean over both frames of every pair, summed frame after frame."""
    return pairs.frames.reshape(2 * len(pairs), -1).sum(axis=0) / (2 * len(pairs))


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
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs for a validation split, got {len(pairs)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_pairs, val_pairs = split_validation(pairs)

    params = ModelParams.initialize(config.model, stream(config.seed, "init"),
                                    mean_frame=mean_frame(train_pairs))
    opt = Adam(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    save_checkpoint(_checkpoint_at(config, params, 0), out_dir / "checkpoint_epoch_0000.txt")

    with open(out_dir / "log.tsv", "w") as log:
        for epoch in range(epochs):
            gamma, sigma = schedule_at(config.schedule, epoch)
            try:
                train_loss = train_epoch(params, opt, train_pairs, gamma, sigma,
                                         config.batch_size, stream(config.seed, "epoch", epoch))
            except TrainingDiverged as err:
                err.epoch = epoch
                raise
            passed = evaluation.hard_pass(params, val_pairs)
            val_loss = evaluation.hard_mode_mse(passed)
            val_sharp = evaluation.sharpness(passed, gamma)
            del passed  # not kept alive through the next epoch's training
            line = f"{epoch}\t{gamma!r}\t{sigma!r}\t{train_loss!r}\t{val_loss!r}\t{val_sharp!r}"
            log.write(line + "\n")
            log.flush()
            if not quiet:
                print(line)
            done = epoch + 1
            if config.checkpoint_every > 0 and done % config.checkpoint_every == 0:
                save_checkpoint(_checkpoint_at(config, params, done),
                                out_dir / f"checkpoint_epoch_{done:04d}.txt")

    final = _checkpoint_at(config, params, epochs)
    save_checkpoint(final, out_dir / "checkpoint_final.txt")
    return final
