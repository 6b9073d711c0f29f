"""Sharpening schedule, optimizer, training loop, and checkpoint round-trips."""

import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import sprite_pairs

from framegate import evaluation, trainer
from framegate.gating import SharpenParams
from framegate.model import ModelConfig, ModelParams, forward_batch
from framegate.sprites import Pairs, generate_dataset, load_dataset, quantize, render
from framegate.streams import stream
from framegate.trainer import (Adam, Checkpoint, CheckpointError, TrainConfig,
                               TrainingDiverged, fit, load_checkpoint, mean_frame,
                               held_out, save_checkpoint, schedule_at, split_validation, train_epoch)

SMALL = ModelConfig(image_side=8, latent_dim=6, num_heads=1,
                    enc_hidden=(16,), dec_hidden=(16,), gate_hidden=8)


# ---- schedule ----

def test_schedule_is_linear_in_epoch():
    config = TrainConfig(gamma0=1.0, gamma_slope=0.5, sigma=0.02)
    assert schedule_at(config, 0) == SharpenParams(1.0, 0.02)
    assert schedule_at(config, 10) == SharpenParams(6.0, 0.02)
    assert schedule_at(config, 4) == SharpenParams(3.0, 0.02)


def test_schedule_sigma_does_not_decay():
    config = TrainConfig(gamma0=2.0, gamma_slope=0.0, sigma=0.3)
    for epoch in (0, 1, 50):
        assert schedule_at(config, epoch) == SharpenParams(2.0, 0.3)


def test_schedule_validation():
    with pytest.raises(ValueError, match="gamma0 must be >= 1, got 0.5"):
        TrainConfig(gamma0=0.5)
    with pytest.raises(ValueError, match="gamma0"):
        TrainConfig(gamma0=float("nan"))
    with pytest.raises(ValueError, match="gamma_slope must be >= 0"):
        TrainConfig(gamma_slope=-0.1)
    for sigma in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            TrainConfig(sigma=sigma)
    with pytest.raises(ValueError, match="epoch"):
        schedule_at(TrainConfig(), -1)


@pytest.mark.parametrize("key,value", [
    ("lr", -1e-3), ("lr", float("nan")), ("beta1", 1.0), ("beta1", -0.1),
    ("beta1", float("nan")), ("beta2", 1.0), ("beta2", float("nan")), ("eps", 0.0),
    ("eps", -1.0), ("eps", float("nan")), ("batch_size", 0)])
def test_train_config_validation(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})
    TrainConfig(lr=0.0, beta1=0.0, beta2=0.0)


# ---- Adam ----

def test_adam_first_step_has_lr_magnitude():
    # With bias correction the very first update is lr * g / (|g| + eps).
    x = np.array([1.0, -2.0, 0.5])
    g = np.array([10.0, -0.01, 3.0])
    before = x.copy()
    Adam(TrainConfig(lr=0.05)).step(x, [g])
    assert np.allclose(np.abs(before - x), 0.05, atol=1e-5)
    assert np.all(np.sign(before - x) == np.sign(g))


def test_adam_minimizes_a_quadratic():
    target = np.array([3.0, -1.0, 0.25, 4.0])
    x = np.zeros(4)
    opt = Adam(TrainConfig(lr=0.1))
    for _ in range(500):
        opt.step(x, [2.0 * (x - target)])
    assert np.abs(x - target).max() < 1e-3


def test_adam_updates_in_place_and_tracks_names():
    # A step on the flat vector moves every named parameter array in place.
    params = ModelParams.initialize(SMALL, stream(4, "init"))
    live = params.named()
    before = {name: arr.copy() for name, arr in live.items()}
    opt = Adam(TrainConfig(lr=0.01))
    opt.step(params.flat, [np.ones_like(params.flat)])
    for name, arr in params.named().items():
        assert arr is live[name], name
        assert np.all(arr < before[name]), name
    assert opt.m.shape == opt.v.shape == params.flat.shape and opt.t == 1


def per_array_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array update the fused step replaced, kept as its reference."""
    state["t"] += 1
    t = state["t"]
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


def test_fused_adam_matches_the_per_array_update_bit_for_bit(monkeypatch):
    # At a block of 4 values, pieces of 35, 5, 33 and 1 values straddle block edges.
    monkeypatch.setattr(trainer, "_BLOCK", 4)
    shapes = {"w": (7, 5), "b": (5,), "u": (3, 11), "c": (1,)}
    rng = np.random.default_rng(3)
    arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = np.concatenate([a.reshape(-1) for a in arrays.values()])
    state = {"t": 0, "m": {}, "v": {}}
    opt = Adam(TrainConfig(lr=2e-3))
    for _ in range(50):
        # Gradients over many magnitudes, with exact zeros, so rounding shows.
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-8, 4, size=shape)
                 * (rng.random(shape) > 0.1) for name, shape in shapes.items()}
        per_array_adam(arrays, grads, state, lr=2e-3)
        opt.step(flat, grads.values())
    expected = np.concatenate([a.reshape(-1) for a in arrays.values()])
    assert flat.tobytes() == expected.tobytes()
    assert opt.t == state["t"] == 50


def test_adam_gives_the_same_bytes_for_any_split_of_the_gradient(monkeypatch):
    monkeypatch.setattr(trainer, "_BLOCK", 4)
    rng = np.random.default_rng(8)
    whole = rng.normal(size=50)
    split = whole.copy()
    one, many = Adam(TrainConfig(lr=1e-2)), Adam(TrainConfig(lr=1e-2))
    for _ in range(20):
        g = rng.normal(size=50) * 10.0 ** rng.integers(-6, 3, size=50)
        cuts = np.sort(rng.choice(np.arange(1, 50), size=rng.integers(1, 8), replace=False))
        one.step(whole, [g])
        many.step(split, np.split(g, cuts))
        assert whole.tobytes() == split.tobytes()
    assert one.m.tobytes() == many.m.tobytes() and one.v.tobytes() == many.v.tobytes()


def test_adam_rejects_a_gradient_of_another_shape():
    with pytest.raises(ValueError, match="gradient pieces hold 3 values, the parameters 4"):
        Adam().step(np.zeros(4), [np.zeros(3)])
    with pytest.raises(ValueError, match="hold 5 values, the parameters 4"):
        Adam().step(np.zeros(4), [np.zeros(2), np.zeros((1, 3))])


def test_adam_refuses_one_flat_array_as_its_pieces():
    # Iterating an array would pass each value as its own piece: the same
    # bits, but about 14 ufunc calls per parameter.
    opt = Adam()
    with pytest.raises(TypeError, match=r"pass \[g\], not g"):
        opt.step(np.zeros(4), np.zeros(4))
    assert opt.t == 0 and opt.m is None


def test_adam_first_step_allocates_the_moments_and_two_blocks_only():
    # The moments are as long as the vector; the scratch is two blocks, not
    # two more vectors as long as it.
    n = 3 * trainer._BLOCK + 5
    p, g = np.zeros(n), np.ones(n)
    opt = Adam()
    tracemalloc.start()
    try:
        opt.step(p, [g])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * 8 + 2 * trainer._BLOCK * 8 + 4096


# ---- train_epoch ----

def test_train_epoch_overfits_a_single_pair():
    pair = Pairs(quantize(np.array([[render(1, 2, 0.8, 8, 2), render(4, 2, 0.8, 8, 2)]])),
                 np.array(["x"]))
    params = ModelParams.initialize(SMALL, stream(0, "init"))
    config = TrainConfig(gamma0=1.0, gamma_slope=0.0, sigma=0.0, lr=1e-2, batch_size=1)
    opt = Adam(config)
    first = train_epoch(params, opt, pair, config, 0)
    last = first
    for epoch in range(1, 200):
        last = train_epoch(params, opt, pair, config, epoch)
    assert last < 0.1 * first


def test_train_epoch_reports_pair_weighted_mean_loss():
    # lr=0 keeps the params frozen, so each batch loss is just the forward
    # loss and the return value must match a by-hand weighted mean, ragged
    # final batch included.
    pairs = sprite_pairs(7, 7)
    params = ModelParams.initialize(SMALL, stream(1, "init"))
    config = TrainConfig(gamma0=1.0, gamma_slope=0.0, sigma=0.0, lr=0.0, batch_size=3, seed=2)
    reported = train_epoch(params, Adam(config), pairs, config, 0)

    order = stream(2, "epoch", 0).permutation(7)
    sp = SharpenParams(gamma=1.0, sigma=0.0)
    total = 0.0
    for start in range(0, 7, 3):
        ids = order[start:start + 3]
        xp = np.stack([pairs.x_prev[i] for i in ids])
        xc = np.stack([pairs.x_curr[i] for i in ids])
        res = forward_batch(xp, xc, params, sp, rng=np.random.default_rng(0))
        total += res.loss.item() * len(ids)
    assert abs(reported - total / 7) < 1e-12


def test_train_epoch_frees_each_tape_after_adam_and_before_the_next_forward(monkeypatch):
    # With the cyclic collector off, refcounting alone must free batch k's
    # tape once its Adam step is done and before batch k+1 records anything.
    # Not earlier: freed before the step, the tape's heap went back to the
    # OS on every step, and a 12-epoch fit-wide fit (32x32, batch 256, two
    # heads) took about 565k minor page faults, against 8.6k freed after the
    # step and 58-60k with the tape held until the next forward returned.
    tapes, events = [], []
    real_forward, real_step = trainer.forward_batch, Adam.step

    def forward_batch(x_prev, x_curr, params, *rest, **kwargs):
        events.append(("forward", [ref() is None for ref in tapes]))
        tapes.append(weakref.ref(next(iter(params.arrays.values())).tape))
        return real_forward(x_prev, x_curr, params, *rest, **kwargs)

    def step(self, p, g):
        events.append(("adam", tapes[-1]() is not None))
        real_step(self, p, g)

    monkeypatch.setattr(trainer, "forward_batch", forward_batch)
    monkeypatch.setattr(Adam, "step", step)
    config = TrainConfig(model=SMALL, batch_size=4, seed=2)
    params = ModelParams.initialize(SMALL, stream(2, "init"))
    gc.disable()
    try:
        train_epoch(params, Adam(config), sprite_pairs(2, 18), config, 0)
    finally:
        gc.enable()
    assert events == [e for k in range(5) for e in (("forward", [True] * k), ("adam", True))]


def test_train_epoch_hands_adam_the_very_gradients_extract_grads_returned(monkeypatch):
    # Adam reads each leaf's gradient where backward left it: no flat copy.
    returned, received = [], []
    real_extract, real_step = trainer.extract_grads, Adam.step

    def extract_grads(*args):
        grads = real_extract(*args)
        returned.append(list(grads.values()))
        return grads

    def step(self, p, grads):
        received.append(list(grads))
        real_step(self, p, received[-1])

    monkeypatch.setattr(trainer, "extract_grads", extract_grads)
    monkeypatch.setattr(Adam, "step", step)
    config = TrainConfig(model=SMALL, batch_size=4, seed=2)
    params = ModelParams.initialize(SMALL, stream(2, "init"))
    train_epoch(params, Adam(config), sprite_pairs(2, 10), config, 0)
    assert len(received) == len(returned) == 3
    for got, want in zip(received, returned):
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_train_epoch_is_deterministic_for_a_seed():
    pairs = sprite_pairs(3, 10)
    config = TrainConfig(gamma0=2.0, gamma_slope=0.0, sigma=0.05, batch_size=4, seed=5)
    runs = []
    for _ in range(2):
        params = ModelParams.initialize(SMALL, stream(5, "init"))
        train_epoch(params, Adam(), pairs, config, 0)
        runs.append(params.named())
    assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])


def test_train_epoch_input_validation():
    params = ModelParams.initialize(SMALL, stream(0, "init"))
    with pytest.raises(ValueError, match="non-empty"):
        train_epoch(params, Adam(), sprite_pairs(0, 2)[:0], TrainConfig(), 0)
    # Tape-leaf parameters, say, hold no flat vector for Adam to update.
    with pytest.raises(ValueError, match="train_epoch needs parameters that own a flat vector"):
        train_epoch(ModelParams(SMALL, dict(params.arrays)), Adam(), sprite_pairs(0, 2),
                    TrainConfig(), 0)


def test_train_epoch_raises_on_nonfinite_loss():
    pairs = sprite_pairs(0, 4)
    params = ModelParams.initialize(SMALL, stream(0, "init"))
    params.arrays["enc0.w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 3, batch 0") as info:
        train_epoch(params, Adam(), pairs, TrainConfig(batch_size=4), 3)
    assert (info.value.epoch, info.value.batch_index) == (3, 0)


# ---- checkpoints ----

def roundtrip(tmp_path, ckpt):
    save_checkpoint(ckpt, tmp_path / "ckpt.txt")
    return load_checkpoint(tmp_path / "ckpt.txt")


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    config = TrainConfig(model=SMALL, gamma0=1.0, gamma_slope=0.25, sigma=0.05, seed=11)
    params = ModelParams.initialize(SMALL, stream(11, "init"))
    back = roundtrip(tmp_path, Checkpoint(config=config, epoch=17, params=params))
    assert back.config == config
    assert (back.epoch, back.gamma) == (17, 5.25)
    header = (tmp_path / "ckpt.txt").read_bytes().split(b"\n\n", 1)[0].decode().splitlines()
    assert {"epoch=17", "gamma=5.25", "sigma_at_epoch=0.05"} <= set(header)
    named, named_back = params.named(), back.params.named()
    assert all(np.array_equal(named[k], named_back[k]) for k in named)


def test_checkpoint_header_key_order_is_fixed(tmp_path):
    # The header's bytes follow the field order of ModelConfig and TrainConfig.
    save_checkpoint(Checkpoint(TrainConfig(model=SMALL), 0, ModelParams.zeros(SMALL)),
                    tmp_path / "ckpt.txt")
    lines = (tmp_path / "ckpt.txt").read_bytes().split(b"\n\n", 1)[0].decode().splitlines()
    assert [line.split("=", 1)[0] for line in lines[1:]] == [
        "image_side", "latent_dim", "num_heads", "enc_hidden", "dec_hidden", "gate_hidden",
        "gamma0", "gamma_slope", "sigma", "lr", "beta1", "beta2", "eps", "batch_size",
        "checkpoint_every", "seed", "epoch", "gamma", "sigma_at_epoch", "payload_sha256"]


def test_checkpoint_roundtrip_is_bit_exact_at_32x32_with_two_heads(tmp_path):
    model = ModelConfig(image_side=32, num_heads=2)
    config = TrainConfig(model=model, batch_size=256, seed=5)
    params = ModelParams.initialize(model, stream(5, "init"))
    back = roundtrip(tmp_path, Checkpoint(config=config, epoch=3, params=params))
    assert back.config == config
    assert back.params.flat.tobytes() == params.flat.tobytes()
    assert back.params.flat.flags.writeable and back.params.flat.flags.owndata


def test_checkpoint_payload_is_the_flat_vector(tmp_path):
    params = ModelParams.initialize(ModelConfig(), stream(0, "init"))
    config = TrainConfig()
    save_checkpoint(Checkpoint(config=config, epoch=0, params=params), tmp_path / "ckpt.txt")
    blob = (tmp_path / "ckpt.txt").read_bytes()
    header, payload = blob.split(b"\n\n", 1)
    assert payload == params.flat.tobytes()
    assert len(payload) == 8 * sum(math.prod(s) for s in ModelParams.shapes(config.model).values())
    lines = header.decode().splitlines()
    assert lines[0] == "framegate-checkpoint version=3"
    assert lines[-1] == f"payload_sha256={hashlib.sha256(payload).hexdigest()}"


def test_parameters_are_views_of_one_flat_vector_in_named_order(tmp_path):
    ckpt = Checkpoint(config=TrainConfig(model=SMALL), epoch=0,
                      params=ModelParams.initialize(SMALL, stream(4, "init")))
    made = {"initialize": ckpt.params, "zeros": ModelParams.zeros(SMALL),
            "load_checkpoint": roundtrip(tmp_path, ckpt).params}
    for how, params in made.items():
        flat = params.flat
        assert flat.dtype == np.float64 and flat.flags.c_contiguous, how
        start = flat.__array_interface__["data"][0]
        offset = 0
        for name, arr in params.named().items():
            assert arr.base is flat and arr.flags.c_contiguous, (how, name)
            assert arr.__array_interface__["data"][0] == start + 8 * offset, (how, name)
            offset += arr.size
        assert offset == flat.size, how
    # Writing the flat vector is writing the model.
    params = made["load_checkpoint"]
    params.flat[:] = 0.5
    assert all(np.all(arr == 0.5) for arr in params.named().values())


def test_checkpoint_errors_name_the_problem(tmp_path, monkeypatch):
    config = TrainConfig(model=SMALL)
    ckpt = Checkpoint(config=config, epoch=0,
                      params=ModelParams.initialize(SMALL, stream(0, "init")))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, path)
    good = path.read_bytes()
    header, payload = good.split(b"\n\n", 1)

    def refused(blob, match):
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=match) as err:
            load_checkpoint(path)
        assert str(err.value).count(str(path)) == 1, err.value

    refused(b"something else\n", "not a checkpoint")
    refused(bytes(20), "not a checkpoint")
    refused(good.replace(b"version=3", b"version=2"), "unsupported checkpoint version=2")
    lr = f"lr={config.lr!r}\n".encode()
    refused(good.replace(lr, b""), "missing key 'lr'")
    refused(good.replace(lr, b"lr=fast\n"), "bad value for 'lr'")
    refused(good.replace(b"epoch=0\n", b"epoch=0\nseed=5\n"), "ckpt.txt:19: duplicate key 'seed'")
    refused(good.replace(b"epoch=0\n", b"epoch=0\nspeed=5\n"), "unknown key 'speed'")
    refused(good.replace(b"gamma=10.0\n", b"gamma=nan\n"), "'gamma' must be finite")
    # The epoch state is the schedule's at the header's epoch.
    refused(good.replace(b"epoch=0\n", b"epoch=-1\n"), "epoch must be >= 0, got -1")
    refused(good.replace(b"gamma=10.0\n", b"gamma=0.5\n"),
            "gamma=0.5 is not the schedule's 10.0 at epoch 0")
    refused(good.replace(b"sigma_at_epoch=0.05\n", b"sigma_at_epoch=7.0\n"),
            "sigma_at_epoch=7.0 is not the schedule's 0.05 at epoch 0")
    refused(good.replace(b"batch_size=32\n", b"batch_size=0\n"), "batch_size must be >= 1")
    sha = header[header.rindex(b"\n") + 1:] + b"\n"
    refused(good.replace(sha, b""), "missing key 'payload_sha256'")

    # The payload's size comes from the model settings in the header.
    refused(good.replace(b"latent_dim=6\n", b"latent_dim=7\n"), "payload is truncated")
    refused(good.replace(b"latent_dim=6\n", b"latent_dim=5\n"), "payload is oversized")
    refused(good[:-8], f"payload is truncated: {len(payload) - 8} bytes, expected {len(payload)}")
    refused(good + bytes(8), "payload is oversized")
    refused(header, "payload is truncated")
    flipped = bytearray(good)
    flipped[len(header) + 2 + 100] ^= 0x01
    refused(bytes(flipped), "does not match payload_sha256")
    # A header naming a huge model is refused by size, before its 8 TB of parameters are allocated.
    refused(good.replace(b"enc_hidden=16\n", b"enc_hidden=1000000,1000000\n"),
            f"payload is truncated: {len(payload)} bytes, expected 8000576010912")
    # So is a huge head count (200 TB of parameters), without listing every head.
    shapes = ModelParams.shapes

    def listed(config):
        assert config.num_heads < 1000000, "listed every head of a huge model"
        return shapes(config)

    monkeypatch.setattr(ModelParams, "shapes", staticmethod(listed))
    refused(good.replace(b"latent_dim=6\n", b"latent_dim=1000000\n")
            .replace(b"num_heads=1\n", b"num_heads=1000000\n"),
            f"payload is truncated: {len(payload)} bytes, expected 200000328017152")


def test_checkpoint_refuses_version_1_and_non_finite_values(tmp_path):
    params = ModelParams.initialize(SMALL, stream(0, "init"))
    ckpt = Checkpoint(config=TrainConfig(model=SMALL), epoch=0, params=params)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, path)

    # Version 1 stored head matrices (fan_out, fan_in); a square one would
    # otherwise load transposed without any error.
    path.write_bytes(path.read_bytes().replace(b"version=3", b"version=1"))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version=1"):
        load_checkpoint(path)

    # Saved through save_checkpoint, so the sha256 matches and only the
    # finiteness check stands between these values and a run.
    for bad in (np.nan, np.inf, -np.inf):
        params.arrays["enc0.b"][3] = bad
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="'enc0.b' holds a non-finite value"):
            load_checkpoint(path)


# ---- fit ----

def test_split_validation_holds_out_last_tenth():
    pairs = sprite_pairs(0, 30)
    train, val = split_validation(pairs)
    assert len(train) == 27 and len(val) == 3
    assert np.shares_memory(val.frames, pairs.frames)
    assert np.array_equal(val.frames, pairs.frames[27:])
    assert val.labels.tolist() == pairs.labels[27:].tolist()
    assert held_out(30) == slice(27, 30)
    assert held_out(10) == slice(9, 10)
    # Under ten pairs the last tenth is empty: refused, by the split too.
    with pytest.raises(ValueError, match="^need at least 10 pairs for a validation split, got 9$"):
        held_out(9)
    with pytest.raises(ValueError, match="got 9$"):
        split_validation(pairs[:9])


def test_mean_frame_averages_both_frames_of_every_pair():
    pairs = sprite_pairs(4, 7)
    stacked = np.concatenate([pairs.x_prev, pairs.x_curr])
    assert np.allclose(mean_frame(pairs), stacked.mean(axis=0), atol=1e-15)


@pytest.mark.parametrize("side", [16, 32])
def test_mean_frame_of_a_loaded_set_matches_the_per_pair_loop(tmp_path, side):
    # The reference converts each stored frame to intensities and adds frame
    # after frame, prev before curr; the block sum must keep that order bit
    # for bit, since the decoder bias starts from it.
    def per_pair(frames):
        total = np.zeros(side * side)
        for x_prev, x_curr in frames:
            total += x_prev / 255.0
            total += x_curr / 255.0
        return total / (2 * len(frames))

    generate_dataset(tmp_path, count=3000, seed=0, n=side)
    pairs = load_dataset(tmp_path)
    for subset in (pairs, split_validation(pairs)[0]):
        assert np.array_equal(mean_frame(subset), per_pair(subset.frames))


def test_a_loaded_set_is_never_converted_whole(tmp_path):
    # 3,000 pairs of 32x32 frames are 6 MB as stored bytes and 49 MB as
    # float64 intensities. Loading them, their mean frame and one epoch
    # convert only blocks and batches, so the peak stays below one float copy.
    # A small model keeps the epoch short; a batch of 256 pairs converts 4 MB.
    count, side = 3000, 32
    generate_dataset(tmp_path, count=count, seed=0, n=side)
    model = ModelConfig(image_side=side, latent_dim=6, enc_hidden=(16,), dec_hidden=(16,),
                        gate_hidden=8)
    config = TrainConfig(model=model, batch_size=256)
    tracemalloc.start()
    try:
        pairs = load_dataset(tmp_path)
        params = ModelParams.initialize(config.model, stream(0, "init"),
                                        mean_frame=mean_frame(pairs))
        train_epoch(params, Adam(config), pairs, config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 * count * side * side
    assert pairs.frames.nbytes == 2 * count * side * side


def test_fit_runs_and_checkpoints(tmp_path):
    config = TrainConfig(model=SMALL, gamma0=1.0, gamma_slope=0.5, sigma=0.05,
                         batch_size=4, seed=3, checkpoint_every=1)
    final = fit(config, sprite_pairs(3, 20), epochs=2, out_dir=tmp_path, quiet=True)
    assert final.epoch == 2 and final.gamma == 2.0
    for name in ("checkpoint_epoch_0000.txt", "checkpoint_epoch_0001.txt",
                 "checkpoint_epoch_0002.txt", "checkpoint_final.txt", "log.tsv"):
        assert (tmp_path / name).exists()
    log_lines = (tmp_path / "log.tsv").read_text().splitlines()
    assert len(log_lines) == 2
    epoch, gamma, sigma, *losses = log_lines[1].split("\t")
    assert (epoch, gamma, sigma) == ("1", "1.5", "0.05")
    assert all(np.isfinite(float(v)) for v in losses)


def test_fit_is_initialize_then_train_epoch_by_index(tmp_path):
    # A run is re-derived from its settings and epoch index alone, which is
    # what resuming from a checkpoint relies on.
    config = TrainConfig(model=SMALL, batch_size=4, seed=6, checkpoint_every=0)
    pairs = sprite_pairs(6, 20)
    final = fit(config, pairs, epochs=3, out_dir=tmp_path, quiet=True)
    train = split_validation(pairs)[0]
    params = ModelParams.initialize(SMALL, stream(6, "init"), mean_frame=mean_frame(train))
    opt = Adam(config)
    for epoch in range(3):
        train_epoch(params, opt, train, config, epoch)
    assert params.flat.tobytes() == final.params.flat.tobytes()


def test_fit_is_deterministic(tmp_path):
    config = TrainConfig(model=SMALL, batch_size=4, seed=9, checkpoint_every=0)
    for sub in ("a", "b"):
        fit(config, sprite_pairs(9, 20), epochs=2, out_dir=tmp_path / sub, quiet=True)
    assert ((tmp_path / "a" / "checkpoint_final.txt").read_bytes()
            == (tmp_path / "b" / "checkpoint_final.txt").read_bytes())
    assert ((tmp_path / "a" / "log.tsv").read_bytes()
            == (tmp_path / "b" / "log.tsv").read_bytes())


def test_fit_frees_each_validation_pass_before_training_on(tmp_path, monkeypatch):
    refs = []
    real_pass, real_epoch = evaluation.hard_pass, trainer.train_epoch

    def hard_pass(params, pairs):
        passed = real_pass(params, pairs)
        refs.extend(weakref.ref(result) for _, result in passed)
        return passed

    def train_epoch(*args):
        assert all(ref() is None for ref in refs)
        return real_epoch(*args)

    monkeypatch.setattr(evaluation, "hard_pass", hard_pass)
    monkeypatch.setattr(trainer, "train_epoch", train_epoch)
    config = TrainConfig(model=SMALL, batch_size=4, seed=2, checkpoint_every=0)
    fit(config, sprite_pairs(2, 20), epochs=3, out_dir=tmp_path, quiet=True)
    assert len(refs) == 3


def test_fit_epochs_zero_saves_initial_state(tmp_path):
    config = TrainConfig(model=SMALL, seed=1)
    pairs = sprite_pairs(1, 12)
    final = fit(config, pairs, epochs=0, out_dir=tmp_path, quiet=True)
    assert final.epoch == 0 and final.gamma == config.gamma0
    assert (tmp_path / "log.tsv").read_text() == ""
    train = split_validation(pairs)[0]
    expected = ModelParams.initialize(SMALL, stream(1, "init"),
                                      mean_frame=mean_frame(train)).named()
    got = load_checkpoint(tmp_path / "checkpoint_final.txt").params.named()
    assert all(np.array_equal(expected[k], got[k]) for k in expected)


def test_an_interrupted_fit_leaves_what_it_finished(tmp_path, monkeypatch):
    config = TrainConfig(model=SMALL, batch_size=4, seed=4, checkpoint_every=2)
    pairs = sprite_pairs(4, 20)
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    fit(config, pairs, epochs=5, out_dir=whole, quiet=True)
    real_epoch = trainer.train_epoch

    def train_epoch(params, opt, pairs, config, epoch):
        if epoch == 3:
            raise KeyboardInterrupt
        return real_epoch(params, opt, pairs, config, epoch)

    monkeypatch.setattr(trainer, "train_epoch", train_epoch)
    with pytest.raises(KeyboardInterrupt):
        fit(config, pairs, epochs=5, out_dir=cut, quiet=True)
    rows = (whole / "log.tsv").read_text().splitlines(keepends=True)
    assert len(rows) == 5 and (cut / "log.tsv").read_text() == "".join(rows[:3])
    kept = ["checkpoint_epoch_0000.txt", "checkpoint_epoch_0002.txt"]
    for name in kept:
        assert (cut / name).read_bytes() == (whole / name).read_bytes()
    # No final checkpoint and no temporary file from a half-done write.
    assert sorted(p.name for p in cut.iterdir()) == [*kept, "log.tsv"]


def test_fit_rejects_tiny_datasets(tmp_path):
    with pytest.raises(ValueError, match="10 pairs"):
        fit(TrainConfig(model=SMALL), sprite_pairs(0, 9), epochs=1, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_fit_refuses_a_negative_epoch_count_before_writing(tmp_path):
    with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
        fit(TrainConfig(model=SMALL), sprite_pairs(0, 20), epochs=-1, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_fit_attaches_epoch_to_divergence(tmp_path):
    # One Adam step of size 1e300 overflows every later forward pass.
    config = TrainConfig(model=SMALL, lr=1e300, seed=2)
    with pytest.raises(TrainingDiverged, match="epoch 1") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        fit(config, sprite_pairs(2, 20), epochs=3, out_dir=tmp_path, quiet=True)
    assert info.value.epoch == 1
