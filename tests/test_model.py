"""Encoder/decoder, two-frame forward pass, batched path, full-model gradients."""

import numpy as np
import pytest

from framegate.autodiff import Tape, apply, backward, grad_check
from framegate.gating import SharpenParams
from framegate.model import (ForwardResult, ModelConfig, ModelParams, decode, encode,
                             extract_grads, forward_batch, forward_pair,
                             prepare_batch_params)

TOL = 1e-5

SMALL = ModelConfig(image_side=8, latent_dim=6, num_heads=1,
                    enc_hidden=(16, 8), dec_hidden=(8, 16), gate_hidden=8)


def frames(rng, config, count=1):
    out = rng.random((count, config.pixels))
    return out if count > 1 else out[0]


# ---- config / params ----

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(image_side=1)
    with pytest.raises(ValueError):
        ModelConfig(latent_dim=2, num_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(num_heads=0)
    with pytest.raises(ValueError):
        ModelConfig(enc_hidden=(0,))


def test_pixels_property():
    assert ModelConfig(image_side=16).pixels == 256


def test_initialize_bounds_and_zero_biases():
    rng = np.random.default_rng(0)
    params = ModelParams.initialize(SMALL, rng)
    for name, arr in params.named().items():
        if arr.ndim == 2:
            assert np.abs(arr).max() <= np.sqrt(6.0 / sum(arr.shape)), name
        else:
            assert np.array_equal(arr, np.zeros_like(arr)), name


def test_initialize_deterministic_in_seed():
    a = ModelParams.initialize(SMALL, np.random.default_rng(7)).named()
    b = ModelParams.initialize(SMALL, np.random.default_rng(7)).named()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_named_round_trip():
    params = ModelParams.initialize(SMALL, np.random.default_rng(1))
    rebuilt = ModelParams(SMALL, params.named(), params.flat)
    assert list(rebuilt.named()) == list(ModelParams.shapes(SMALL))
    assert all(rebuilt.named()[k] is v for k, v in params.named().items())
    assert rebuilt.flat is params.flat
    # Leaf-built parameters keep the layout train_epoch's flat gather relies on.
    tracked, leaves = prepare_batch_params(params, Tape())
    assert list(tracked.named()) == list(leaves) == list(ModelParams.shapes(SMALL))
    assert all(tracked.named()[k] is leaf for k, leaf in leaves.items())


# ---- encode / decode ----

def test_zero_params_encode_to_zero_decode_to_half():
    params = ModelParams.zeros(SMALL)
    x = np.linspace(0, 1, SMALL.pixels)
    h = encode(x, params)
    assert np.array_equal(h.data, np.zeros(SMALL.latent_dim))
    x_hat = decode(np.zeros(SMALL.latent_dim), params)
    assert np.array_equal(x_hat.data, np.full(SMALL.pixels, 0.5))


def test_mean_frame_init_decodes_zero_latent_to_mean_frame():
    rng = np.random.default_rng(5)
    mean = np.linspace(0.0, 1.0, SMALL.pixels)
    params = ModelParams.initialize(SMALL, rng, mean_frame=mean)
    # A zero latent passes every relu layer as zeros, leaving only the output bias.
    x_hat = decode(np.zeros(SMALL.latent_dim), params).data
    assert np.allclose(x_hat, np.clip(mean, 1e-3, 1.0 - 1e-3), atol=1e-12)
    plain = ModelParams.initialize(SMALL, np.random.default_rng(5)).named()
    anchored = params.named()
    last = f"dec{len(SMALL.dec_hidden)}.b"
    assert all(np.array_equal(plain[k], anchored[k]) for k in plain if k != last)
    with pytest.raises(ValueError, match="mean frame"):
        ModelParams.initialize(SMALL, rng, mean_frame=np.zeros(3))


def test_encode_shared_and_deterministic():
    rng = np.random.default_rng(3)
    params = ModelParams.initialize(SMALL, rng)
    x = frames(rng, SMALL)
    assert np.array_equal(encode(x, params).data, encode(x.copy(), params).data)


def test_decode_stays_inside_unit_interval():
    rng = np.random.default_rng(4)
    params = ModelParams.initialize(SMALL, rng)
    out = decode(rng.normal(size=SMALL.latent_dim), params).data
    assert (out > 0).all() and (out < 1).all()


def test_encode_rejects_wrong_length():
    params = ModelParams.zeros(SMALL)
    with pytest.raises(ValueError):
        encode(np.zeros(10), params)
    with pytest.raises(ValueError):
        decode(np.zeros(5), params)


# ---- forward_pair ----

def test_hard_mode_swaps_at_most_k_components():
    rng = np.random.default_rng(5)
    for num_heads in (1, 2):
        config = ModelConfig(image_side=8, latent_dim=6, num_heads=num_heads,
                             enc_hidden=(16, 8), dec_hidden=(8, 16), gate_hidden=8)
        params = ModelParams.initialize(config, rng)
        x_prev, x_curr = frames(rng, config), frames(rng, config)
        res = forward_pair(x_prev, x_curr, params, None)
        h_prev = encode(x_prev, params).data
        mixed = res.mixed.data
        assert np.sum(~np.isclose(mixed, h_prev)) <= num_heads


def test_equal_frames_mix_to_current_encoding():
    rng = np.random.default_rng(6)
    params = ModelParams.initialize(SMALL, rng)
    x = frames(rng, SMALL)
    res = forward_pair(x, x.copy(), params, None)
    assert np.allclose(res.mixed.data, res.latent_curr.data, atol=1e-15)


def test_hard_mode_ignores_rng():
    rng = np.random.default_rng(7)
    params = ModelParams.initialize(SMALL, rng)
    x_prev, x_curr = frames(rng, SMALL), frames(rng, SMALL)
    a = forward_pair(x_prev, x_curr, params, None, rng=np.random.default_rng(1))
    b = forward_pair(x_prev, x_curr, params, None, rng=np.random.default_rng(2))
    assert a.loss.item() == b.loss.item()


def test_soft_mode_requires_rng_when_noisy():
    params = ModelParams.initialize(SMALL, np.random.default_rng(8))
    x = np.zeros(SMALL.pixels)
    with pytest.raises(ValueError, match="rng"):
        forward_pair(x, x, params, SharpenParams(gamma=1.0, sigma=0.1))


def test_forward_pair_loss_nonnegative_and_result_fields():
    # A single pair runs as a one-row block: every result has one row.
    rng = np.random.default_rng(9)
    params = ModelParams.initialize(SMALL, rng)
    x_prev, x_curr = frames(rng, SMALL), frames(rng, SMALL)
    sp = SharpenParams(gamma=1.0)
    res = forward_pair(x_prev, x_curr, params, sp, rng=np.random.default_rng(0))
    assert isinstance(res, ForwardResult)
    assert res.loss.item() >= 0.0
    assert len(res.w_per_head) == SMALL.num_heads
    assert res.w_per_head[0].shape == (1, SMALL.latent_dim)
    assert res.mask.shape == (1, SMALL.latent_dim)
    assert res.x_hat.shape == (1, SMALL.pixels)
    block = forward_pair(x_prev[None], x_curr[None], params, sp,
                         rng=np.random.default_rng(0))
    for field in ("x_hat", "mask", "latent_curr", "mixed"):
        assert np.array_equal(getattr(res, field).data, getattr(block, field).data), field
    assert res.loss.item() == block.loss.item()


def test_mismatched_or_non_2d_blocks_rejected():
    params = ModelParams.zeros(SMALL)
    with pytest.raises(ValueError, match="matching"):
        forward_pair(np.zeros((2, SMALL.pixels)), np.zeros((3, SMALL.pixels)), params, None)
    with pytest.raises(ValueError, match="matching"):
        forward_pair(np.zeros(SMALL.pixels), np.zeros((2, SMALL.pixels)), params, None)
    block = np.zeros((1, 2, SMALL.pixels))
    with pytest.raises(ValueError, match="matching"):
        forward_pair(block, block, params, None)


def test_noise_free_soft_mode_needs_no_rng():
    rng = np.random.default_rng(13)
    params = ModelParams.initialize(SMALL, rng)
    xp, xc = frames(rng, SMALL, 3), frames(rng, SMALL, 3)
    sp = SharpenParams(gamma=3.0)
    without = forward_pair(xp, xc, params, sp)
    seeded = forward_pair(xp, xc, params, sp, rng=np.random.default_rng(0))
    assert without.loss.item() == seeded.loss.item()
    assert np.array_equal(without.mask.data, seeded.mask.data)


# ---- batched path ----

def test_batch_loss_equals_mean_of_pair_losses():
    rng = np.random.default_rng(10)
    params = ModelParams.initialize(SMALL, rng)
    xp = frames(rng, SMALL, 5)
    xc = frames(rng, SMALL, 5)
    sp = SharpenParams(gamma=3.0)
    tape = Tape()
    bp, leaves = prepare_batch_params(params, tape)
    batch_loss = forward_batch(xp, xc, bp, sp,
                               rng=np.random.default_rng(0)).loss.item()
    singles = [forward_pair(xp[i], xc[i], params, sp,
                            rng=np.random.default_rng(0)).loss.item()
               for i in range(5)]
    assert abs(batch_loss - np.mean(singles)) < 1e-12


def test_batch_gradients_match_averaged_pair_gradients():
    rng = np.random.default_rng(11)
    params = ModelParams.initialize(SMALL, rng)
    xp = frames(rng, SMALL, 4)
    xc = frames(rng, SMALL, 4)
    sp = SharpenParams(gamma=2.0)

    tape = Tape()
    bp, leaves = prepare_batch_params(params, tape)
    res = forward_batch(xp, xc, bp, sp, rng=np.random.default_rng(0))
    batch_grads = extract_grads(leaves, backward(res.loss))

    arrays = params.named()
    summed = {k: np.zeros_like(v) for k, v in arrays.items()}
    for i in range(4):
        pair_tape = Tape()
        tracked, pair_leaves = prepare_batch_params(params, pair_tape)
        res = forward_pair(xp[i], xc[i], tracked, sp,
                           rng=np.random.default_rng(0))
        grads = backward(res.loss)
        for name, leaf in pair_leaves.items():
            summed[name] += grads[leaf.node] / 4.0
    worst = max(np.abs(batch_grads[k] - summed[k]).max() for k in summed)
    assert worst < 1e-12


# ---- full-model gradient check ----

# Central differences at step 1e-6 carry an absolute noise floor near 1e-13,
# so a coordinate only resolves cleanly when its true gradient clears ~1e-8.
# The gating head reads delta * delta, whose small entries put a few head
# weights near that band at every seed of this evaluation point tried (0-39),
# so the check steps by 1e-5, which lowers the floor tenfold while truncation
# error stays far below the tolerance.  The evaluation point keeps the rest
# of the screening: a near-copy current frame keeps the loss (and with it the
# cancellation error) small, while a full-range previous frame keeps the
# gating path live.
GRAD_STEP = 1e-5


@pytest.mark.parametrize("num_heads", [1, 2])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_full_model_gradients(num_heads, sigma):
    rng = np.random.default_rng(1)
    config = ModelConfig(image_side=8, latent_dim=6, num_heads=num_heads,
                         enc_hidden=(16, 8), dec_hidden=(8, 16), gate_hidden=8)
    params = ModelParams.initialize(config, rng)
    x_prev = 0.25 + 0.75 * rng.random(config.pixels)
    x_curr = 0.5 + 0.04 * (2 * rng.random(config.pixels) - 1)
    sp = SharpenParams(gamma=2.0, sigma=sigma)
    arrays = params.named()

    for name in arrays:
        def f(leaf, vary=name):
            vals = {k: (leaf if k == vary else v) for k, v in arrays.items()}
            mixed = ModelParams(config, vals)
            res = forward_pair(x_prev, x_curr, mixed, sp,
                               rng=np.random.default_rng(0))
            return res.loss

        assert grad_check(f, arrays[name], step=GRAD_STEP) <= TOL, name
