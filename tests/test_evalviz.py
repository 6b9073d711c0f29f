"""Evaluation metrics, traversals, and PGM serialization."""

import numpy as np
import pytest

from conftest import sprite_pairs

from framegate import evaluation
from framegate.gating import SharpenParams, sharpen
from framegate.model import ModelConfig, ModelParams, decode, encode, forward_pair
from framegate.sprites import FACTORS, Pairs
from framegate.streams import stream

SMALL = ModelConfig(image_side=8, latent_dim=6, num_heads=1,
                    enc_hidden=(16,), dec_hidden=(16,), gate_hidden=8)


# ---- sharpness ----

def test_sharpness_of_untrained_gate_is_uniform():
    # Zero parameters give a uniform gate, so the max weight is exactly 1/d
    # for any exponent (the rescaled base is all ones).
    config = ModelConfig(image_side=16, latent_dim=32, num_heads=1)
    params = ModelParams.zeros(config)
    passed = evaluation.hard_pass(params, sprite_pairs(0, 6, n=16))
    for gamma in (1.0, 4.0, 16.0):
        assert evaluation.sharpness(passed, gamma) == 0.03125


def test_sharpness_approaches_one_for_committed_gates():
    params = ModelParams.initialize(SMALL, stream(7, "init"))
    passed = evaluation.hard_pass(params, sprite_pairs(7, 6))
    soft = evaluation.sharpness(passed, 1.0)
    sharp = evaluation.sharpness(passed, 1024.0)
    assert 1.0 / SMALL.latent_dim <= soft < sharp <= 1.0
    assert sharp > 0.99


def test_hard_pass_validation():
    params = ModelParams.zeros(SMALL)
    with pytest.raises(ValueError, match="non-empty"):
        evaluation.hard_pass(params, sprite_pairs(0, 2)[:0])


# ---- consistency ----

def test_consistency_on_uniform_gates_picks_lowest_index():
    # Uniform weights tie everywhere; hard selection resolves ties to index
    # zero, so every factor agrees perfectly on the same component.
    params = ModelParams.zeros(SMALL)
    report = evaluation.consistency(evaluation.hard_pass(params, sprite_pairs(1, 9)))
    assert [s.factor for s in report.factors] == ["x", "y", "brightness"]
    for stats in report.factors:
        assert stats.modal_index == 0
        assert stats.agreement == 1.0
        assert stats.count == 3
    assert not report.distinct_modal_indices
    assert report.omitted == []


def test_consistency_lists_missing_factors():
    params = ModelParams.zeros(SMALL)
    pairs = sprite_pairs(2, 12)
    only_x = pairs[pairs.labels == "x"]
    report = evaluation.consistency(evaluation.hard_pass(params, only_x))
    assert report.omitted == ["y", "brightness"]
    assert report.stats_for("x").count == len(only_x)
    with pytest.raises(KeyError):
        report.stats_for("y")


# ---- row blocks against the per-pair loop ----

def test_block_evaluation_matches_the_per_pair_loop():
    # 300 pairs span two row blocks. Block and vector matmuls may differ in
    # the last bit, and the block sums run in another order, so the scalars
    # agree within 1e-12; the picks must be identical.
    config = ModelConfig(image_side=8, latent_dim=6, num_heads=2,
                         enc_hidden=(16,), dec_hidden=(16,), gate_hidden=8)
    params = ModelParams.initialize(config, stream(9, "init"))
    pairs = sprite_pairs(9, 300)
    sp = SharpenParams(gamma=3.0)
    losses, maxima, picks = [], [], {f: [] for f in FACTORS}
    for (x_prev, x_curr), label in zip(pairs.frames, pairs.labels):
        result = forward_pair(x_prev, x_curr, params, None)
        losses.append(result.loss.item())
        maxima += [float(sharpen(w, sp).data.max()) for w in result.w_per_head]
        picks[label].append([int(np.argmax(w.data)) for w in result.w_per_head])
    passed = evaluation.hard_pass(params, pairs)
    assert [len(chunk) for chunk, _ in passed] == [256, 44]
    assert abs(evaluation.hard_mode_mse(passed) - np.mean(losses)) < 1e-12
    assert abs(evaluation.sharpness(passed, 3.0) - np.mean(maxima)) < 1e-12
    for stats in evaluation.consistency(passed).factors:
        rows = picks[stats.factor]
        counts = np.bincount(np.ravel(rows), minlength=config.latent_dim)
        assert stats.modal_index == int(np.argmax(counts))
        assert stats.agreement == sum(stats.modal_index in row for row in rows) / len(rows)
        assert stats.count == len(rows)


# ---- traversal ----

def test_traverse_at_current_value_reproduces_reconstruction():
    params = ModelParams.initialize(SMALL, stream(3, "init"))
    frame = sprite_pairs(3, 1).x_curr[0]
    latent = encode(frame[None], params).data
    recon = decode(latent, params).data.reshape(1, 8, 8)
    frames = evaluation.traverse(params, frame, 2, [float(latent[0, 2])])
    assert np.array_equal(frames, recon)


def test_traverse_orders_frames_by_value():
    params = ModelParams.initialize(SMALL, stream(4, "init"))
    frame = sprite_pairs(4, 1).x_curr[0]
    values = [-2.0, -0.5, 0.0, 2.0]
    frames = evaluation.traverse(params, frame, 0, values)
    assert frames.shape == (len(values), 8, 8)
    assert not np.array_equal(frames[0], frames[-1])
    # Each row is the one-row decode of the latent with that value set.
    for value, decoded in zip(values, frames):
        edited = encode(frame[None], params).data
        edited[0, 0] = value
        one_row = decode(edited, params).data.reshape(8, 8)
        assert np.abs(decoded - one_row).max() <= 1e-12


def test_traverse_encodes_once_and_decodes_once(monkeypatch):
    params = ModelParams.initialize(SMALL, stream(4, "init"))
    calls = []

    def counted(name, fn):
        def wrapper(x, p):
            calls.append((name, np.shape(x)))
            return fn(x, p)
        monkeypatch.setattr(evaluation, name, wrapper)

    counted("encode", encode)
    counted("decode", decode)
    evaluation.traverse(params, sprite_pairs(4, 1).x_curr[0], 1, np.linspace(-1.0, 1.0, 5))
    assert calls == [("encode", (1, 64)), ("decode", (5, 6))]


def test_traverse_validation():
    params = ModelParams.zeros(SMALL)
    frame = np.zeros(64)
    with pytest.raises(ValueError, match="at least one"):
        evaluation.traverse(params, frame, 0, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        evaluation.traverse(params, frame, 0, [0.0, 0.0])
    # nan compares false with everything, so an order check alone would let it through.
    for values in ([1.0, float("nan")], [float("nan")], [float("inf")], [-float("inf"), 0.0]):
        with pytest.raises(ValueError, match="must be finite"):
            evaluation.traverse(params, frame, 0, values)
    with pytest.raises(ValueError, match="component"):
        evaluation.traverse(params, frame, 6, [0.0])


def test_observed_range_brackets_every_latent():
    params = ModelParams.initialize(SMALL, stream(5, "init"))
    pairs = sprite_pairs(5, 8)
    lo, hi = evaluation.observed_range(params, pairs, 1)
    values = [float(encode(x_curr, params).data[1]) for x_curr in pairs.x_curr]
    # One block matmul and per-frame vector matmuls may differ in the last bit.
    assert abs(lo - min(values)) <= 1e-12 and abs(hi - max(values)) <= 1e-12


def test_observed_range_rejects_components_outside_the_latent():
    params = ModelParams.zeros(SMALL)
    for component in (-1, SMALL.latent_dim):
        with pytest.raises(ValueError, match="out of range"):
            evaluation.observed_range(params, sprite_pairs(0, 2), component)


# ---- centroid ----

def test_centroid_of_uniform_frame_is_center():
    assert evaluation.centroid(np.ones((4, 4))) == (1.5, 1.5)


def test_centroid_of_single_pixel():
    frame = np.zeros((5, 5))
    frame[2, 3] = 0.7
    cx, cy = evaluation.centroid(frame)
    assert abs(cx - 3.0) < 1e-12 and abs(cy - 2.0) < 1e-12


def test_centroid_validation():
    for flat in (np.zeros(15), np.ones(16)):
        with pytest.raises(ValueError, match="square"):
            evaluation.centroid(flat)
    with pytest.raises(ValueError, match="square"):
        evaluation.centroid(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="intensity"):
        evaluation.centroid(np.zeros((4, 4)))


# ---- PGM files ----

def test_pgm_roundtrip_quantizes_within_half_step(tmp_path):
    rng = np.random.default_rng(0)
    frame = rng.random((6, 9))
    evaluation.write_pgm(frame, tmp_path / "f.pgm")
    back = evaluation.read_pgm(tmp_path / "f.pgm")
    assert back.shape == (6, 9)
    assert np.abs(back - frame).max() <= 1 / 510 + 1e-12


def test_pgm_header_layout(tmp_path):
    evaluation.write_pgm(np.zeros((3, 4)), tmp_path / "f.pgm")
    blob = (tmp_path / "f.pgm").read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12


def test_pgm_write_validation(tmp_path):
    with pytest.raises(ValueError, match="2-d"):
        evaluation.write_pgm(np.zeros(9), tmp_path / "f.pgm")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        evaluation.write_pgm(np.full((2, 2), 1.5), tmp_path / "f.pgm")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        evaluation.write_pgm(np.array([[np.nan, 0.5]]), tmp_path / "f.pgm")
    with pytest.raises(ValueError, match="write_pgm needs a non-empty frame"):
        evaluation.write_pgm(np.zeros((0, 0)), tmp_path / "f.pgm")
    assert not (tmp_path / "f.pgm").exists()


def test_pgm_read_validation(tmp_path):
    path = tmp_path / "f.pgm"
    for blob, message in [
            (b"P6\n2 2\n255\n" + bytes(12), "P5"),
            (b"P5\n2 2\n255\n" + bytes(3), "payload has 3 bytes, expected 4"),
            (b"P5\n2 2\n65535\n" + bytes(8), "maxval 65535"),
            (b"P5\n8 x\n255\n" + bytes(8), "bad PGM header"),
            (b"P5\n-1 -1\n255\n" + bytes(1), "bad PGM header"),
            (b"P5\n2 2\n255", "bad PGM header"),
            (b"P5\n2", "bad PGM header")]:
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=message) as info:
            evaluation.read_pgm(path)
        assert str(info.value).startswith(f"{path}: ")


def test_pgm_read_takes_any_whitespace_between_fields(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5 \t2\r\n1  255\n" + bytes([0, 255]))
    assert evaluation.read_pgm(path).tolist() == [[0.0, 1.0]]


# ---- losses and report ----

def test_hard_mode_mse_of_constant_decoder():
    # Zero parameters decode to 0.5 everywhere independent of the gating.
    params = ModelParams.zeros(SMALL)
    pairs = sprite_pairs(6, 6)
    expected = float(np.mean([np.mean((0.5 - x_curr) ** 2) for x_curr in pairs.x_curr]))
    assert abs(evaluation.hard_mode_mse(evaluation.hard_pass(params, pairs)) - expected) < 1e-15


def test_copy_baseline_mse_by_hand():
    pairs = Pairs(np.array([[[0.0, 1.0], [1.0, 1.0]],
                            [[0.5, 0.5], [0.5, 0.5]]]), np.array(["x", "y"]))
    assert evaluation.copy_baseline_mse(pairs) == 0.25
    with pytest.raises(ValueError, match="non-empty"):
        evaluation.copy_baseline_mse(pairs[:0])


def test_format_report_roundtrips_floats():
    params = ModelParams.zeros(SMALL)
    report = evaluation.consistency(evaluation.hard_pass(params, sprite_pairs(8, 6)))
    text = evaluation.format_report(3.5, 1 / 3, 0.01234567890123456789, 0.5, report)
    rows = dict(line.split("\t", 1) for line in text.splitlines()
                if line.count("\t") == 1)
    assert float(rows["sharpness"]) == 1 / 3
    assert rows["gamma"] == "3.5"
    assert rows["distinct_modal_indices"] == "false"
    assert "factor\tmodal_index\tagreement\tcount" in text
