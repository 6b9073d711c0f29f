"""Sprite rendering, pairing, and dataset serialization."""

import re

import numpy as np
import pytest

from conftest import count_draws

from framegate import sprites
from framegate.sprites import (BINARY_VERSION, FACTORS, FRAMES_NAME, MANIFEST_NAME, Pairs,
                               brightness_levels, generate_dataset, load_dataset, quantize,
                               read_manifest, render, sample_pair)
from framegate.streams import pair_words, stream


def rendered_pair(rng, factor, n, s, levels):
    """The (prev, curr) frames of one sampled pair, rendered unquantized."""
    values = brightness_levels(levels)
    return tuple(render(x, y, values[level], n, s)
                 for x, y, level in sample_pair(rng, factor, n, s, levels))


# ---- rendering ----

def test_render_places_square_at_expected_pixels():
    frame = render(2, 1, 0.6, n=5, s=2)
    lit = {1 * 5 + 2, 1 * 5 + 3, 2 * 5 + 2, 2 * 5 + 3}
    for idx in range(25):
        assert frame[idx] == (0.6 if idx in lit else 0.0)


def test_render_corner_positions():
    top_left = render(0, 0, 1.0, n=4, s=2)
    assert top_left[0] == 1.0 and top_left[5] == 1.0
    bottom_right = render(2, 2, 1.0, n=4, s=2)
    assert bottom_right[15] == 1.0 and bottom_right[10] == 1.0
    assert top_left.sum() == bottom_right.sum() == 4.0


def test_render_rejects_out_of_frame_sprite():
    with pytest.raises(ValueError, match="leaves the"):
        render(3, 0, 0.5, n=4, s=2)
    with pytest.raises(ValueError, match="leaves the"):
        render(0, -1, 0.5, n=4, s=2)


def test_render_rejects_bad_geometry_and_brightness():
    with pytest.raises(ValueError, match="does not fit"):
        render(0, 0, 0.5, n=4, s=5)
    with pytest.raises(ValueError, match="brightness"):
        render(0, 0, 1.2, n=4, s=2)


def test_brightness_levels_are_evenly_spaced():
    assert np.allclose(brightness_levels(5), [0.2, 0.4, 0.6, 0.8, 1.0])
    assert np.allclose(brightness_levels(2), [0.2, 1.0])
    with pytest.raises(ValueError, match="levels"):
        brightness_levels(1)


def test_brightness_levels_each_quantize_to_their_own_byte():
    assert len(set(quantize(brightness_levels(205)).tolist())) == 205
    with pytest.raises(ValueError, match="206 brightness levels do not fit 8-bit frames"):
        brightness_levels(206)


# ---- pair sampling ----

def test_sample_pair_changes_exactly_the_named_factor():
    for trial in range(100):
        factor = FACTORS[trial % 3]
        x_prev, x_curr = rendered_pair(np.random.default_rng(trial), factor, n=8, s=3, levels=4)
        assert not np.array_equal(x_prev, x_curr)
        if factor == "brightness":
            # Same support, different level.
            assert np.array_equal(x_prev > 0, x_curr > 0)
            assert x_prev.max() != x_curr.max()
        else:
            # Same brightness, moved support.
            assert x_prev.max() == x_curr.max()
            assert not np.array_equal(x_prev > 0, x_curr > 0)


def test_sample_pair_x_move_stays_in_row():
    # A pure horizontal move keeps the set of occupied rows fixed.
    for trial in range(50):
        x_prev, x_curr = rendered_pair(np.random.default_rng(trial), "x", n=8, s=2, levels=3)
        prev_rows = np.where(x_prev.reshape(8, 8).any(axis=1))[0]
        curr_rows = np.where(x_curr.reshape(8, 8).any(axis=1))[0]
        assert np.array_equal(prev_rows, curr_rows)


def test_sample_pair_rejects_unknown_factor_and_frozen_geometry():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown factor"):
        sample_pair(rng, "rotation", n=8, s=2, levels=3)
    with pytest.raises(ValueError, match="no room"):
        sample_pair(rng, "x", n=4, s=4, levels=3)
    with pytest.raises(ValueError, match="sprite side 0 does not fit"):
        sample_pair(rng, "x", n=4, s=0, levels=3)
    with pytest.raises(ValueError, match="at least 2 brightness levels"):
        sample_pair(rng, "x", n=8, s=2, levels=1)


def test_sample_pair_draws_integers_and_changes_one_of_them():
    for trial in range(30):
        factor = FACTORS[trial % 3]
        prev, curr = sample_pair(np.random.default_rng(trial), factor, n=8, s=3, levels=4)
        for draw in (prev, curr):
            assert type(draw) is tuple and [type(v) for v in draw] == [int, int, int]
            assert 0 <= draw[0] <= 5 and 0 <= draw[1] <= 5 and 0 <= draw[2] < 4
        changed = [i for i in range(3) if prev[i] != curr[i]]
        assert changed == [FACTORS.index(factor)]


# ---- dataset files ----

def test_generate_is_byte_identical_across_runs(tmp_path):
    generate_dataset(tmp_path / "a", count=12, seed=5, n=8, s=2, levels=3)
    generate_dataset(tmp_path / "b", count=12, seed=5, n=8, s=2, levels=3)
    for name in (MANIFEST_NAME, FRAMES_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_prefix_property(tmp_path):
    # Pair i depends only on (seed, i), so a shorter dataset is a prefix.
    generate_dataset(tmp_path / "short", count=5, seed=9, n=8, s=2, levels=3)
    generate_dataset(tmp_path / "long", count=10, seed=9, n=8, s=2, levels=3)
    short = (tmp_path / "short" / FRAMES_NAME).read_bytes()
    long = (tmp_path / "long" / FRAMES_NAME).read_bytes()
    assert long[:len(short)] == short


@pytest.mark.parametrize("levels", [1, 206, 10**12])
def test_generate_refuses_bad_levels_before_drawing(tmp_path, monkeypatch, levels):
    calls = count_draws(monkeypatch)
    with pytest.raises(ValueError, match="brightness levels"):
        generate_dataset(tmp_path / "d", count=3, seed=0, n=8, s=2, levels=levels)
    assert calls == [] and not (tmp_path / "d").exists()


@pytest.mark.parametrize("n,s,message", [(8, 0, "sprite side 0 does not fit"),
                                         (8, -1, "sprite side -1 does not fit"),
                                         (8, 8, "frame side 8 with sprite side 8 leaves no room"),
                                         (8, 9, "frame side 8 with sprite side 9 leaves no room")])
def test_generate_refuses_bad_geometry_before_allocating(tmp_path, monkeypatch, n, s, message):
    # 10**12 pairs cannot be allocated: the geometry is refused before the buffer.
    calls = count_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        generate_dataset(tmp_path / "d", count=10**12, seed=0, n=n, s=s, levels=3)
    assert calls == [] and not (tmp_path / "d").exists()


def test_bounded_draw_matches_generator_integers():
    # numpy reads words in order and draws again on a rejected word, so its
    # draws are the bounded values of the words it does not reject.
    for high in range(1, 257):
        words = stream(high, "words").bit_generator.random_raw(32)
        words = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).reshape(-1).astype(np.uint32)
        drawn, rejected = sprites._bounded(words, np.uint64(high))
        rng = stream(high, "words")
        expected = [int(rng.integers(0, high)) for _ in range(48)]
        assert drawn[~rejected][:48].tolist() == expected, high


def test_rows_numpy_would_redraw_come_from_sample_pair(tmp_path, monkeypatch):
    # Zero words are rejected by every bound that is not a power of two, so
    # with 7 positions and 3 levels every pair is drawn by sample_pair from
    # its own stream, and the bytes are those of the array pass.
    generate_dataset(tmp_path / "block", count=13, seed=3, n=8, s=2, levels=3)
    drawn = count_draws(monkeypatch)
    monkeypatch.setattr(sprites, "pair_words", lambda seed, count: np.zeros((count, 4), np.uint32))
    generate_dataset(tmp_path / "redrawn", count=13, seed=3, n=8, s=2, levels=3)
    assert len(drawn) == 13
    for name in (MANIFEST_NAME, FRAMES_NAME):
        assert (tmp_path / "redrawn" / name).read_bytes() == (tmp_path / "block" / name).read_bytes()


def test_generate_refuses_words_that_differ_from_numpys_stream(tmp_path, monkeypatch):
    # Each pair given the next pair's words stands for a numpy whose
    # Generator stream differs from the one emulated.
    monkeypatch.setattr(sprites, "pair_words", lambda seed, count: pair_words(seed, count + 1)[1:])
    with pytest.raises(RuntimeError, match=r"^pair 0 draws .* from numpy's emulated stream"):
        generate_dataset(tmp_path / "d", count=13, seed=3, n=8, s=2, levels=3)
    assert not (tmp_path / "d").exists()


def test_labels_cycle_through_factors(tmp_path):
    generate_dataset(tmp_path, count=7, seed=1, n=8, s=2, levels=3)
    n, count, labels = read_manifest(tmp_path / MANIFEST_NAME)
    assert (n, count) == (8, 7)
    assert labels == ["x", "y", "brightness", "x", "y", "brightness", "x"]
    pairs = load_dataset(tmp_path)
    assert pairs.labels.tolist() == labels


@pytest.mark.parametrize("n,s,levels,seed", [(8, 2, 3, 3), (16, 4, 5, 3), (5, 1, 9, 3),
                                               (8, 7, 2, 3), (8, 2, 3, 2**32 + 1),
                                               (16, 4, 205, 3)],
                         ids=["8-2-3", "16-4-5", "5-1-9", "8-7-2", "8-2-3-two-word-seed",
                              "16-4-205"])
def test_frames_match_rendered_and_quantized_pairs_exactly(tmp_path, n, s, levels, seed):
    # The reference is the per-frame render, with each pair drawn from
    # numpy's own SeedSequence, so an off-by-one in the dataset raster or a
    # wrong pair stream shows as a differing byte.
    generate_dataset(tmp_path, count=13, seed=seed, n=n, s=s, levels=levels)
    expected = bytearray([BINARY_VERSION])
    values = brightness_levels(levels)
    for i in range(13):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for x, y, level in sample_pair(rng, FACTORS[i % 3], n, s, levels):
            expected += quantize(render(x, y, values[level], n, s)).tobytes()
    assert (tmp_path / FRAMES_NAME).read_bytes() == bytes(expected)


def test_quantization_error_is_bounded(tmp_path):
    generate_dataset(tmp_path, count=9, seed=4, n=8, s=2, levels=3)
    loaded = load_dataset(tmp_path)
    for i, pair in enumerate(zip(loaded.x_prev, loaded.x_curr)):
        fresh = rendered_pair(stream(4, i), FACTORS[i % 3], n=8, s=2, levels=3)
        assert np.abs(np.stack(pair) - np.stack(fresh)).max() <= 1 / 510 + 1e-12


def test_loaded_frames_are_the_stored_bytes(tmp_path):
    generate_dataset(tmp_path, count=3, seed=2, n=8, s=3, levels=4)
    raw = np.frombuffer((tmp_path / FRAMES_NAME).read_bytes(), dtype=np.uint8,
                        offset=1).reshape(3, 2, 64)
    pairs = load_dataset(tmp_path)
    assert len(pairs) == 3
    assert pairs.frames.dtype == np.uint8 and pairs.frames.flags.owndata
    assert np.array_equal(pairs.frames, raw)
    for frames, stored in ((pairs.x_prev, raw[:, 0]), (pairs.x_curr, raw[:, 1])):
        assert frames.dtype == np.float64
        assert frames.shape == (3, 64)
        assert frames.min() >= 0.0 and frames.max() <= 1.0
        # Bit for bit the stored bytes over 255, as `intensities` gives them.
        assert frames.tobytes() == (stored.astype(np.float64) / 255.0).tobytes()
        assert frames.tobytes() == sprites.intensities(stored).tobytes()
    # Each conversion is a fresh array: a write into it leaves the bytes alone.
    pairs.x_prev[0] = 0.5
    assert np.array_equal(pairs.frames, raw)


def test_stacked_block_is_both_conversions_in_one_c_contiguous_array(tmp_path):
    # A training step reads both frames of a batch from one block, converted
    # once from the stored bytes with the same division as `x_prev`/`x_curr`.
    generate_dataset(tmp_path, count=7, seed=2, n=8, s=3, levels=4)
    pairs = load_dataset(tmp_path)
    for chosen in (pairs, pairs[np.array([6, 0, 4])], pairs[2:5]):
        block = chosen.stacked
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert block.shape == (2, len(chosen), 64)
        assert block.tobytes() == np.stack((chosen.x_prev, chosen.x_curr)).tobytes()
        # Its reshape to the encoder's (2·batch, pixels) rows is a view.
        assert np.shares_memory(block.reshape(2 * len(chosen), 64), block)


def test_pairs_select_rows_with_their_labels(tmp_path):
    generate_dataset(tmp_path, count=7, seed=2, n=8, s=3, levels=4)
    pairs = load_dataset(tmp_path)
    head = pairs[2:5]
    assert len(head) == 3 and np.shares_memory(head.frames, pairs.frames)
    assert np.array_equal(head.frames, pairs.frames[2:5])
    assert head.labels.tolist() == ["brightness", "x", "y"]
    picked = pairs[np.array([6, 0, 4])]
    assert np.array_equal(picked.frames, pairs.frames[[6, 0, 4]])
    assert np.array_equal(picked.x_prev, pairs.x_prev[[6, 0, 4]])
    assert np.array_equal(picked.x_curr, pairs.x_curr[[6, 0, 4]])
    assert picked.labels.tolist() == ["x", "x", "y"]
    with pytest.raises(TypeError, match="single index"):
        pairs[3]


@pytest.mark.parametrize("frames,got", [
    (np.zeros((3, 2, 4)), "float64 of shape (3, 2, 4)"),
    (np.zeros((3, 2, 4), dtype=np.int64), "int64 of shape (3, 2, 4)"),
    (np.zeros((3, 8), dtype=np.uint8), "uint8 of shape (3, 8)"),
    (np.zeros((3, 1, 4), dtype=np.uint8), "uint8 of shape (3, 1, 4)"),
    ([[[0] * 4] * 2] * 3, "list of shape (3, 2, 4)"),
], ids=["float", "int64", "flat", "one-frame", "list"])
def test_pairs_refuse_frames_other_than_uint8_pairs(frames, got):
    # A float array would otherwise read as bytes: intensities near 0.
    with pytest.raises(ValueError, match=re.escape(
            f"frames must be a uint8 (count, 2, pixels) array, got {got}")):
        Pairs(frames, np.array(["x", "y", "x"]))


def test_pairs_refuse_labels_of_another_length():
    frames = np.zeros((3, 2, 4), dtype=np.uint8)
    for labels in (np.array(["x", "y"]), np.array(["x"] * 4), np.array([["x", "y", "x"]])):
        with pytest.raises(ValueError, match=re.escape(
                f"labels of shape {labels.shape} for 3 pairs")):
            Pairs(frames, labels)


def test_load_dataset_selects_rows(tmp_path):
    generate_dataset(tmp_path, count=7, seed=2, n=8, s=3, levels=4)
    pairs = load_dataset(tmp_path)
    for rows in (slice(2, 5), slice(6, 7), slice(7, 7), [6, 0, 4]):
        loaded = load_dataset(tmp_path, rows)
        assert np.array_equal(loaded.frames, pairs.frames[rows])
        assert loaded.labels.tolist() == pairs.labels[rows].tolist()
        # A plain in-memory array: nothing keeps the frames file mapped.
        assert type(loaded.frames) is np.ndarray and loaded.frames.base is None


def test_generate_rejects_nonpositive_count(tmp_path):
    with pytest.raises(ValueError, match="count"):
        generate_dataset(tmp_path, count=0, seed=0)


def test_load_rejects_wrong_version_byte(tmp_path):
    generate_dataset(tmp_path, count=2, seed=0, n=8, s=2, levels=3)
    blob = bytearray((tmp_path / FRAMES_NAME).read_bytes())
    blob[0] = 99
    (tmp_path / FRAMES_NAME).write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"{FRAMES_NAME}: unknown binary version 99"):
        load_dataset(tmp_path)


def test_load_rejects_truncated_binary(tmp_path):
    generate_dataset(tmp_path, count=2, seed=0, n=8, s=2, levels=3)
    blob = (tmp_path / FRAMES_NAME).read_bytes()
    (tmp_path / FRAMES_NAME).write_bytes(blob[:-10])
    with pytest.raises(ValueError, match="bytes"):
        load_dataset(tmp_path)
    (tmp_path / FRAMES_NAME).write_bytes(b"")
    with pytest.raises(ValueError, match=f"{FRAMES_NAME}: binary has 0 bytes"):
        load_dataset(tmp_path)


def test_manifest_validation(tmp_path):
    generate_dataset(tmp_path, count=2, seed=0, n=8, s=2, levels=3)
    manifest = tmp_path / MANIFEST_NAME
    original = manifest.read_text()

    manifest.write_text(original.replace("n=8\n", ""))
    with pytest.raises(ValueError, match="missing"):
        read_manifest(manifest)

    manifest.write_text("no separators here\n")
    with pytest.raises(ValueError, match="key=value"):
        read_manifest(manifest)

    manifest.write_text(original + "count=2\n")
    with pytest.raises(ValueError, match="duplicate key 'count'"):
        read_manifest(manifest)

    manifest.write_text(original + "frames=2\n")
    with pytest.raises(ValueError, match="unknown key 'frames'"):
        read_manifest(manifest)


@pytest.mark.parametrize("old,new,message", [
    ("n=8\n", "n=-8\n", "n=-8 must be >= 2"),
    ("s=2\n", "s=0\n", "s=0 must be in"),
    ("s=2\n", "s=99\n", "s=99 must be in"),
    ("L=3\n", "L=-4\n", "L=-4 must be >= 2"),
    ("count=2\n", "count=0\n", "count=0 must be >= 1"),
    ("version=1\n", "version=7\n", "unknown dataset version 7"),
    ("count=2\n", "count=3\n", "manifest lists 2 labels for count=3"),
    ("labels=x,y", "labels=x,spin", "manifest contains unknown factor label 'spin'")],
    ids=["n", "s-low", "s-high", "L", "count", "version", "label-count", "unknown-label"])
def test_manifest_refuses_impossible_geometry(tmp_path, old, new, message):
    generate_dataset(tmp_path, count=2, seed=0, n=8, s=2, levels=3)
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text(manifest.read_text().replace(old, new))
    with pytest.raises(ValueError, match=f"{MANIFEST_NAME}: {message}"):
        read_manifest(manifest)
