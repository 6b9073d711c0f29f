"""Whole-file writes: a failed write leaves the previous file and no temporary."""

import numpy as np
import pytest

from framegate import atomic, cli, evaluation, sprites
from framegate.model import ModelConfig, ModelParams
from framegate.streams import stream
from framegate.trainer import Checkpoint, TrainConfig, save_checkpoint

SMALL = ModelConfig(image_side=8, latent_dim=6, enc_hidden=(16,), dec_hidden=(16,),
                    gate_hidden=8)


def test_write_bytes_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    atomic.write_bytes(path, b"first")
    atomic.write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_write_that_fails_midway_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(TypeError):
        atomic.write_bytes(path, "text is not bytes")
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("write", [lambda path: evaluation.write_pgm(np.zeros((2, 3)), path),
                                   lambda path: save_ckpt(path, 0)], ids=["pgm", "checkpoint"])
def test_missing_directory_is_reported_by_the_given_path(tmp_path, write):
    path = tmp_path / "nodir" / "out"
    with pytest.raises(FileNotFoundError) as caught:
        write(path)
    assert caught.value.filename == str(path)
    assert str(path) in str(caught.value) and ".tmp" not in str(caught.value)
    assert list(tmp_path.iterdir()) == []


def save_ckpt(path, seed):
    params = ModelParams.initialize(SMALL, stream(seed, "init"))
    save_checkpoint(Checkpoint(config=TrainConfig(model=SMALL), epoch=0, params=params), path)


def gen_data(out, seed):
    sprites.generate_dataset(out, count=3 + seed, seed=seed, n=8, s=2, levels=3)


def eval_report(out, seed):
    data, ckpts = out.parent / "data", out.parent / "ckpts"
    if seed == 1:  # what eval reads is written before the write meant to fail
        sprites.generate_dataset(data, count=20, seed=0, n=8, s=2, levels=3)
        ckpts.mkdir()
        for s in (1, 2):
            save_ckpt(ckpts / f"{s}.txt", s)
    code = cli.run(["eval", "--checkpoint", str(ckpts / f"{seed}.txt"), "--data", str(data),
                    "--out", str(out / "report.txt")])
    if code != 0:
        raise OSError(f"eval exited {code}")


def pgm(out, seed):
    evaluation.write_pgm(np.full((2, 3), 0.25 * seed), out / "frame.pgm")


@pytest.mark.parametrize("write", [lambda out, seed: save_ckpt(out / "ckpt.txt", seed),
                                   gen_data, eval_report, pgm],
                         ids=["checkpoint", "dataset", "eval-report", "pgm"])
def test_failed_rename_keeps_the_previous_file(tmp_path, monkeypatch, capsys, write):
    out = tmp_path / "out"
    out.mkdir()
    write(out, 1)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(OSError):
        write(out, 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    write(out, 2)
    assert {p.name: p.read_bytes() for p in out.iterdir()} != before
