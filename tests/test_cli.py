"""Command line behavior: subcommands, config files, exit codes."""

import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import count_draws

import framegate
from framegate import cli, evaluation, keyvalue, sprites
from framegate.model import ModelConfig, ModelParams, forward_pair
from framegate.streams import stream
from framegate.trainer import (Checkpoint, TrainConfig, from_settings, load_checkpoint,
                               save_checkpoint, settings, split_validation)

TINY_CONFIG = """
# small enough to train in a test
latent_dim = 6
num_heads = 1
enc_hidden = 16
dec_hidden = 16
gate_hidden = 8
epochs = 2
batch_size = 4
checkpoint_every = 0
seed = 1
"""


def gen(tmp_path, name="ds", count=20, seed=4):
    out = tmp_path / name
    code = cli.run(["gen-data", "--out", str(out), "--seed", str(seed),
                    "--count", str(count), "--side", "8", "--sprite", "2",
                    "--levels", "3"])
    assert code == 0
    return out


def train(tmp_path, data):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "run"
    assert cli.run(["train", "--config", str(cfg), "--data", str(data),
                    "--out", str(out)]) == 0
    return out


# ---- config parsing ----

def test_parse_config_accepts_comments_and_lists():
    config = cli.parse_config_text(TINY_CONFIG)
    assert config.latent_dim == 6
    assert config.enc_hidden == (16,)
    assert config.epochs == 2
    assert cli.parse_config_text("enc_hidden = 128, 64\n").enc_hidden == (128, 64)
    assert cli.parse_config_text("enc_hidden =\n").enc_hidden == ()
    assert cli.parse_config_text("") == cli.RunConfig()


def test_parse_config_reports_line_numbers():
    with pytest.raises(ValueError, match="<config>:2.*unknown key"):
        cli.parse_config_text("seed = 1\nwidth = 3\n")
    with pytest.raises(ValueError, match=":1.*key=value"):
        cli.parse_config_text("just words\n")
    with pytest.raises(ValueError, match=":3.*duplicate"):
        cli.parse_config_text("seed = 1\n\nseed = 2\n")
    with pytest.raises(ValueError, match=":1.*bad value.*'lr'"):
        cli.parse_config_text("lr = fast\n")
    with pytest.raises(ValueError, match=":2.*bad value.*'enc_hidden'"):
        cli.parse_config_text("seed = 1\nenc_hidden = 128,,64\n")
    with pytest.raises(ValueError, match=":1.*bad value.*'enc_hidden'"):
        cli.parse_config_text("enc_hidden = 128,\n")


def test_config_file_cannot_set_the_frame_side():
    # The dataset alone fixes the frame side: `train_config(side)` takes it.
    with pytest.raises(ValueError, match="^cfg:1: unknown key 'image_side'$"):
        cli.parse_config_text("image_side = 8\n", "cfg")


def test_settings_schema_has_one_source():
    config = TrainConfig(model=ModelConfig(image_side=8, latent_dim=6, num_heads=2,
                                           enc_hidden=(24, 12), dec_hidden=(10,),
                                           gate_hidden=5),
                         gamma0=3.0, gamma_slope=0.5, sigma=0.0,
                         lr=0.01, batch_size=7, checkpoint_every=3, seed=9)
    flat = settings(config)
    assert from_settings(flat) == config
    assert list(flat) == [*(f.name for f in fields(ModelConfig)),
                          *(f.name for f in fields(TrainConfig) if f.name != "model")]

    # RunConfig is built from the settings keys: `epochs` leads, then every
    # key but `image_side` in order with its owning dataclass's default.
    defaults = settings(TrainConfig())
    del defaults["image_side"]
    assert [(f.name, f.default) for f in fields(cli.RunConfig)] == [
        ("epochs", 60), *defaults.items()]


def test_run_config_replace_gives_the_direct_train_config():
    config = replace(cli.RunConfig(seed=1), batch_size=256, num_heads=2).train_config(32)
    assert config == TrainConfig(model=ModelConfig(image_side=32, num_heads=2),
                                 batch_size=256, seed=1)


def test_config_file_sets_every_setting():
    values = {"latent_dim": 6, "num_heads": 2, "enc_hidden": (24, 12),
              "dec_hidden": (10,), "gate_hidden": 5, "gamma0": 3.0, "gamma_slope": 0.5,
              "sigma": 0.0, "lr": 0.01, "beta1": 0.5, "beta2": 0.75, "eps": 1e-6,
              "batch_size": 7, "checkpoint_every": 3, "seed": 9}
    defaults = settings(TrainConfig())
    del defaults["image_side"]  # the dataset's, passed to train_config
    assert list(values) == list(defaults)
    assert all(values[key] != defaults[key] for key in values)
    read = settings(cli.parse_config_text(keyvalue.write(values)).train_config(8))
    assert [(key, type(value), value) for key, value in read.items()] == \
        [(key, type(value), value) for key, value in {"image_side": 8, **values}.items()]


# ---- exit codes ----

def test_bad_arguments_exit_2(capsys):
    assert cli.run([]) == 2
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["gen-data", "--out", "x"]) == 2  # missing required flags
    capsys.readouterr()


def test_keyboard_interrupt_propagates_out_of_run(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_gen_data", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.run(["gen-data", "--out", "x", "--seed", "0", "--count", "1"])


def test_runs_in_one_process_share_the_parser_and_no_parsed_state(monkeypatch):
    seen = []
    for name in ("_cmd_gen_data", "_cmd_eval"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    assert cli.build_parser() is cli.build_parser()
    assert cli.run(["gen-data", "--out", "x", "--seed", "3", "--count", "5", "--side", "9"]) == 0
    assert cli.run(["eval", "--checkpoint", "c", "--data", "d"]) == 0
    assert cli.run(["gen-data", "--out", "y", "--seed", "4", "--count", "6"]) == 0
    made = inspect.signature(sprites.generate_dataset).parameters
    assert seen == [
        {"command": "gen-data", "out": "x", "seed": 3, "count": 5, "side": 9,
         "sprite": made["s"].default, "levels": made["levels"].default},
        {"command": "eval", "checkpoint": "c", "data": "d", "out": None},
        {"command": "gen-data", "out": "y", "seed": 4, "count": 6, "side": made["n"].default,
         "sprite": made["s"].default, "levels": made["levels"].default}]


def test_runtime_failures_exit_1(tmp_path, capsys):
    code = cli.run(["eval", "--checkpoint", str(tmp_path / "missing.txt"),
                    "--data", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert cli.run(["gen-data", "--out", str(tmp_path / "d"), "--seed", "0",
                    "--count", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("line,key", [
    ("sigma = nan", "sigma"), ("eps = -1.0", "eps"), ("lr = nan", "lr"),
    ("gamma0 = inf", "gamma0"), ("beta1 = 1.0", "beta1"), ("batch_size = 0", "batch_size"),
    ("seed = -1", "seed"), ("checkpoint_every = -3", "checkpoint_every")])
def test_train_refuses_bad_settings_before_writing(tmp_path, capsys, line, key):
    data = gen(tmp_path)
    cfg = tmp_path / "run.cfg"
    kept = [text for text in TINY_CONFIG.splitlines() if not text.startswith(("epochs", key))]
    cfg.write_text("\n".join([*kept, "epochs = 1", line]) + "\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.run(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
    assert re.search(f"'?{key}'? must be", capsys.readouterr().err)
    assert not out.exists()


def test_train_refuses_a_model_it_cannot_allocate_before_writing(tmp_path, capsys, monkeypatch):
    # A 10^7 x 10^7 float64 weight needs 728 TiB, and 10^6 heads on a 10^6-wide
    # latent need 182 TiB: past a 47-bit address space, so the allocation fails
    # on any host. `fit` makes its directory only after it, and the parameters
    # are sized without listing every head.
    shapes = ModelParams.shapes

    def listed(config):
        assert config.num_heads < 1000000, "listed every head of a huge model"
        return shapes(config)

    monkeypatch.setattr(ModelParams, "shapes", staticmethod(listed))
    data = gen(tmp_path)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "run"
    for huge in ({"enc_hidden": "10000000,10000000"}, {"latent_dim": "1000000", "num_heads": "1000000"}):
        kept = [text for text in TINY_CONFIG.splitlines() if text.split(" = ")[0] not in huge]
        cfg.write_text("\n".join([*kept, *(f"{key} = {value}" for key, value in huge.items())]) + "\n")
        capsys.readouterr()
        assert cli.run(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


def test_train_refuses_an_empty_dataset_before_writing(tmp_path, capsys):
    data = gen(tmp_path, count=3)
    manifest = data / sprites.MANIFEST_NAME
    manifest.write_text(manifest.read_text().replace("count=3\n", "count=0\n"))
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.run(["train", "--data", str(data), "--out", str(out)]) == 1
    assert "count=0 must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---- gen-data ----

def test_gen_data_is_deterministic(tmp_path, capsys):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    capsys.readouterr()
    assert (a / "frames.bin").read_bytes() == (b / "frames.bin").read_bytes()
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


def test_module_entry_point(tmp_path):
    # The child imports the same framegate as this process, installed or not.
    source = str(Path(framegate.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "framegate", "gen-data",
                           "--out", str(tmp_path / "ds"), "--seed", "1",
                           "--count", "3", "--side", "8", "--sprite", "2",
                           "--levels", "3"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "3 pairs" in proc.stdout


SEED0_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "seed0_outputs.sh"


def test_seed0_outputs_refuses_a_source_without_framegate(tmp_path):
    # Otherwise `python3 -m framegate` would run whatever copy is installed.
    out = tmp_path / "out"
    proc = subprocess.run(["sh", str(SEED0_OUTPUTS), str(tmp_path), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "holds no src/framegate/__init__.py" in proc.stderr
    assert not out.exists()


def test_seed0_outputs_refuses_a_non_empty_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept").write_text("x")
    proc = subprocess.run(["sh", str(SEED0_OUTPUTS), str(SEED0_OUTPUTS.parents[1]), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "is not empty" in proc.stderr
    assert [p.name for p in out.iterdir()] == ["kept"]


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must be >= 0"),
    (["--seed", "0", "--sprite", "9"], "sprite side 9"),
    (["--seed", "0", "--sprite", "0"], "sprite side 0"),
    (["--seed", "0", "--sprite", "-1"], "sprite side -1"),
    (["--seed", "0", "--levels", "1"], "at least 2 brightness levels"),
    (["--seed", "0", "--levels", "206"], "206 brightness levels do not fit 8-bit frames"),
    # More levels than byte values: refused before any array of that length is made.
    (["--seed", "0", "--levels", "1000000000000"],
     "1000000000000 brightness levels do not fit 8-bit frames")],
    ids=["seed", "sprite", "sprite-zero", "sprite-negative", "levels", "levels-too-many",
         "levels-beyond-bytes"])
def test_gen_data_refuses_bad_arguments_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "ds"
    assert cli.run(["gen-data", "--out", str(out), "--count", "3", "--side", "8", *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_allocates_the_frames_before_drawing(tmp_path, capsys, monkeypatch):
    # 10^12 pairs of 16x16 frames need 466 TiB: the frames buffer is refused
    # before a label list of that length is built or any pair is drawn.
    calls = count_draws(monkeypatch)
    out = tmp_path / "ds"
    assert cli.run(["gen-data", "--out", str(out), "--seed", "0",
                    "--count", "1000000000000"]) == 1
    assert "Unable to allocate" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_gen_data_flag_defaults_come_from_generate_dataset(capsys):
    args = cli.build_parser().parse_args(["gen-data", "--out", "x", "--seed", "0",
                                          "--count", "1"])
    made = inspect.signature(sprites.generate_dataset).parameters
    defaults = (made["n"].default, made["s"].default, made["levels"].default)
    assert (args.side, args.sprite, args.levels) == defaults
    assert cli.run(["gen-data", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    for flag, value in zip(("side", "sprite", "levels"), defaults):
        assert f"--{flag} {flag.upper()}" in usage and f"(default: {value})" in usage


# ---- train / eval / traverse ----

def test_train_writes_checkpoints_and_log(tmp_path, capsys):
    data = gen(tmp_path)
    out = train(tmp_path, data)
    capsys.readouterr()
    assert (out / "checkpoint_final.txt").exists()
    assert len((out / "log.tsv").read_text().splitlines()) == 2
    final = load_checkpoint(out / "checkpoint_final.txt")
    assert final.epoch == 2 and final.config.model.latent_dim == 6


def test_eval_report_on_untrained_gate(tmp_path, capsys):
    # A zero-parameter model gates uniformly over 32 components, so the
    # reported sharpness is exactly 1/32 and reconstruction is flat 0.5.
    data = gen(tmp_path, count=20, seed=2)
    capsys.readouterr()
    config = cli.RunConfig(latent_dim=32, enc_hidden=(16,),
                           dec_hidden=(16,), gate_hidden=8).train_config(8)
    ckpt = Checkpoint(config=config, epoch=0, params=ModelParams.zeros(config.model))
    path = tmp_path / "zero.txt"
    save_checkpoint(ckpt, path)
    report_path = tmp_path / "report.txt"
    assert cli.run(["eval", "--checkpoint", str(path), "--data", str(data),
                    "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert report_path.read_text() == out
    rows = dict(line.split("\t", 1) for line in out.splitlines()
                if line.count("\t") == 1)
    assert float(rows["sharpness"]) == 0.03125
    assert float(rows["val_mse"]) > 0.0
    assert rows["distinct_modal_indices"] == "false"


def test_eval_default_report_lands_beside_checkpoint(tmp_path, capsys):
    data = gen(tmp_path)
    out = train(tmp_path, data)
    assert cli.run(["eval", "--checkpoint", str(out / "checkpoint_final.txt"),
                    "--data", str(data)]) == 0
    capsys.readouterr()
    assert (out / "eval_report.txt").exists()


def test_eval_creates_the_report_directory(tmp_path, capsys):
    data = gen(tmp_path)
    out = train(tmp_path, data)
    report = tmp_path / "nodir" / "rep.txt"
    capsys.readouterr()
    assert cli.run(["eval", "--checkpoint", str(out / "checkpoint_final.txt"),
                    "--data", str(data), "--out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def test_traverse_writes_montage_and_steps(tmp_path, capsys):
    data = gen(tmp_path)
    out = train(tmp_path, data)
    assert cli.run(["traverse", "--checkpoint", str(out / "checkpoint_final.txt"),
                    "--data", str(data), "--pair-index", "0", "--component", "0",
                    "--steps", "4", "--out", str(out / "viz")]) == 0
    capsys.readouterr()
    montage = evaluation.read_pgm(out / "viz" / "traverse_c0.pgm")
    assert montage.shape == (4 * 8, 8)
    steps = [evaluation.read_pgm(out / "viz" / f"traverse_c0_step{i}.pgm")
             for i in range(4)]
    assert np.array_equal(np.concatenate(steps, axis=0), montage)


def test_traverse_rejects_constant_component(tmp_path, capsys):
    # All-zero parameters encode every frame to the same latent, so there is
    # no observed range to sweep.
    data = gen(tmp_path)
    config = cli.RunConfig(latent_dim=6, enc_hidden=(16,),
                           dec_hidden=(16,), gate_hidden=8).train_config(8)
    path = tmp_path / "zero.txt"
    save_checkpoint(Checkpoint(config=config, epoch=0, params=ModelParams.zeros(config.model)),
                    path)
    assert cli.run(["traverse", "--checkpoint", str(path), "--data", str(data),
                    "--pair-index", "0", "--component", "0"]) == 1
    assert "constant" in capsys.readouterr().err


def test_traverse_argument_validation(tmp_path, capsys):
    data = gen(tmp_path)
    out = train(tmp_path, data)
    ckpt = str(out / "checkpoint_final.txt")
    assert cli.run(["traverse", "--checkpoint", ckpt, "--data", str(data),
                    "--pair-index", "99", "--component", "0"]) == 1
    assert cli.run(["traverse", "--checkpoint", ckpt, "--data", str(data),
                    "--pair-index", "0", "--component", "0", "--steps", "1"]) == 1
    capsys.readouterr()
    # Refused before linspace allocates the sweep: no numpy allocation error, no PGM.
    assert cli.run(["traverse", "--checkpoint", ckpt, "--data", str(data), "--pair-index", "0",
                    "--component", "0", "--steps", "1000000000000"]) == 1
    assert "at most 1000 steps (one PGM each), got 1000000000000" in capsys.readouterr().err
    assert not list(out.glob("*.pgm"))
    for component in ("99", "-1"):
        assert cli.run(["traverse", "--checkpoint", ckpt, "--data", str(data),
                        "--pair-index", "0", "--component", component]) == 1
        assert f"component {component} out of range for latent_dim 6" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval"], ["traverse", "--pair-index", "0", "--component", "0"]])
def test_eval_and_traverse_refuse_a_dataset_of_another_frame_size(tmp_path, capsys, command):
    ckpt = train(tmp_path, gen(tmp_path)) / "checkpoint_final.txt"
    other = tmp_path / "d10"
    assert cli.run(["gen-data", "--out", str(other), "--seed", "0", "--count", "20",
                    "--side", "10", "--sprite", "2"]) == 0
    written = sorted(ckpt.parent.iterdir())
    capsys.readouterr()
    assert cli.run([command[0], "--checkpoint", str(ckpt), "--data", str(other),
                    *command[1:]]) == 1
    assert (f"error: checkpoint {ckpt} image_side=8 does not match dataset {other} n=10"
            in capsys.readouterr().err)
    assert sorted(ckpt.parent.iterdir()) == written


def test_eval_rejects_non_finite_checkpoint(tmp_path, capsys):
    data = gen(tmp_path)
    ckpt = train(tmp_path, data) / "checkpoint_final.txt"
    trained = load_checkpoint(ckpt)
    trained.params.arrays["enc0.b"][:2] = [np.nan, np.inf]
    save_checkpoint(trained, ckpt)
    capsys.readouterr()
    assert cli.run(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "'enc0.b' holds a non-finite value" in err and err.count(str(ckpt)) == 1
    assert not (ckpt.parent / "eval_report.txt").exists()


def test_eval_runs_one_hard_pass(tmp_path, capsys, monkeypatch):
    # 3,000 pairs hold out 300 for validation: two row blocks, so one pass
    # over them calls forward_pair twice.
    data = gen(tmp_path, count=3000)
    config = cli.RunConfig(latent_dim=6, enc_hidden=(16,),
                           dec_hidden=(16,), gate_hidden=8).train_config(8)
    path = tmp_path / "init.txt"
    save_checkpoint(Checkpoint(config=config, epoch=0,
                               params=ModelParams.initialize(config.model, stream(0, "init"))),
                    path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return forward_pair(*args, **kwargs)

    monkeypatch.setattr(evaluation, "forward_pair", counted)
    assert cli.run(["eval", "--checkpoint", str(path), "--data", str(data)]) == 0
    capsys.readouterr()
    assert calls == [256, 44]


def test_eval_and_traverse_load_only_the_pairs_they_use(tmp_path, capsys, monkeypatch):
    data = gen(tmp_path, count=30)
    out = train(tmp_path, data)
    ckpt = out / "checkpoint_final.txt"
    load_dataset = sprites.load_dataset
    loaded = []

    def recorded(path, rows=slice(None)):
        pairs = load_dataset(path, rows)
        loaded.append(len(pairs))
        return pairs

    monkeypatch.setattr(sprites, "load_dataset", recorded)
    assert cli.run(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "report.txt")]) == 0
    assert loaded == [3]
    # The report is the one the whole dataset's validation split gives.
    trained, val = load_checkpoint(ckpt), split_validation(load_dataset(data))[1]
    passed, gamma = evaluation.hard_pass(trained.params, val), trained.gamma
    assert (tmp_path / "report.txt").read_text() == evaluation.format_report(
        gamma, evaluation.sharpness(passed, gamma), evaluation.hard_mode_mse(passed),
        evaluation.copy_baseline_mse(val), evaluation.consistency(passed))
    loaded.clear()
    assert cli.run(["traverse", "--checkpoint", str(ckpt), "--data", str(data),
                    "--pair-index", "4", "--component", "0", "--out", str(tmp_path / "a")]) == 0
    assert loaded == [3, 1]
    # Under ten pairs nothing can be held out: refused before any pair is loaded,
    # never swept over the training pairs instead.
    small = gen(tmp_path, name="small", count=9)
    loaded.clear()
    assert cli.run(["traverse", "--checkpoint", str(ckpt), "--data", str(small),
                    "--pair-index", "4", "--component", "0", "--out", str(tmp_path / "b")]) == 1
    assert loaded == []
    assert not (tmp_path / "b").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["train", "--out", "{run}/again"], ["eval"],
    ["traverse", "--pair-index", "0", "--component", "0"]])
def test_commands_refuse_a_dataset_too_small_to_split(tmp_path, capsys, command):
    # One rule, `trainer.held_out`, and one message for every command that splits a dataset.
    run = train(tmp_path, gen(tmp_path))
    small = gen(tmp_path, name="small", count=9)
    written = sorted(run.iterdir())
    capsys.readouterr()
    ckpt = [] if command[0] == "train" else ["--checkpoint", str(run / "checkpoint_final.txt")]
    assert cli.run([command[0], *ckpt, "--data", str(small),
                    *(arg.format(run=run) for arg in command[1:])]) == 1
    assert ("error: need at least 10 pairs for a validation split, got 9"
            in capsys.readouterr().err)
    assert sorted(run.iterdir()) == written  # no run directory, report or PGM
