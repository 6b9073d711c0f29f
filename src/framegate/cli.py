"""Command line front end: gen-data, train, eval, traverse.

Configuration comes from flat key=value files plus flags; nothing is read
from the environment. Exit codes: 0 on success, 2 for bad arguments (with
usage on stderr), 1 for runtime failures (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
from dataclasses import asdict, make_dataclass
from pathlib import Path

import numpy as np

from . import atomic, evaluation, keyvalue, sprites
from .trainer import TrainConfig, fit, from_settings, held_out, load_checkpoint, settings


# Every run setting but the frame side, which the dataset alone fixes.
_SETTINGS = {key: value for key, value in settings(TrainConfig()).items() if key != "image_side"}
MAX_STEPS = 1000  # traverse writes one PGM per step


def _train_config(self, image_side: int) -> TrainConfig:
    return from_settings({**asdict(self), "image_side": image_side})


# Everything a training run needs besides the dataset and output paths:
# `epochs`, then every key of `_SETTINGS`, with the default of the dataclass that owns it.
RunConfig = make_dataclass(
    "RunConfig", [("epochs", int, 60), *((key, type(v), v) for key, v in _SETTINGS.items())],
    namespace={"__module__": __name__, "train_config": _train_config}, frozen=True)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Flat key=value lines (see `keyvalue.read`) naming RunConfig fields."""
    return RunConfig(**keyvalue.read(text, {**_SETTINGS, "epochs": RunConfig.epochs}, source))


def _cmd_gen_data(args) -> int:
    sprites.generate_dataset(args.out, count=args.count, seed=args.seed,
                             n=args.side, s=args.sprite, levels=args.levels)
    print(f"wrote {args.count} pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = (parse_config_text(Path(args.config).read_text(), source=args.config)
              if args.config else RunConfig())
    pairs = sprites.load_dataset(args.data)
    fit(config.train_config(math.isqrt(pairs.frames.shape[-1])), pairs, config.epochs, args.out)
    return 0


def _checkpoint_and_validation(args):
    """The checkpoint, the dataset's pair count and its `held_out` validation
    pairs alone, refused if the two frame sides differ."""
    ckpt = load_checkpoint(args.checkpoint)
    n, count, _ = sprites.read_manifest(Path(args.data) / sprites.MANIFEST_NAME)
    if n != ckpt.config.model.image_side:
        raise ValueError(f"checkpoint {args.checkpoint} image_side={ckpt.config.model.image_side}"
                         f" does not match dataset {args.data} n={n}")
    return ckpt, count, sprites.load_dataset(args.data, held_out(count))


def _cmd_eval(args) -> int:
    """The eval report from one hard-mode pass over the validation pairs alone."""
    ckpt, _, val = _checkpoint_and_validation(args)
    passed = evaluation.hard_pass(ckpt.params, val)
    text = evaluation.format_report(ckpt.gamma, evaluation.sharpness(passed, ckpt.gamma),
                                    evaluation.hard_mode_mse(passed),
                                    evaluation.copy_baseline_mse(val),
                                    evaluation.consistency(passed))
    out_path = Path(args.out) if args.out else Path(args.checkpoint).parent / "eval_report.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic.write_bytes(out_path, text.encode())
    sys.stdout.write(text)
    return 0


def _cmd_traverse(args) -> int:
    ckpt, count, val = _checkpoint_and_validation(args)
    if not 0 <= args.pair_index < count:
        raise ValueError(f"pair index {args.pair_index} out of range for {count} pairs")
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValueError(f"at most {MAX_STEPS} steps (one PGM each), got {args.steps}")
    lo, hi = evaluation.observed_range(ckpt.params, val, args.component)
    if not lo < hi:
        raise ValueError(f"component {args.component} is constant over the validation pairs")
    frame = sprites.load_dataset(args.data, [args.pair_index]).x_curr[0]
    frames = evaluation.traverse(ckpt.params, frame, args.component,
                                 np.linspace(lo, hi, args.steps))
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"traverse_c{args.component}"
    evaluation.write_pgm(frames.reshape(-1, frames.shape[-1]), out_dir / f"{stem}.pgm")
    for i, decoded in enumerate(frames):
        evaluation.write_pgm(decoded, out_dir / f"{stem}_step{i}.pgm")
    print(f"wrote {stem}.pgm and {len(frames)} step frames to {out_dir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="framegate",
                                     description="Gated two-frame autoencoder tools")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a sprite-pair dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True, help="number of frame pairs")
    shape = {name: p.default
             for name, p in inspect.signature(sprites.generate_dataset).parameters.items()}
    gen.add_argument("--side", type=int, default=shape["n"],
                     help="frame side length (default: %(default)s)")
    gen.add_argument("--sprite", type=int, default=shape["s"],
                     help="sprite side length (default: %(default)s)")
    gen.add_argument("--levels", type=int, default=shape["levels"],
                     help="brightness levels (default: %(default)s)")

    train = sub.add_parser("train", help="train on a generated dataset")
    train.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--out", required=True, help="output directory for logs and checkpoints")

    ev = sub.add_parser("eval", help="sharpness/consistency report for a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="report path (default: eval_report.txt beside the checkpoint)")

    tr = sub.add_parser("traverse", help="decode a sweep over one latent component")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--pair-index", type=int, required=True)
    tr.add_argument("--component", type=int, required=True)
    tr.add_argument("--steps", type=int, default=8,
                    help=f"sweep points, 2 to {MAX_STEPS} (default: %(default)s)")
    tr.add_argument("--out", help="output directory (default: beside the checkpoint)")
    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse prints usage itself
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        # Looked up per call, so a replaced `_cmd_*` function takes effect.
        commands = {"gen-data": _cmd_gen_data, "train": _cmd_train,
                    "eval": _cmd_eval, "traverse": _cmd_traverse}
        return commands[args.command](args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
