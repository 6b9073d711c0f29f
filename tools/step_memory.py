#!/usr/bin/env python3
"""Where a training epoch's memory goes: page faults and tracemalloc peaks.

    python3 tools/step_memory.py [--side 32] [--batch-size 256] [--heads 2]
                                 [--count 3000] [--epochs 3]

Generates a seed-0 set of COUNT pairs at SIDE in a temporary directory and
trains the default model, with the given batch size and head count, on its
training split from the same start as `trainer.fit`. It runs EPOCHS plain
epochs and prints the minor page faults of each (`ru_minflt` of this
process), then one more epoch under `tracemalloc`. For that epoch it prints
the peak of the traced allocations during the forward passes, the backward
sweeps and the Adam steps, each in MB above what was allocated when the
epoch began: the loaded set, the parameters, and what Adam holds between
steps (its two moment vectors and two scratch blocks, which Adam's first
step allocates; with EPOCHS 0 that step is in the traced epoch). A
phase's peak includes whatever an earlier step still holds when it
starts. Last it prints the bytes of Adam's moments and scratch. The
defaults are the benchmark's fit-wide shape.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

if __name__ == "__main__":  # run as a script: this tree's framegate
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framegate import sprites, trainer  # noqa: E402
from framegate.model import ModelConfig, ModelParams  # noqa: E402
from framegate.streams import stream  # noqa: E402

# Each phase is timed around the function that train_epoch calls for it.
PHASES = {"forward": (trainer, "forward_batch"), "backward": (trainer, "backward"),
          "adam": (trainer.Adam, "step")}


def measure(side: int, batch_size: int, heads: int, count: int, epochs: int):
    """Minor page faults of each plain epoch, the traced epoch's peak bytes
    above its start for each phase, and the bytes of Adam's moments and of
    its scratch."""
    config = trainer.TrainConfig(model=ModelConfig(image_side=side, num_heads=heads),
                                 batch_size=batch_size)
    with tempfile.TemporaryDirectory() as tmp:
        sprites.generate_dataset(tmp, count=count, seed=0, n=side)
        pairs, _ = trainer.split_validation(sprites.load_dataset(tmp))
    params = ModelParams.initialize(config.model, stream(config.seed, "init"),
                                    mean_frame=trainer.mean_frame(pairs))
    opt = trainer.Adam(config)
    faults = []
    for epoch in range(epochs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train_epoch(params, opt, pairs, config, epoch)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    peaks = dict.fromkeys(PHASES, 0)
    start = 0

    def traced(phase, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1] - start)
        return wrapper

    originals = {phase: getattr(owner, name) for phase, (owner, name) in PHASES.items()}
    for phase, (owner, name) in PHASES.items():
        setattr(owner, name, traced(phase, originals[phase]))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trainer.train_epoch(params, opt, pairs, config, epochs)
    finally:
        tracemalloc.stop()
        for phase, (owner, name) in PHASES.items():
            setattr(owner, name, originals[phase])
    return faults, peaks, (opt.m.nbytes + opt.v.nbytes, opt._scratch.nbytes)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--count", type=int, default=3000)
    parser.add_argument("--epochs", type=int, default=3, help="plain epochs before the traced one")
    args = parser.parse_args(argv)
    faults, peaks, (moments, scratch) = measure(args.side, args.batch_size, args.heads,
                                                 args.count, args.epochs)
    print(f"side {args.side}, batch {args.batch_size}, {args.heads} head(s), "
          f"{args.count} pairs")
    for epoch, n in enumerate(faults):
        print(f"epoch {epoch}: {n} minor page faults")
    print(f"epoch {args.epochs} peak above its start: "
          + ", ".join(f"{phase} {peak / 1e6:.1f} MB" for phase, peak in peaks.items()))
    print(f"adam holds between steps: moments {moments} bytes, scratch {scratch} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
