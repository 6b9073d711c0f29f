"""The three workloads: set-up, one closed-loop operation, and output checks.

Importing this module imports framegate (and numpy); `run.py` times that
import in a fresh interpreter as part of each set-up sample.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from framegate import cli, evaluation, sprites, trainer
from framegate.cli import RunConfig
from measure import CheckFailed, OpLog

COUNT = 3000          # pairs per dataset, as in `framegate gen-data` examples and the acceptance runs
FIT_EPOCHS = 12       # epochs per timed fit: about 5 s; 2 checkpoint saves, against 5 per 60 epochs in `framegate train`
CKPT_EPOCHS = 2       # epochs of the cli-tools set-up run that writes the checkpoint
STEPS = 8
TRAVERSE_ARGS = ["--pair-index", "0", "--component", "3", "--steps", str(STEPS)]
MONTAGE = "traverse_c3.pgm"
SCALARS = ("gamma", "sharpness", "val_mse", "baseline_mse")


@dataclass(frozen=True)
class Workload:
    name: str
    side: int
    overrides: dict = field(default_factory=dict)  # RunConfig fields
    traced_ops: int = 3  # operations in a traced run's fixed amount of work

    @property
    def trains(self) -> bool:
        return self.name != "cli-tools"


WORKLOADS = {w.name: w for w in (
    Workload("fit-default", 16),
    Workload("fit-wide", 32, {"batch_size": 256, "num_heads": 2}),
    Workload("cli-tools", 16, traced_ops=5),
)}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_sha256(path) -> str:
    digest = hashlib.sha256()
    for name in (sprites.MANIFEST_NAME, sprites.FRAMES_NAME):
        digest.update((Path(path) / name).read_bytes())
    return digest.hexdigest()


def check_exit(code: int) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}")


def check_log(path, epochs: int) -> float:
    """Every row of log.tsv is complete and finite; returns the last validation loss."""
    rows = Path(path).read_text().splitlines()
    if len(rows) != epochs:
        raise CheckFailed(f"log.tsv has {len(rows)} rows, expected {epochs}")
    for row in rows:
        fields = row.split("\t")
        if len(fields) != 6 or not all(math.isfinite(float(v)) for v in fields[1:]):
            raise CheckFailed(f"bad log.tsv row {row!r}")
    return float(rows[-1].split("\t")[4])


def check_reload(path, ckpt) -> None:
    """The saved checkpoint loads back to exactly the arrays fit returned."""
    loaded = trainer.load_checkpoint(path).params.named()
    for name, arr in ckpt.params.named().items():
        if not np.array_equal(loaded[name], arr):
            raise CheckFailed(f"{name} differs after reloading {Path(path).name}")


def check_report(path) -> float:
    """Four finite scalar lines and three factor rows; returns val_mse / baseline_mse."""
    lines = Path(path).read_text().splitlines()
    values = {}
    for key, line in zip(SCALARS, lines):
        name, _, value = line.partition("\t")
        if name != key or not math.isfinite(float(value)):
            raise CheckFailed(f"eval report line {line!r}, expected {key}")
        values[key] = float(value)
    rows = [line.split("\t") for line in lines[5:8]]
    if len(values) != 4 or sorted(r[0] for r in rows if len(r) == 4) != sorted(sprites.FACTORS):
        raise CheckFailed(f"eval report lacks its scalar lines or factor rows: {lines!r}")
    return values["val_mse"] / values["baseline_mse"]


def check_traverse(out_dir: Path, side: int) -> None:
    """steps + 1 PGMs: the montage and one frame per step, each readable at its shape."""
    written = sorted(out_dir.glob("traverse_c3*.pgm"))
    if len(written) != STEPS + 1:
        raise CheckFailed(f"traverse wrote {len(written)} PGMs, expected {STEPS + 1}")
    shapes = {MONTAGE: (STEPS * side, side)}
    shapes.update({f"traverse_c3_step{i}.pgm": (side, side) for i in range(STEPS)})
    for name, shape in shapes.items():
        if evaluation.read_pgm(out_dir / name).shape != shape:
            raise CheckFailed(f"{name} does not read back at shape {shape}")


class Bench:
    """One workload in one process. Every operation goes through `self.ops`,
    which counts it; a failed set-up step aborts the run."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = OpLog()
        self.config = replace(RunConfig(seed=seed), **workload.overrides)
        self.first: dict[str, str] = {}  # digest of each output the first time it was made
        self.data: Path | None = None
        self.pairs = None
        self.checkpoint: Path | None = None
        self.last_fit = None
        self.val_mse_ratio: float | None = None
        self.outputs: dict[str, Path] = {}
        self.tracer = None  # set while a traced phase runs

    def paused(self):
        """Context in which calls into framegate are not traced."""
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def run(self, kind: str, op, check=None):
        """Count and time one operation; its check runs untraced."""
        def checked(result):
            with self.paused():
                check(result)
        return self.ops.run(kind, op, checked if check is not None else None)

    def cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv)

    def same(self, key: str, digest: str) -> None:
        """Outputs made from the same seed must be byte-identical every time."""
        if self.first.setdefault(key, digest) != digest:
            raise CheckFailed(f"{key} differs from the first one made with this seed")

    def _must(self, kind: str, op, check=None):
        """A set-up operation: counted like any other, timed apart from the loop's."""
        done = self.run(f"setup {kind}", op, check)
        if done is None:
            raise RuntimeError(f"set-up failed: {self.ops.errors[-1]}")
        return done

    # ---- set-up ----

    def setup(self, tag: str) -> float:
        """Dataset, and for cli-tools a trained checkpoint, under work/tag.
        Returns the seconds its operations took, checks excluded."""
        root = self.work / tag
        data = root / "data"
        gen = ["gen-data", "--out", str(data), "--seed", str(self.seed),
               "--count", str(COUNT), "--side", str(self.workload.side)]
        _, gen_s = self._must("gen-data", functools.partial(self.cli, gen),
                              functools.partial(self._check_dataset, data))
        pairs, load_s = self._must("load", functools.partial(sprites.load_dataset, data),
                                   self._check_pairs)
        seconds = gen_s + load_s
        if self.data is None:
            self.data, self.pairs = data, pairs
        if not self.workload.trains:
            out = root / "train"
            _, fit_s = self._must(
                "fit", lambda: trainer.fit(self.train_config(), pairs, CKPT_EPOCHS, out, quiet=True),
                functools.partial(self._check_fit, out, CKPT_EPOCHS, "setup-fit", True))
            seconds += fit_s
            if self.checkpoint is None:
                self.checkpoint = out / "checkpoint_final.txt"
                self.outputs["log.tsv"] = out / "log.tsv"
                self.outputs["checkpoint_final.txt"] = self.checkpoint
        return seconds

    def train_config(self):
        return self.config.train_config(self.workload.side)

    @property
    def pairs_per_fit(self) -> int:
        """Training-split pairs times epochs in one timed fit."""
        return len(trainer.split_validation(self.pairs)[0]) * FIT_EPOCHS

    def _check_dataset(self, data: Path, code: int) -> None:
        check_exit(code)
        self.same("dataset", dataset_sha256(data))

    def _check_pairs(self, pairs) -> None:
        if len(pairs) != COUNT:
            raise CheckFailed(f"loaded {len(pairs)} pairs, expected {COUNT}")

    def _check_fit(self, out: Path, epochs: int, key: str, reload: bool, ckpt) -> None:
        check_log(out / "log.tsv", epochs)
        if reload:
            check_reload(out / "checkpoint_final.txt", ckpt)
        self.same(f"{key} log.tsv", sha256(out / "log.tsv"))
        self.same(f"{key} checkpoint", sha256(out / "checkpoint_final.txt"))

    # ---- closed loop ----

    def loop(self, seconds: float, min_ops: int) -> list[float]:
        """Operations back to back until both `seconds` have passed and
        `min_ops` were attempted; returns the seconds of each that succeeded."""
        deadline = time.perf_counter() + seconds
        done: list[float] = []
        attempts = 0
        while attempts < min_ops or time.perf_counter() < deadline:
            attempts += 1
            # Collect the previous operation's garbage (tapes form reference
            # cycles) so every operation starts from the same heap and the
            # peak RSS does not grow with the number of operations run.
            gc.collect()
            seconds_taken = self.fit_op() if self.workload.trains else self.cli_round()
            if seconds_taken is not None:
                done.append(seconds_taken)
        return done

    def fit_op(self) -> float | None:
        out = self.work / "fit"
        first = "fit log.tsv" not in self.first
        done = self.run(
            "fit", lambda: trainer.fit(self.train_config(), self.pairs, FIT_EPOCHS, out, quiet=True),
            functools.partial(self._check_fit, out, FIT_EPOCHS, "fit", first))
        if done is None:
            return None
        self.last_fit = done[0]
        return done[1]

    def cli_round(self) -> float | None:
        """gen-data, eval and traverse, each timed as its own operation."""
        loop_data = self.work / "loop-data"
        report = self.work / "eval_report.txt"
        pictures = self.work / "traverse"
        commands = (
            ("gen-data", ["gen-data", "--out", str(loop_data), "--seed", str(self.seed),
                          "--count", str(COUNT), "--side", str(self.workload.side)],
             functools.partial(self._check_dataset, loop_data)),
            *self._eval_commands(report, pictures),
        )
        total = 0.0
        for kind, argv, check in commands:
            done = self.run(kind, functools.partial(self.cli, argv), check)
            if done is None:
                return None
            total += done[1]
        return total

    def _eval_commands(self, report: Path, pictures: Path):
        checkpoint = ["--checkpoint", str(self.checkpoint), "--data", str(self.data)]
        return (
            ("eval", ["eval", *checkpoint, "--out", str(report)],
             functools.partial(self._check_eval, report)),
            ("traverse", ["traverse", *checkpoint, *TRAVERSE_ARGS, "--out", str(pictures)],
             functools.partial(self._check_traverse, pictures)),
        )

    def _check_eval(self, report: Path, code: int) -> None:
        check_exit(code)
        ratio = check_report(report)
        self.same("eval report", sha256(report))
        if not self.workload.trains:
            self.val_mse_ratio = ratio
        self.outputs["eval_report.txt"] = report

    def _check_traverse(self, pictures: Path, code: int) -> None:
        check_exit(code)
        check_traverse(pictures, self.workload.side)
        self.same("montage", sha256(pictures / MONTAGE))
        self.outputs[MONTAGE] = pictures / MONTAGE

    # ---- after the loop ----

    def finish(self) -> None:
        """Untimed checks on the last fit's outputs, then eval and traverse on
        its checkpoint, so every workload records the same four artefacts."""
        if not self.workload.trains:
            return
        out = self.work / "fit"
        self.checkpoint = out / "checkpoint_final.txt"
        self.outputs["log.tsv"] = out / "log.tsv"
        self.outputs["checkpoint_final.txt"] = self.checkpoint
        with self.paused():
            self.run("reload", lambda: check_reload(self.checkpoint, self.last_fit))
            val_loss = check_log(out / "log.tsv", FIT_EPOCHS)
            baseline = evaluation.copy_baseline_mse(trainer.split_validation(self.pairs)[1])
        self.val_mse_ratio = val_loss / baseline
        for kind, argv, check in self._eval_commands(self.work / "eval_report.txt",
                                                     self.work / "traverse"):
            self.run(kind, functools.partial(self.cli, argv), check)

    def digests(self) -> dict[str, str]:
        return {name: sha256(path) for name, path in sorted(self.outputs.items())}
