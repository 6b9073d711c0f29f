"""Spans around calls into framegate's public functions, recorded from outside.

framegate's modules import functions by name (`from .autodiff import apply`),
so a wrapper has to replace every module attribute a caller looks up, not
only the defining one. `install` finds each binding by identity across all
framegate modules and replaces it; `uninstall` puts the originals back.

Spans are aggregated as they close, which keeps memory flat however many
calls a run makes: a span's self time is its duration minus the durations
of the spans opened and closed inside it. Calls on one thread never
overlap, so that sum is exactly the time the children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# Kinds of autodiff primitive the model applies; `sum` exists but is unused.
APPLY_KINDS = ("matmul", "add", "sub", "hadamard", "scalar-pow", "relu", "tanh",
               "sigmoid", "softmax", "concat", "slice", "mean-squared-error")

# span name -> (defining module, attribute path); each is patched wherever
# it is bound, Adam.step on its class.
FUNCTIONS = {
    "autodiff.backward": ("autodiff", "backward"),
    "model.prepare_batch_params": ("model", "prepare_batch_params"),
    "model.forward_batch": ("model", "forward_batch"),
    "model.extract_grads": ("model", "extract_grads"),
    "model.encode": ("model", "encode"),
    "model.decode": ("model", "decode"),
    "model.forward_pair": ("model", "forward_pair"),
    "gating.sharpen": ("gating", "sharpen"),
    "gating.combine_heads": ("gating", "combine_heads"),
    "gating.mix": ("gating", "mix"),
    "gating.gate_weights": ("gating", "gate_weights"),
    "gating.hard_select": ("gating", "hard_select"),
    "trainer.fit": ("trainer", "fit"),
    "trainer.train_epoch": ("trainer", "train_epoch"),
    "trainer.save_checkpoint": ("trainer", "save_checkpoint"),
    "trainer.load_checkpoint": ("trainer", "load_checkpoint"),
    "sprites.generate_dataset": ("sprites", "generate_dataset"),
    "sprites.sample_pair": ("sprites", "sample_pair"),
    "sprites.load_dataset": ("sprites", "load_dataset"),
    "streams.stream": ("streams", "stream"),
    "evaluation.sharpness": ("evaluation", "sharpness"),
    "evaluation.consistency": ("evaluation", "consistency"),
    "evaluation.hard_mode_mse": ("evaluation", "hard_mode_mse"),
    "evaluation.copy_baseline_mse": ("evaluation", "copy_baseline_mse"),
    "evaluation.observed_range": ("evaluation", "observed_range"),
    "evaluation.traverse": ("evaluation", "traverse"),
    "evaluation.write_pgm": ("evaluation", "write_pgm"),
    "trainer.Adam.step": ("trainer", "Adam.step"),
}
CLI_COMMANDS = ("gen-data", "eval", "traverse")

SPANS = (tuple(f"autodiff.apply.{kind}" for kind in APPLY_KINDS)
         + tuple(FUNCTIONS)
         + tuple(f"cli.{command}" for command in CLI_COMMANDS))

MODULES = ("autodiff", "gating", "model", "sprites", "streams", "trainer",
           "evaluation", "cli")
_MARK = "__perfbench_original__"


class Tracer:
    """Self time and call count per span name, plus named counters.

    While paused (around the benchmark's own output checks) calls pass
    straight through and nothing is recorded.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [name, start, time covered by children]
        self._paused = 0

    @contextlib.contextmanager
    def pause(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def count(self, name: str, amount: float) -> None:
        if not self._paused:
            self.counts[name] += amount

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._open.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._open:
            self._open[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()


def _modules():
    return {name: importlib.import_module(f"framegate.{name}") for name in MODULES}


def _owners(modules) -> list:
    """Every namespace a traced function can be looked up in."""
    return [*modules.values(), modules["trainer"].Adam]


def _matmul_flops(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Multiply-adds x 2 for operands of shapes a and b (either may be a vector)."""
    rows = 1
    for dim in a[:-1]:
        rows *= dim
    cols = b[-1] if len(b) > 1 else 1
    return 2 * rows * a[-1] * cols


def _wrapper(tracer: Tracer, span: str, fn):
    """The traced stand-in for one function; some also feed a counter."""
    if span == "autodiff.backward":
        def wrapper(loss, *args, **kwargs):
            if loss.tape is not None:
                tracer.count("tape_nodes", loss.tape.num_nodes)
            tracer.count("steps", 1)
            return tracer.call(span, fn, loss, *args, **kwargs)
    elif span == "trainer.save_checkpoint":
        def wrapper(ckpt, path, *args, **kwargs):
            tracer.call(span, fn, ckpt, path, *args, **kwargs)
            tracer.count("checkpoint_bytes", Path(path).stat().st_size)
            tracer.count("checkpoints", 1)
    elif span == "sprites.generate_dataset":
        def wrapper(out_dir, *args, **kwargs):
            tracer.call(span, fn, out_dir, *args, **kwargs)
            tracer.count("dataset_bytes", sum(p.stat().st_size for p in Path(out_dir).iterdir()))
            tracer.count("datasets", 1)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(span, fn, *args, **kwargs)
    return wrapper


def _apply_wrapper(tracer: Tracer, fn):
    def wrapper(kind, inputs, *args, **kwargs):
        out = tracer.call(f"autodiff.apply.{kind}", fn, kind, inputs, *args, **kwargs)
        if kind == "matmul" and out.tape is not None:
            a, b = (x.shape for x in inputs)  # Tensors and arrays both have one
            tracer.count("tracked_matmul_flops", _matmul_flops(a, b))
        return out
    return wrapper


def _cli_wrapper(tracer: Tracer, fn):
    def wrapper(argv):
        return tracer.call(f"cli.{argv[0]}", fn, argv)
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding of every traced function; returns what to restore."""
    modules = _modules()
    owners = _owners(modules)
    replaced: list[tuple[object, str, object]] = []

    def patch_everywhere(original, wrapper) -> None:
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, _MARK, original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    replaced.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    patch_everywhere(modules["autodiff"].apply, _apply_wrapper(tracer, modules["autodiff"].apply))
    patch_everywhere(modules["cli"].run, _cli_wrapper(tracer, modules["cli"].run))
    for span, (module_name, path) in FUNCTIONS.items():
        original = functools.reduce(getattr, path.split("."), modules[module_name])
        patch_everywhere(original, _wrapper(tracer, span, original))
    return replaced


def uninstall(replaced) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def installed_wrappers() -> int:
    """How many framegate attributes are currently perfbench wrappers."""
    return sum(1 for owner in _owners(_modules()) for value in vars(owner).values()
               if hasattr(value, _MARK))


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        out[f"{span}.self_s"] = (tracer.self_s[span], "s")
        out[f"{span}.calls"] = (tracer.calls[span], "count")
    counts = tracer.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out["autodiff.tape_nodes_per_step"] = (ratio("tape_nodes", "steps"), "count")
    out["autodiff.matmul_gflop_per_step"] = (ratio("tracked_matmul_flops", "steps") / 1e9, "GFLOP")
    out["trainer.checkpoint_bytes"] = (ratio("checkpoint_bytes", "checkpoints"), "bytes")
    out["sprites.dataset_bytes"] = (ratio("dataset_bytes", "datasets"), "bytes")
    return out


def missing_spans(tracer: Tracer) -> list[str]:
    return [span for span in SPANS if tracer.calls[span] == 0]
