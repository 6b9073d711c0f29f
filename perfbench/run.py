"""framegate benchmark: training and command-line workloads in a closed loop.

From the repository root:

    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --trace 1       # every workload, traced
    python3 perfbench/run.py --workload fit-wide --seed 3 --trace 0

One client drives one process per workload: each operation starts only
after the previous one returned. Untraced runs print the end-to-end metrics;
traced runs print per-layer spans. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. See README.md
beside this file for the workloads and what each metric should respond to.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import measure
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
TRACED_SETUPS = 3
MIN_OPS = 5
CHILD_TIMEOUT_S = 900
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(np), "nproc": os.cpu_count()}


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS is using, or None when it cannot be asked."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import framegate and the benchmark."""
    probe = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
             "import workloads; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", probe, str(SRC), str(HERE)], check=True,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "framegate").glob("*.py"))


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<22} {shown:>12} {unit:<6} {note}".rstrip()


def _timing_lines(name: str, samples: list[float]) -> list[str]:
    lines = [_line(f"{name}.p50", statistics.median(samples), "s", f"n={len(samples)}")]
    found = measure.tail(samples)
    if found is None:
        lines.append(f"  {name + '.tail':<22} {'n/a':>12} {'s':<6} fewer than 20 samples (n={len(samples)})")
    else:
        p, value = found
        lines.append(_line(f"{name}.tail", value, "s", f"p{p}, n={len(samples)}"))
    return lines


def untraced(bench, seconds: float):
    if spans.installed_wrappers():
        raise RuntimeError("an untraced run found tracing wrappers installed")
    # Each sample: a fresh interpreter's import, then one set-up.
    setups = [fresh_import_s() + bench.setup(f"setup{i}") for i in range(SETUP_REPEATS)]
    op_s = bench.loop(seconds, MIN_OPS)
    bench.finish()
    if spans.installed_wrappers():
        raise RuntimeError("an untraced run found tracing wrappers installed")
    if not op_s:
        raise RuntimeError("no operation succeeded")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "val_mse_ratio": (bench.val_mse_ratio, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    w = bench.workload
    lines = [_line("setup_s", metrics["setup_s"][0], "s",
                   f"median of {SETUP_REPEATS} set-ups, each with a fresh import")]
    if w.trains:
        lines.append(_line("op_s.p50", metrics["op_s.p50"][0], "s",
                           f"one trainer.fit, n={len(op_s)}"))
        lines.append(_line("train_pairs_per_s", bench.pairs_per_fit / metrics["op_s.p50"][0],
                           "1/s", "training-split pairs x epochs / op_s.p50"))
    else:
        lines.append(_line("op_s.p50", metrics["op_s.p50"][0], "s",
                           f"one gen-data + eval + traverse round, n={len(op_s)}"))
        for kind in ("gen-data", "eval", "traverse"):
            lines += _timing_lines(f"{kind.replace('-', '_')}_s", bench.ops.times[kind])
    lines.append(f"  op_s samples: {' '.join(f'{s:.3f}' for s in op_s)}")
    lines.append(_line("val_mse_ratio", bench.val_mse_ratio, "ratio",
                       "validation hard-mode MSE / copy-previous-frame MSE"))
    lines.append(_line("peak_rss_mb", peak_mb, "MB", "ru_maxrss"))
    lines.append(_line("error_rate", bench.ops.error_rate, "",
                       f"{bench.ops.failed} of {bench.ops.attempted} operations failed"))
    return lines, metrics


@contextlib.contextmanager
def tracing(bench, tracer):
    """Spans recorded into tracer for the duration of the block."""
    replaced = spans.install(tracer)
    bench.tracer = tracer
    try:
        yield
    finally:
        bench.tracer = None
        spans.uninstall(replaced)


def traced(bench):
    """A fixed amount of traced work, so span totals compare across commits:
    set-ups, operations and the final checks. Each traced set-up and
    operation runs right after an untraced twin, and the tracing overhead is
    the median of their ratios, so drift in machine speed slower than one
    step cancels."""
    tracer = spans.Tracer()
    setup_ratios = []
    for i in range(TRACED_SETUPS):
        plain = bench.setup(f"setup{i}")
        with tracing(bench, tracer):
            setup_ratios.append(bench.setup(f"traced-setup{i}") / plain)
    op_ratios = []
    for _ in range(bench.workload.traced_ops):
        plain = bench.loop(0, 1)
        with tracing(bench, tracer):
            with_spans = bench.loop(0, 1)
        if plain and with_spans:
            op_ratios.append(with_spans[0] / plain[0])
    with tracing(bench, tracer):
        bench.finish()
    missing = spans.missing_spans(tracer)
    if missing:
        raise RuntimeError(f"spans never recorded (wrapper on the wrong attribute?): {missing}")
    if not op_ratios:
        raise RuntimeError("no operation succeeded")
    metrics = spans.per_layer(tracer)
    metrics["trace_overhead.setup_ratio"] = (statistics.median(setup_ratios), "ratio")
    metrics["trace_overhead.op_ratio"] = (statistics.median(op_ratios), "ratio")
    lines = [f"  traced work: {TRACED_SETUPS} set-ups, {bench.workload.traced_ops} operations, "
             f"final checks; each set-up and operation after an untraced twin"]
    by_self = sorted(spans.SPANS, key=lambda s: -tracer.self_s[s])
    for span in by_self:
        lines.append(_line(span, tracer.self_s[span], "s", f"self, {tracer.calls[span]} calls"))
    for name in ("autodiff.tape_nodes_per_step", "autodiff.matmul_gflop_per_step",
                 "trainer.checkpoint_bytes", "sprites.dataset_bytes"):
        value, unit = metrics[name]
        note = "computed from operand shapes" if "gflop" in name else ""
        lines.append(_line(name, float(value), unit, note))
    for name in ("trace_overhead.setup_ratio", "trace_overhead.op_ratio"):
        lines.append(_line(name, metrics[name][0], "ratio", "traced / untraced twin, median"))
    return lines, metrics


def run_workload(args, workloads) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            lines, metrics = traced(bench)
        else:
            lines, metrics = untraced(bench, args.seconds)
        digests = bench.digests()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()
    window = "fixed traced work" if args.trace else f"{args.seconds} s window"
    print(f"perfbench {args.workload}: seed {args.seed}, {window}, closed loop "
          f"(1 client, 1 process, each call after the previous returned)")
    print("\n".join(lines))
    for error in bench.ops.errors:
        print(f"FAILED {error}", file=sys.stderr)
    record = {"sha256": digests, "environment": environment(), "src_lines": src_lines()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, one after another."""
    summary = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="fit-default, fit-wide, cli-tools, or all (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="untraced measuring window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "framegate" / "__init__.py").is_file():
        print(f"error: no framegate sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in ("all", *workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
