"""End-to-end acceptance gate.

Every test here checks one release criterion and registers a one-line
verdict that pytest prints in its terminal summary. The training-dependent
criteria share five seeded 60-epoch runs on the standard sprite world
(16x16 frames, 32 latent components, one gating head, 3000 pairs), built
once per session by the `world` fixture. A failing criterion fails its
test; nothing here masks a miss.
"""

import multiprocessing
import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import record_criterion
from test_model import GRAD_STEP

from framegate import cli, evaluation
from framegate.autodiff import apply, constant, grad_check
from framegate.gating import SharpenParams, sharpen
from framegate.model import ModelConfig, ModelParams, forward_pair
from framegate.sprites import generate_dataset, load_dataset
from framegate.trainer import fit, load_checkpoint, split_validation

SEEDS = (0, 1, 2, 3, 4)
EPOCHS = 60
NEEDED = 3  # of the five seeds
PER_SEED_BUDGET = 600.0  # seconds


def accept_config(seed):
    return cli.RunConfig(seed=seed).train_config(16)


def fit_seed(seed, data_dir, out):
    """One acceptance fit, run in a worker process; returns its wall time."""
    pairs = load_dataset(data_dir)
    started = time.perf_counter()
    fit(accept_config(seed), pairs, EPOCHS, out, quiet=True)
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The five seeds train in two spawned workers with one BLAS thread each;
    criterion 7 reruns seed 0 here with the default threads and compares
    every file byte for byte."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "data"
    generate_dataset(data_dir, count=3000, seed=7)
    pairs = load_dataset(data_dir)
    val = split_validation(pairs)[1]
    jobs = [(seed, data_dir, root / f"run_{seed}") for seed in SEEDS]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("OPENBLAS_NUM_THREADS", "1")  # read when a worker loads numpy
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            elapsed = pool.starmap(fit_seed, jobs, chunksize=1)
    runs = {}
    for (seed, _, out), seconds in zip(jobs, elapsed):
        final = load_checkpoint(out / "checkpoint_final.txt")
        passed = evaluation.hard_pass(final.params, val)
        runs[seed] = SimpleNamespace(
            out=out,
            final=final,
            elapsed=seconds,
            sharp=evaluation.sharpness(passed, final.gamma),
            mse=evaluation.hard_mode_mse(passed),
            report=evaluation.consistency(passed),
        )
    return SimpleNamespace(root=root, data_dir=data_dir, pairs=pairs, val=val,
                           baseline=evaluation.copy_baseline_mse(val), runs=runs)


def verdict(number, name, ok, detail):
    state = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number} {name}: {state} - {detail}")
    return f"criterion {number} ({name}) {state}: {detail}"


# ---- criterion 1: gradient suite ----

def scalarize(t, rng):
    if t.data.ndim == 0:
        return t
    coeffs = rng.random(t.data.shape) + 0.5
    return apply("sum", [apply("hadamard", [t, constant(coeffs)])])


def signed(rng, *shape):
    # Magnitude at least 0.1 keeps relu kinks and the pow clamp at bay.
    return (rng.random(shape) * 0.9 + 0.1) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def positive(rng, *shape):
    return rng.random(shape) * 0.9 + 0.1


def primitive_cases(rng):
    return [
        ("matmul", [signed(rng, 3, 4), signed(rng, 4, 2)], {}),
        ("matmul", [signed(rng, 4), signed(rng, 4, 3)], {}),
        ("add", [signed(rng, 3, 4), signed(rng, 3, 4)], {}),
        ("add", [signed(rng, 3, 4), signed(rng, 4)], {}),
        ("sub", [signed(rng, 3, 4), signed(rng, 4)], {}),
        ("hadamard", [signed(rng, 3, 4), signed(rng, 3, 4)], {}),
        ("scalar-pow", [positive(rng, 3, 4)], {"exponent": 2.7}),
        ("scalar-pow", [positive(rng, 5)], {"exponent": -1.0}),
        ("relu", [signed(rng, 3, 4)], {}),
        ("tanh", [signed(rng, 3, 4)], {}),
        ("sigmoid", [signed(rng, 3, 4)], {}),
        ("softmax", [signed(rng, 3, 5)], {"axis": -1}),
        ("concat", [signed(rng, 2, 3), signed(rng, 2, 3)], {"axis": 1}),
        ("concat", [signed(rng, 3), signed(rng, 4), signed(rng, 2)], {"axis": 0}),
        ("slice", [signed(rng, 4, 5)], {"axis": 1, "range": (1, 4)}),
        ("slice", [signed(rng, 6)], {"axis": 0, "range": (2, 5)}),
        ("sum", [signed(rng, 3, 4)], {}),
        ("mean-squared-error", [signed(rng, 3, 4), signed(rng, 3, 4)], {}),
    ]


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    tol = 1e-5
    worst = 0.0
    where = None

    rng = np.random.default_rng(0)
    covered = set()
    for kind, arrays, attrs in primitive_cases(rng):
        covered.add(kind)
        for index in range(len(arrays)):
            def f(leaf, kind=kind, arrays=arrays, attrs=attrs, index=index):
                inputs = [leaf if j == index else constant(a)
                          for j, a in enumerate(arrays)]
                return scalarize(apply(kind, inputs, attrs), np.random.default_rng(9))
            err = grad_check(f, arrays[index])
            if err > worst:
                worst, where = err, f"{kind}[{index}]"
    assert covered == {"matmul", "add", "sub", "hadamard", "scalar-pow", "relu",
                       "tanh", "sigmoid", "softmax", "concat", "slice", "sum",
                       "mean-squared-error"}

    # Full model, both head counts, noise off and frozen on. See
    # test_model.test_full_model_gradients for the evaluation-point and
    # step notes.
    for num_heads in (1, 2):
        config = ModelConfig(image_side=8, latent_dim=6, num_heads=num_heads,
                             enc_hidden=(16, 8), dec_hidden=(8, 16), gate_hidden=8)
        rng = np.random.default_rng(1)
        params = ModelParams.initialize(config, rng)
        x_prev = 0.25 + 0.75 * rng.random(config.pixels)
        x_curr = 0.5 + 0.04 * (2 * rng.random(config.pixels) - 1)
        arrays = params.named()
        for sigma in (0.0, 0.05):
            sp = SharpenParams(gamma=2.0, sigma=sigma)
            for name in arrays:
                def f(leaf, vary=name):
                    values = {k: (leaf if k == vary else v) for k, v in arrays.items()}
                    return forward_pair(x_prev, x_curr, ModelParams(config, values), sp,
                                        rng=np.random.default_rng(0)).loss
                err = grad_check(f, arrays[name], step=GRAD_STEP)
                if err > worst:
                    worst, where = err, f"model K={num_heads} sigma={sigma} {name}"

    elapsed = time.perf_counter() - started
    ok = worst <= tol and elapsed < 60.0
    message = verdict(1, "gradient suite", ok,
                      f"max relative error {worst:.2e} at {where} "
                      f"(tolerance {tol:.0e}), {elapsed:.1f}s of 60s budget")
    assert ok, message


# ---- criterion 2: sharpening oracle ----

def test_criterion_2_sharpening_oracle():
    rng = np.random.default_rng(2)
    gammas = (1.0, 2.0, 4.0, 16.0, 64.0)
    dims = (2, 3, 5, 8, 16, 32)
    worst = 0.0
    identity_ok = True
    argmax_ok = True
    for i in range(1000):
        d = dims[i % len(dims)]
        w = rng.dirichlet(np.ones(d))
        for gamma in gammas:
            out = sharpen(constant(w), SharpenParams(gamma=gamma, sigma=0.0)).data
            base = np.maximum(w, 1e-12)
            oracle = base ** gamma / np.sum(base ** gamma)
            worst = max(worst, float(np.abs(out - oracle).max()))
            if np.argmax(out) != np.argmax(w):
                argmax_ok = False
            if gamma == 1.0 and not np.array_equal(out, w):
                identity_ok = False
    ok = worst <= 1e-12 and identity_ok and argmax_ok
    message = verdict(2, "sharpening oracle", ok,
                      f"max |difference| {worst:.2e} over 1000 vectors x 5 exponents "
                      f"(tolerance 1e-12), argmax preserved: {argmax_ok}, "
                      f"exponent-1 identity: {identity_ok}")
    assert ok, message


# ---- criteria 3-5: the five seeded runs ----

def test_criterion_3_binarization(world):
    values = {seed: world.runs[seed].sharp for seed in SEEDS}
    passing = [seed for seed, v in values.items() if v >= 0.95]
    slowest = max(r.elapsed for r in world.runs.values())
    ok = len(passing) >= NEEDED and slowest <= PER_SEED_BUDGET
    detail = " ".join(f"seed{seed}={v:.4f}" for seed, v in values.items())
    message = verdict(3, "binarization", ok,
                      f"validation sharpness at final exponent {detail}; "
                      f"{len(passing)}/5 seeds >= 0.95 (need {NEEDED}); "
                      f"slowest run {slowest:.0f}s of {PER_SEED_BUDGET:.0f}s")
    assert ok, message


def test_criterion_4_reconstruction(world):
    ratios = {seed: world.runs[seed].mse / world.baseline for seed in SEEDS}
    passing = [seed for seed, r in ratios.items() if r <= 0.5]
    ok = len(passing) >= NEEDED
    detail = " ".join(f"seed{seed}={r:.3f}" for seed, r in ratios.items())
    message = verdict(4, "reconstruction", ok,
                      f"hard-gated validation MSE / copy-previous baseline "
                      f"({world.baseline:.5f}): {detail}; {len(passing)}/5 seeds "
                      f"<= 0.5 (need {NEEDED})")
    assert ok, message


def factor_pass(report):
    return (report.distinct_modal_indices and not report.omitted
            and all(s.agreement >= 0.8 for s in report.factors))


def seed_summary(report):
    picks = " ".join(f"{s.factor}->{s.modal_index}@{s.agreement:.2f}"
                     for s in report.factors)
    return f"[{picks} distinct={'yes' if report.distinct_modal_indices else 'no'}]"


def test_criterion_5_factor_consistency(world):
    passing = [seed for seed in SEEDS if factor_pass(world.runs[seed].report)]
    ok = len(passing) >= NEEDED
    detail = " ".join(f"seed{seed}{seed_summary(world.runs[seed].report)}"
                      for seed in SEEDS)
    message = verdict(5, "factor consistency", ok,
                      f"{len(passing)}/5 seeds with all three factors >= 0.80 "
                      f"agreement on pairwise-distinct components (need {NEEDED}); "
                      f"{detail}")
    assert ok, message


# ---- criterion 6: traversal artifact ----

def test_criterion_6_traversal(world):
    passing = [seed for seed in SEEDS if factor_pass(world.runs[seed].report)]
    # Use a passing seed when one exists; otherwise still emit the artifact
    # for the best available run so the failure can be inspected.
    candidates = passing or sorted(
        SEEDS, key=lambda s: world.runs[s].report.stats_for("x").agreement,
        reverse=True)
    seed = candidates[0]
    run = world.runs[seed]
    unit = run.report.stats_for("x").modal_index
    lo, hi = evaluation.observed_range(run.final.params, world.val, unit)

    monotone_pairs = -1
    pgm_ok = False
    if lo < hi:
        frames = evaluation.traverse(run.final.params, world.val.x_curr[0], unit,
                                     np.linspace(lo, hi, 8))
        centroids = [evaluation.centroid(f)[0] for f in frames]
        deltas = np.diff(centroids)
        monotone_pairs = int(max(np.sum(deltas > 0), np.sum(deltas < 0)))
        montage = frames.reshape(-1, frames.shape[-1])
        path = run.out / "traverse_modal_x.pgm"
        evaluation.write_pgm(montage, path)
        back = evaluation.read_pgm(path)
        pgm_ok = (back.shape == montage.shape
                  and np.array_equal(back, np.floor(montage * 255.0 + 0.5) / 255.0))

    ok = bool(passing) and monotone_pairs >= 6 and pgm_ok
    message = verdict(6, "traversal artifact", ok,
                      f"seed {seed} ({'passed' if passing else 'no seed passed'} "
                      f"factor consistency), x-unit {unit}: centroid-x monotone on "
                      f"{monotone_pairs}/7 step pairs (need 6), montage PGM valid: "
                      f"{pgm_ok}")
    assert ok, message


# ---- criterion 7: determinism ----

def test_criterion_7_determinism(world, tmp_path):
    rerun = tmp_path / "rerun"
    fit(accept_config(0), world.pairs, EPOCHS, rerun, quiet=True)
    first = world.runs[0].out

    for out in (first, rerun):
        code = cli.run(["eval", "--checkpoint", str(out / "checkpoint_final.txt"),
                        "--data", str(world.data_dir),
                        "--out", str(out / "eval_report.txt")])
        assert code == 0

    names = ["log.tsv", "eval_report.txt", "checkpoint_epoch_0000.txt",
             "checkpoint_epoch_0020.txt", "checkpoint_epoch_0040.txt",
             "checkpoint_epoch_0060.txt", "checkpoint_final.txt"]
    differing = [name for name in names
                 if (first / name).read_bytes() != (rerun / name).read_bytes()]
    ok = not differing
    message = verdict(7, "determinism", ok,
                      "two identical seed-0 train+eval runs: "
                      + ("all logs, checkpoints and reports byte-identical"
                         if ok else f"files differ: {', '.join(differing)}"))
    assert ok, message
