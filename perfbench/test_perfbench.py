"""Tests for the benchmark's own arithmetic and for where its wrappers sit.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_nested_and_back_to_back_children():
    # A [0, 10] holds B [1, 3] and, starting the instant B ends, C [3, 8];
    # C holds D [5, 6]. Children cover 7 s of A, and 1 s of C.
    tracer = spans.Tracer(clock=fake_clock(0, 1, 3, 3, 5, 6, 8, 10))
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("C")
    tracer.enter("D")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert dict(tracer.self_s) == {"A": 3, "B": 2, "C": 4, "D": 1}
    assert dict(tracer.calls) == {"A": 1, "B": 1, "C": 1, "D": 1}


def test_self_time_sums_over_repeated_calls_of_one_span():
    tracer = spans.Tracer(clock=fake_clock(0, 1, 3, 4, 10, 12, 13, 20))
    for _ in range(2):
        tracer.enter("outer")
        tracer.enter("inner")
        tracer.exit()
        tracer.exit()
    assert tracer.self_s["inner"] == (3 - 1) + (13 - 12)
    assert tracer.self_s["outer"] == (4 - 0 - 2) + (20 - 10 - 1)
    assert tracer.calls["outer"] == 2


def test_paused_tracer_records_nothing():
    tracer = spans.Tracer(clock=fake_clock(0, 1))
    with tracer.pause():
        assert tracer.call("x", lambda: 7) == 7
        tracer.count("bytes", 10)
    assert not tracer.calls and not tracer.counts


@pytest.mark.parametrize("n, expected_p", [(19, None), (20, 50), (25, 60), (100, 90), (1000, 99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected_p):
    samples = [float(v) for v in range(1, n + 1)]  # value == rank
    found = measure.tail(reversed(samples))
    if expected_p is None:
        assert found is None
        return
    p, value = found
    assert p == expected_p
    assert sum(1 for s in samples if s > value) >= 10
    # one percentile higher would leave fewer than ten beyond
    if p < 99:
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


def test_error_rate_counts_every_kind_of_failure(tmp_path):
    ops = measure.OpLog(clock=fake_clock(*range(100)))
    bad_log = tmp_path / "log.tsv"
    bad_log.write_text("0\t1.0\t0.05\tnan\t0.1\t0.2\n")

    def raises():
        raise ValueError("boom")

    assert ops.run("ok", lambda: 0, workloads.check_exit) == (0, 1)
    assert ops.run("raises", raises) is None
    assert ops.run("exit code", lambda: 1, workloads.check_exit) is None
    assert ops.run("non-finite loss", lambda: bad_log,
                   lambda path: workloads.check_log(path, 1)) is None
    assert ops.run("ok", lambda: None) is not None
    assert (ops.attempted, ops.failed) == (5, 3)
    assert ops.error_rate == pytest.approx(0.6)
    assert [e.split(":")[0] for e in ops.errors] == ["raises", "exit code", "non-finite loss"]
    assert len(ops.times["ok"]) == 2 and "raises" not in ops.times


def test_empty_oplog_has_zero_error_rate():
    assert measure.OpLog().error_rate == 0.0


def test_wrappers_sit_on_every_caller_binding_and_come_off_again():
    from framegate import gating, model, trainer
    from framegate.gating import SharpenParams

    original_apply = model.apply
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        assert model.apply is not original_apply and gating.apply is model.apply
        assert spans.installed_wrappers() == len(replaced)
        config = model.ModelConfig(image_side=4, latent_dim=4, enc_hidden=(6,),
                                   dec_hidden=(6,), gate_hidden=5)
        params = model.ModelParams.initialize(config, np.random.default_rng(0))
        batch = np.random.default_rng(1).random((3, 16))
        tape = trainer.Tape()
        batch_params, leaves = trainer.prepare_batch_params(params, tape)
        result = trainer.forward_batch(batch, batch, batch_params, SharpenParams(gamma=2.0),
                                       rng=np.random.default_rng(2))
        trainer.backward(result.loss)
    finally:
        spans.uninstall(replaced)
    assert spans.installed_wrappers() == 0
    assert model.apply is original_apply
    for span in ("model.prepare_batch_params", "model.forward_batch", "model.encode",
                 "model.decode", "gating.sharpen", "autodiff.apply.matmul",
                 "autodiff.backward"):
        assert tracer.calls[span] >= 1, span
    assert tracer.counts["steps"] == 1
    assert tracer.counts["tape_nodes"] == tape.num_nodes


@pytest.mark.parametrize("a, b, flops", [((64, 256), (256, 128), 2 * 64 * 256 * 128),
                                         ((5, 8), (8,), 2 * 5 * 8),
                                         ((8,), (8, 3), 2 * 8 * 3)])
def test_matmul_flops_from_shapes(a, b, flops):
    assert spans._matmul_flops(a, b) == flops
