"""The benchmark's traced names stay in use.

perfbench/spans.py wraps framegate's public functions by name, and a traced
benchmark run fails if one of them is never called. This runs the four CLI
commands on a tiny dataset under the same tracer, so a refactor that leaves
a traced function uncalled fails here in seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402

from framegate import cli  # noqa: E402
from framegate.autodiff import PRIMITIVE_KINDS  # noqa: E402

TINY_CONFIG = """
latent_dim = 6
enc_hidden = 16
dec_hidden = 16
gate_hidden = 8
epochs = 2
batch_size = 4
checkpoint_every = 0
"""


def test_every_primitive_but_sum_has_an_apply_span():
    # A primitive added to or removed from the engine fails here, not in a
    # traced benchmark run. sum has no span: the model never applies it.
    assert len(set(spans.APPLY_KINDS)) == len(spans.APPLY_KINDS)
    assert set(spans.APPLY_KINDS) == PRIMITIVE_KINDS - {"sum"}


def test_cli_commands_record_every_benchmark_span(tmp_path, capsys):
    data = tmp_path / "data"
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG)
    checkpoint = str(tmp_path / "run" / "checkpoint_final.txt")
    commands = (
        ["gen-data", "--out", str(data), "--seed", "0", "--count", "20", "--side", "8",
         "--sprite", "2", "--levels", "3"],
        ["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "run")],
        ["eval", "--checkpoint", checkpoint, "--data", str(data)],
        ["traverse", "--checkpoint", checkpoint, "--data", str(data), "--pair-index", "0",
         "--component", "0", "--steps", "3"],
    )
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        codes = [cli.run(argv) for argv in commands]
    finally:
        spans.uninstall(replaced)
    capsys.readouterr()
    assert spans.installed_wrappers() == 0
    assert codes == [0, 0, 0, 0]
    assert spans.missing_spans(tracer) == []
    # gen-data draws its pairs in one array pass; sample_pair runs only to
    # check the first three against numpy's own stream.
    assert tracer.calls["sprites.sample_pair"] == 3
