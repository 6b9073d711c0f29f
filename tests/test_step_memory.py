"""tools/step_memory.py reports one epoch's faults and phase peaks and what
Adam holds between steps, and leaves the trainer as it found it."""

import importlib.util
import re
from pathlib import Path

from framegate import trainer
from framegate.model import ModelConfig, ModelParams

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_memory.py"


def _tool():
    spec = importlib.util.spec_from_file_location("step_memory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_memory_reports_each_epoch_and_phase_at_side_8(capsys):
    real = (trainer.forward_batch, trainer.backward, trainer.Adam.step)
    assert _tool().main(["--side", "8", "--batch-size", "16", "--heads", "2",
                         "--count", "100", "--epochs", "2"]) == 0
    assert (trainer.forward_batch, trainer.backward, trainer.Adam.step) == real
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[0] == "side 8, batch 16, 2 head(s), 100 pairs"
    assert all(re.fullmatch(rf"epoch {k}: \d+ minor page faults", lines[1 + k]) for k in (0, 1))
    peaks = re.fullmatch(r"epoch 2 peak above its start: forward ([\d.]+) MB, "
                         r"backward ([\d.]+) MB, adam ([\d.]+) MB", lines[3])
    forward, backward, adam = map(float, peaks.groups())
    # During Adam a step holds its whole tape and its gradients. The next
    # forward records a tape of the same size, so it peaks lower only if the
    # previous step's tape is gone by then.
    assert 0 < forward < adam and backward > 0
    # Two moment vectors as long as the parameters, and two scratch blocks.
    size = ModelParams.size(ModelConfig(image_side=8, num_heads=2))
    assert lines[4] == (f"adam holds between steps: moments {2 * 8 * size} bytes, "
                        f"scratch {2 * 8 * min(size, trainer._BLOCK)} bytes")
