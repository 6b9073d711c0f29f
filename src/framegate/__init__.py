"""Two-frame autoencoder with annealed discrete gating.

Bottom-up: a reverse-mode tensor engine (`autodiff`), gating operations on
it (`gating`), the encoder / decoder pair (`model`), seeded random streams
(`streams`), a synthetic sprite-world dataset (`sprites`), the training loop
(`trainer`), evaluation and image output (`evaluation`) and a command line
front end (`cli`); `keyvalue` and `atomic` read and write their files.
"""

from .autodiff import Tensor, Tape, apply, backward, constant, grad_check
from .gating import SharpenParams, combine_heads, gate_weights, hard_select, mix, sharpen
from .model import ForwardResult, ModelConfig, ModelParams, decode, encode, forward_pair
from .sprites import Pairs, generate_dataset, load_dataset, render, sample_pair
from .trainer import Adam, Checkpoint, TrainConfig, fit, load_checkpoint, save_checkpoint, schedule_at, train_epoch

__version__ = "0.1.0"
