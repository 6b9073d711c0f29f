"""Shared test helpers, and pytest hooks that collect acceptance verdicts
for the terminal summary."""

import numpy as np

from framegate import sprites
from framegate.sprites import FACTORS, Pairs, brightness_levels, quantize, render, sample_pair
from framegate.streams import stream

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def sprite_pairs(seed, count, n=8):
    """`count` rendered and quantized pairs with 2-pixel sprites and 3 brightness
    levels; pair i draws from stream(seed, i) and changes factor i mod 3."""
    labels = [FACTORS[i % 3] for i in range(count)]
    values = brightness_levels(3)
    frames = [[render(x, y, values[level], n, 2)
               for x, y, level in sample_pair(stream(seed, i), factor, n=n, s=2, levels=3)]
              for i, factor in enumerate(labels)]
    return Pairs(quantize(np.array(frames).reshape(count, 2, n * n)), np.array(labels, dtype=str))


def count_draws(monkeypatch) -> list:
    """Record every call of sprites.sample_pair and sprites.pair_words, the two ways
    generate_dataset draws."""
    calls = []
    for name in ("sample_pair", "pair_words"):
        def counted(*args, draw=getattr(sprites, name)):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(sprites, name, counted)
    return calls
