"""Operation accounting and latency statistics for the benchmark."""

from __future__ import annotations

import math
import time
from collections import defaultdict


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def tail(samples) -> tuple[int, float] | None:
    """(percentile, value) for the highest integer percentile from 50 to 99
    that leaves at least 10 samples above it, by nearest rank.

    None when there are fewer than 20 samples, where even the median has
    fewer than 10 beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


class OpLog:
    """Counts operations attempted and failed, and times those that succeed.

    An operation fails when it raises, when its result fails the check, or
    when it is a command that exits nonzero (the check's job). The timed
    region covers the operation only, never its check.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: defaultdict[str, list[float]] = defaultdict(list)

    def run(self, kind: str, op, check=None):
        """(result, seconds) of op(), or None when it failed."""
        self.attempted += 1
        start = self.clock()
        try:
            result = op()
            elapsed = self.clock() - start
            if check is not None:
                check(result)
        except Exception as err:  # any failure of the program under test is counted
            self.failed += 1
            self.errors.append(f"{kind}: {type(err).__name__}: {err}")
            return None
        self.times[kind].append(elapsed)
        return result, elapsed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
