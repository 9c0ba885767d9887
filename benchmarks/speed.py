"""Machine-speed reference that rescales measured times.

A shared machine can change speed by more than half within minutes while
other tenants load it, which swamps any change in the program.  Around the
measured commands the benchmark times a fixed reference task that does not
use bellswap: an interpreter loop, small-array numpy calls and JSON
round-trips, the same kinds of work the program does.  A time measured next to
a reference sample of ``d`` seconds is reported as ``time * NOMINAL_S / d``,
which is the time on a machine that runs the reference in ``NOMINAL_S``.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

#: Reference-task time that defines the reported speed: about the task's
#: median on a shared 2-vCPU Xeon VM (10 to 22 ms there, from load alone).
NOMINAL_S = 0.016

#: Minimum command time between two reference samples.
SAMPLE_INTERVAL_S = 0.25

#: Samples taken at the start and at the end of every round.
BURST = 3


def reference_task() -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    rotation = np.eye(2)
    tensor = np.ones((2, 2, 2, 2), dtype=complex)
    for i in range(150):
        out = np.moveaxis(np.tensordot(rotation, tensor, axes=([1], [i % 4])), 0, i % 4)
        float(np.abs(out).sum())
    for i in range(150):
        doc = {"id": i, "values": [j * 0.5 for j in range(20)], "label": f"x{i}"}
        json.loads(json.dumps(doc))
        sorted(doc["values"], reverse=True)
        repr(doc)


class SpeedReference:
    """Reference samples taken between commands, grouped per round."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        reference_task()
        self._last = perf_counter()
        self._samples.append(self._last - start)

    def before_command(self) -> None:
        """Sample again once enough command time has passed since the last one."""
        if perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def start_round(self) -> None:
        self._samples.clear()
        for _ in range(BURST):
            self.sample()

    def end_round(self) -> float:
        """Scale factor for the times of the round that just ended: from the
        median of the samples taken since ``start_round``."""
        for _ in range(BURST):
            self.sample()
        return NOMINAL_S / statistics.median(self._samples)

    def around(self, fn):
        """Run ``fn`` as a round of its own; returns (result, scale factor)."""
        self.start_round()
        result = fn()
        return result, self.end_round()
