"""A fixed kernel whose duration says how fast this machine runs right now.

On a shared host, other tenants slow every process down for stretches of
seconds to minutes: the same `coft run` took from 3.8 s to 6.8 s within a few
minutes on a 2-vCPU VM, and a tight numpy loop measured alongside it slowed
by the same factor. The benchmark therefore times this kernel just before
each run (in the worker, before the program starts) and just after it (in the
parent, once the worker has exited, so nothing the program leaves behind can
slow it) and reports times scaled to the speed at which one kernel chunk
takes `REFERENCE_S` seconds.

One chunk mixes the three kinds of work the workloads do: many small numpy
calls (per-call overhead), elementwise updates of 512x256 float64 arrays
(memory bandwidth), and JSON serialisation of Python records.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.02  # a chunk's duration at the reference speed
MEASURE_S = 0.5  # kernel time of one measurement


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 64))
        self.w = rng.standard_normal((64, 64))
        self.g = rng.standard_normal((512, 256))
        self.m = np.zeros_like(self.g)
        self.v = np.zeros_like(self.g)
        self.records = [{"sample_id": i, "label": i % 7, "confidence": 0.5 + i * 1e-4,
                         "status": "clean"} for i in range(1200)]

    def chunk(self) -> None:
        for _ in range(270):
            np.tanh(self.x @ self.w.T + 1.0)
        for _ in range(12):
            self.m *= 0.9
            self.m += 0.1 * self.g
            self.v *= 0.999
            self.v += 0.001 * self.g * self.g
        "\n".join(json.dumps(r, sort_keys=True) for r in self.records)


def measure() -> float:
    """Median duration of kernel chunks repeated for MEASURE_S (at least three)."""
    kernel = _Kernel()
    times = []
    end = perf_counter() + MEASURE_S
    while len(times) < 3 or perf_counter() < end:
        t0 = perf_counter()
        kernel.chunk()
        times.append(perf_counter() - t0)
    return statistics.median(times)
