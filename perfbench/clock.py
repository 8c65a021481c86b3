"""Durations scaled to a nominal machine speed.

On a shared host the speed of one core drifts by about 20% over a few
seconds as other tenants load its sibling threads; the drift hits every
CPU-bound instruction stream alike. The clock therefore times a fixed
calibration kernel at least every INTERVAL_S and scales each duration by
NOMINAL_KERNEL_S over the mean kernel time at the two ends of the interval
it was measured in. The kernel mixes random draws, small numpy vectors,
Python calls, allocations and JSON parsing, as the package's hot loops and
certificate decoding do. A scaled millisecond is a millisecond on a machine that
runs the kernel in NOMINAL_KERNEL_S. Raw durations are kept as well.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

NOMINAL_KERNEL_S = 0.005
INTERVAL_S = 0.05

_E = np.linspace(0.0, 1.0, 2)
_DOC = json.dumps({"rows": [{"k": i, "x": [0.1 * i, 0.2 * i, 1.0 / (i + 1)],
                             "tag": "p%d" % i} for i in range(40)]})


def _dot(x, y) -> float:
    return max(float(x @ y), -1.0)


def _kernel() -> float:
    rng = np.random.default_rng(1)
    s = 0.0
    rows = []
    for i in range(200):
        u = rng.standard_normal(2)
        v = np.asarray(u / float(np.linalg.norm(u)), dtype=float)
        if np.all(np.isfinite(v)):
            s += _dot(v, _E) + rng.random() ** 0.5
        rows.append({"k": i, "x": [float(t) for t in v]})
    for _ in range(12):
        for row in json.loads(_DOC)["rows"]:
            s += float(np.asarray(row["x"], dtype=float).sum())
    return s + len(rows)


class Clock:
    """Calibration samples of one run and the scaling they imply."""

    def __init__(self):
        self.kernel: list[float] = []
        self._last = 0.0

    def calibrate(self) -> None:
        t0 = perf_counter()
        _kernel()
        self._last = perf_counter()
        self.kernel.append(self._last - t0)

    def calibrate_if_due(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()

    @property
    def mark(self) -> int:
        """Index of the latest calibration; durations measured from here on
        are scaled once the next calibration has run."""
        return len(self.kernel) - 1

    def scale(self, seconds: float, mark: int) -> float:
        kernel = 0.5 * (self.kernel[mark] + self.kernel[mark + 1])
        return seconds * NOMINAL_KERNEL_S / kernel

    def run_factor(self) -> float:
        """Scale for durations summed over the whole run."""
        return NOMINAL_KERNEL_S / statistics.median(self.kernel)
