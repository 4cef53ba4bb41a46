"""Host-speed calibration of the benchmark's gated timings.

On a shared host, other tenants' load moves every timing of a run by tens of
percent, and a whole run can land in a slow period, so a median over the run
does not remove it.  A fixed calibration kernel -- interpreter loops and small
numpy operations, no program code -- is therefore timed in slices between the
program's timed calls, for about ``SHARE`` of the time measured.  A phase's
timings are reported at the reference speed, at which one slice takes
``REF_SLICE_S``:

    reported = measured * REF_SLICE_S / median(slice times of the phase)

A change to the program moves the measured time and leaves the slices alone,
so it shows in full; a slow period stretches both and largely cancels.  The
raw figures are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.2
REF_SLICE_S = 0.005  # about a median slice on a shared 2-vCPU Xeon VM (Python 3.11)
_ROWS = np.random.default_rng(12345).integers(0, 2, (32, 32), dtype=np.uint8)


def kernel_slice() -> int:
    """A fixed amount of interpreter and small-array work (~5 ms)."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    table = {}
    for i in range(750):
        acc += int(np.count_nonzero(_ROWS[i & 31] ^ _ROWS[(i * 7) & 31]))
        table[i & 127] = acc ^ i
        pair = [acc, i]
        pair.sort()
    return acc


class Calibrator:
    """Runs calibration slices in proportion to the time handed to ``pace``."""

    def __init__(self, share: float = SHARE):
        self.share = share
        self.owed = 0.0
        self.slices: list[float] = []
        for _ in range(3):  # warm the kernel's code and data
            kernel_slice()

    def pace(self, measured_s: float) -> None:
        """Owe `share` of `measured_s` to calibration and pay it off in slices."""
        self.owed += self.share * measured_s
        while self.owed > 0.0:
            t0 = time.perf_counter()
            kernel_slice()
            took = time.perf_counter() - t0
            self.slices.append(took)
            self.owed -= took

    def slice_s(self) -> float:
        return statistics.median(self.slices)

    def scale(self) -> float:
        """Factor that takes this phase's measured seconds to the reference speed."""
        return REF_SLICE_S / self.slice_s()
