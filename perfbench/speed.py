"""Host-speed probe, so that timings from a drifting shared host compare.

On the 2-core shared host this benchmark was built on, the same job's wall
time drifts by up to half within a minute, and CPU time drifts with it, so
the drift is the host's speed, not the job's.  Medians over one run cannot
remove drift that lasts longer than the run.  Every pass therefore runs a
fixed probe between jobs: interpreter work, small-array numpy work and
small-object allocation, the mix the jobs themselves run, and nothing from
ldpccc, so no change to the program can move it.  Timing metrics are
reported at reference speed:

    reported seconds = measured seconds * REF_S / local probe seconds

where the local probe seconds are the median of the probes run just
before and just after the timed interval.  REF_S is the probe's duration
on that host in its faster state.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.00125

# Set-up runs in fresh interpreters, where process start, file reads and
# page faults matter more than the probe's kind of work.  There the
# yardstick is numpy's import, timed in the same interpreter just before:
#
#     reported set-up seconds = measured * NUMPY_IMPORT_REF_S / numpy import
#
# The set-up interpreters run with one OpenBLAS thread: starting a second
# one during numpy's import took 0.07 s more or less depending on the load
# on the other core, which set-up itself does not feel.  NUMPY_IMPORT_REF_S
# is numpy's import time with one OpenBLAS thread on that host.
NUMPY_IMPORT_REF_S = 0.08

_ARR = np.arange(512, dtype=np.int64)
_IDX = (np.arange(96, dtype=np.int64) * 37) % 512


def probe() -> float:
    """Seconds one fixed slice of mixed work takes now."""
    t0 = time.perf_counter()
    acc = 0
    rows = []
    for i in range(250):
        b = _ARR[_IDX] * 3 + i
        acc += int(b.sum()) & 0xFF
        rows.append((i, acc & 7, "R", i * 3))
        table = {k: k ^ i for k in range(6)}
        acc += len(table) + len(str(rows[-1]))
    return time.perf_counter() - t0


class SpeedMeter:
    """Probe samples in the gaps around a sequence of timed intervals.

    Gap i is taken just before interval i and gap i + 1 just after it; the
    host's speed during the interval is judged from those two gaps only,
    because the speed wanders within seconds but adjacent fractions of a
    second stay alike.
    """

    def __init__(self):
        self.gaps: list[list[float]] = []

    def gap(self, budget_s: float):
        """Probe at least once, and until budget_s seconds are spent."""
        end = time.perf_counter() + budget_s
        samples = [probe()]
        while time.perf_counter() < end:
            samples.append(probe())
        self.gaps.append(samples)

    def scale(self, seconds: list[float]) -> list[float]:
        """Each interval's seconds at reference speed."""
        if len(self.gaps) != len(seconds) + 1:
            raise ValueError("need one probe gap before and after every interval")
        return [t * REF_S / statistics.median(before + after)
                for t, before, after in zip(seconds, self.gaps, self.gaps[1:])]

    @property
    def n_probes(self) -> int:
        return sum(map(len, self.gaps))
