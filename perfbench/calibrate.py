"""Machine-speed calibration for the end-to-end timings.

The benchmark's host is shared, and its speed drifts by up to 2x in phases
of seconds to minutes: every instruction simply takes longer, so CPU time
follows wall time and a run that falls in a slow phase reads slow from start
to end, whatever statistic is taken inside it. To measure the package rather
than the phase, every timed call is bracketed by slices of a fixed kernel
that does not touch implogic (``unit``), and its time is scaled by how fast
that kernel ran around it:

    scaled = measured * REF_UNIT_S / (kernel time per unit around the call)

So a scaled time reads in seconds at the speed at which one unit takes
``REF_UNIT_S``, a round figure near the kernel's fastest time per unit on
the recording machine (NOTES.md). The constant only fixes the scale; a change to the package moves
the measured time and leaves the kernel alone, so it shows in full.

The kernel mixes what implogic spends its time on: interpreted float
arithmetic through ``math``, small frozen dataclasses, dict and attribute
look-ups, and short numpy calls on small arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

REF_UNIT_S = 100e-6
# a slice on either side of a call lasts about this share of the call
SLICE_SHARE = 0.25
MIN_UNITS = 4


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def unit() -> float:
    """One unit of the kernel: a fixed amount of work, about 0.1 ms."""
    acc = 0.0
    table = {}
    for i in range(120):
        p = _Point(i * 0.013, (i % 7) * 0.25)
        acc += math.sinh(p.x) / (1.0 + p.y) - math.exp(-p.x)
        table[i & 15] = p
    v = np.linspace(0.0, 1.0, 16)
    for _ in range(6):
        v = np.sinh(v * 0.5) + np.minimum(v, 0.3)
        acc += float(v[3])
    return acc + len(table)


@dataclass(frozen=True)
class Slice:
    units: int
    seconds: float


def measure(units: int) -> Slice:
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return Slice(units, time.perf_counter() - t0)


def slice_for(seconds: float) -> Slice:
    """A slice sized to bracket a call that takes ``seconds``."""
    return measure(max(MIN_UNITS, round(SLICE_SHARE * seconds / REF_UNIT_S)))


def scale(before: Slice, after: Slice) -> float:
    """Factor from measured seconds to seconds at the reference speed, from
    the slices on either side of a call."""
    return REF_UNIT_S * (before.units + after.units) / (before.seconds + after.seconds)
