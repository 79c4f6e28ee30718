"""The host's speed, read from a fixed reference kernel.

The benchmark shares a host whose speed per instruction changes in spells:
a kernel that takes 1.0 time unit in one spell takes about 0.75 or 1.4 in
another, and a spell lasts from a second to most of a minute.  A run of
30 s can fall wholly into a slow spell, so raw times of the same code spread
by 10-30% from run to run.

The runner therefore reads the kernel's speed before each child, after it,
and every few seconds while it runs (the child is stopped for each reading,
so the two never run at once), and scales the child's times to the
reference speed:

    reference seconds = measured seconds * factor(readings)

The kernel does what qmds spends most of its time on, without importing it:
it builds rows whose entries are field products read from exp/log tables.
A change to qmds cannot move it; a slow spell moves it and the child alike,
the kernel somewhat more (see SENSITIVITY).
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: Median kernel time on the reference machine (2-vCPU Intel Xeon at
#: 2.1 GHz, Python 3.11.7).  It only sets the scale: a reference second is
#: a second of that machine at its usual speed.
REF_KERNEL_S = 0.0030

#: How much a slow spell slows a qmds call, relative to the kernel, on a log
#: scale.  Fitted over 385 timed calls of the three workloads, each call
#: against its own mean: log(call time) = 0.67 * log(mean reading) + const.
#: Per workload the slope was 0.60 (construct-large), 0.79
#: (construct-highdeg) and 0.96 (sweep-default, 15 calls only).
SENSITIVITY = 0.7

#: Seconds of kernel runs in one reading.
READING_S = 0.08

#: exp/log tables of GF(16381), whose multiplicative group 2 generates.
_P = 16381
_EXP = [pow(2, i, _P) for i in range(2 * _P)]
_LOG = [0] * _P
for _i in range(_P - 1):
    _LOG[_EXP[_i]] = _i


def kernel(rows: int = 100, cols: int = 128) -> int:
    """Build a rows x cols matrix of products over GF(16381), row by row."""
    e, lg = _EXP, _LOG
    m = [[e[lg[1 + (i * 31 + j) % (_P - 1)] + lg[1 + j]] for j in range(cols)]
         for i in range(rows)]
    return sum(r[-1] for r in m)


def factor(readings: Sequence[float]) -> float:
    """What scales times measured while the kernel read `readings` to the
    reference speed."""
    return (REF_KERNEL_S / statistics.mean(readings)) ** SENSITIVITY


def reading(seconds: float = READING_S) -> float:
    """Median time of the kernel, run back to back for about `seconds`."""
    times = []
    end = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        times.append(t1 - t0)
        if t1 >= end:
            return statistics.median(times)
