"""The host's momentary CPU speed, from a fixed reference kernel.

On a shared host the same batch can take anywhere from 0.3 s to 0.55 s of
CPU time, and the machine drifts between fast and slow spells that last from
seconds to minutes, so runs a few minutes apart disagree by more than any
bound worth having.  A fixed kernel, timed between batches, slows down and
speeds up with the program.  It has two halves, like the program: plain
Python work (dict lookups, integer unions and bit counts over combinations,
float math) and many small numpy calls.  In a probe that ran the same batch
over and over, dividing each batch's CPU time by a kernel of this kind
timed just before it cut the batch time's quartile spread from 0.19-0.33
to 0.09-0.13 of its median on the three workloads; either half alone left
0.12-0.20.  ``factor`` turns CPU times into reference seconds: the time
the same work would take on a host where the kernel takes ``NOMINAL_S``.

The kernel is independent of the package, so a change to the program moves
its timings in full; only the host's drift is divided out.  Never change the
kernel or ``NOMINAL_S``: every earlier figure is in their units.
"""

from __future__ import annotations

import itertools
import math
from time import process_time

import numpy as np

# Median CPU time of ``kernel()`` on the 2-core shared x86-64 host (Python
# 3.11, numpy 2.4) the benchmark was built on.
NOMINAL_S = 0.040

_MASKS = {f"t{i:02d}": (0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 30) - 1) for i in range(12)}
_GRID = np.linspace(0.1, 0.9, 256)
_CHECKSUM = 1_984_783


def kernel() -> int:
    """Fixed work; returns a checksum so that a broken kernel shows."""
    total = 0
    keys = sorted(_MASKS)
    for rep in range(200):
        for combo in itertools.combinations(keys, 3):
            union = 0
            for key in combo:
                union |= _MASKS[key]
            total += union.bit_count()
        total += int(math.erfc(-rep / 50.0) * 100)
    for _ in range(80):
        for j in range(20):
            total += int(np.exp(-_GRID[j] * _GRID).sum())
            total += int(np.sqrt(_GRID * 1.0001 + 0.5).sum())
    return total


def measure() -> float:
    """CPU seconds one run of the kernel takes now."""
    started = process_time()
    total = kernel()
    elapsed = process_time() - started
    if total != _CHECKSUM:
        raise RuntimeError(f"speed kernel checksum {total}, expected {_CHECKSUM}")
    return elapsed


def factor(times: list[float]) -> float:
    """Reference seconds per CPU second, from kernel times taken around some work."""
    return NOMINAL_S * len(times) / sum(times)
