"""Host-speed reference: a fixed loop timed next to every measured op.

The benchmark shares a CPU whose speed swings by up to 2x for tens of
seconds at a time.  CPU time slows with wall time, and the two vCPUs slow
independently of each other, so the cause is load outside the VM, and a
raw wall time says as much about the host as about the package.  Every
timed op (and every set-up sample) is therefore bracketed by two runs of
a fixed reference loop on the same CPU (run.py pins itself and its
children to one), and its time is scaled by NOMINAL_S / (mean of the two
reference times): its duration at the host speed where the reference
loop takes NOMINAL_S.  The raw times are kept in the result details.

The loop is a mix of the interpreter work the package does (dict and
list updates, integer arithmetic, str formatting, calls) and small NumPy
kernels (Generator draws, searchsorted, a reduction) on arrays that fit
in L2.  It calls no package code.
"""

from __future__ import annotations

import time

import numpy as np

# Reference-loop time at the nominal host speed: a little above its
# 3.6-3.7 ms at full speed on a 2-vCPU Intel Xeon VM (Python 3.11,
# NumPy 2.4), where it reads up to 6.5 ms when the host is busy.  It only
# sets the scale of the adjusted figures.
NOMINAL_S = 0.004

_CUTS = np.linspace(0.0, 1.0, 64)


def _interp(rounds: int) -> int:
    table: dict[int, int] = {}
    items: list[str] = []
    acc = 0
    for k in range(rounds):
        table[k & 511] = table.get(k & 511, 0) + k
        acc = (acc * 31 + k) & 0xFFFFFFFF
        if k & 7 == 0:
            items.append(f"{k}:{acc & 1023}")
    return acc + len(items) + len(table)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    rng = np.random.Generator(np.random.PCG64(12345))
    t0 = time.perf_counter()
    _interp(6000)
    for _ in range(4):
        np.searchsorted(_CUTS, rng.random(8192)).sum()
    return time.perf_counter() - t0


def adjusted(raw_s: float, before_s: float, after_s: float) -> float:
    """`raw_s` scaled to the nominal host speed."""
    return raw_s * NOMINAL_S / (0.5 * (before_s + after_s))
