"""Fixed references that measure how fast the machine runs now.

On a shared machine the speed of one core drifts by a factor of up to
1.7 over tens of seconds, as neighbours load the caches, memory and
hyperthread siblings; process CPU time drifts with it, so it is no
remedy. Each timing is therefore scaled by a reference of the same kind
of work, measured right next to it:

- an operation by ``kernel_s``, timed before and after it: numpy
  gathers, blends and einsum reductions over arrays of a few MB, what
  charfred spends most of its time on, written into buffers allocated
  once so allocator state left behind by an operation cannot change it;
- a set-up by ``import_s``, timed right before it: a fresh interpreter
  importing numpy, the bulk of charfred's own start-up. Import speed
  drifts differently from numpy throughput (set-up slowed by 20% for
  minutes while operations did not).

Neither reference calls charfred, so no change to the program moves it.
"""
from __future__ import annotations

import functools
import subprocess
import sys
import time

import numpy as np

# Median reference times on the reference machine (2-core shared x86 VM,
# Python 3.11, numpy 2.4); calibrated seconds equal wall seconds there.
REFERENCE_S = 0.025
IMPORT_REFERENCE_S = 0.23
PASSES = 3


@functools.cache
def _buffers():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((8, 40, 33, 33))
    return (field, rng.permutation(33), np.empty_like(field), np.ones(40),
            np.empty((8, 33, 33)))


def _pass_s() -> float:
    field, index, work, weights, out = _buffers()
    start = time.perf_counter()
    for _ in range(16):
        np.take(field, index, axis=2, out=work)
        np.multiply(work, 0.5, out=work)
        np.add(work, field, out=work)
        np.einsum("q,bqjk->bjk", weights, work, out=out)
    return time.perf_counter() - start


def kernel_s() -> float:
    """Wall seconds of the reference kernel: the fastest of PASSES passes,
    so one preempted pass does not pass for a slow machine."""
    return min(_pass_s() for _ in range(PASSES))


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall seconds to calibrated seconds around one interval."""
    return REFERENCE_S / (0.5 * (before_s + after_s))


def import_s(env: dict, cwd) -> float:
    """Wall seconds for a fresh interpreter to start, import numpy, exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=60)
    return time.perf_counter() - start
