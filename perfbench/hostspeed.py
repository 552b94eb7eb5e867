"""Host speed, measured with a fixed task that does not use the package.

The benchmark host shares its CPUs with other machines' work.  Over a
few minutes one and the same co-simulation pass took anywhere from 0.10
to 0.19 s, with CPU time equal to wall time: the CPU itself ran slower,
so no choice of clock or of statistic over passes removes it.  The
reference task below slows down with the host but cannot be changed by
a change to the package, so dividing a time by the reference time
measured next to it, in the same processes, leaves the part of the time
the package controls.

``NOMINAL_S`` is the reference time on the quiet host (2-CPU Intel Xeon
container, Python 3.11, numpy 2.4, one BLAS thread); a scaled time is
the time the work would have taken there.
"""

from __future__ import annotations

import cmath
import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

#: median seconds of one ``_task`` call on the quiet reference host
NOMINAL_S = 0.0118
#: task calls per sample; the sample is their median.  A parallel
#: sample stands for a multi-second ensemble pass, so it takes more.
CALLS = 4
PARALLEL_CALLS = 8
_DIM = 30
_STEPS = 2000

_rng = np.random.default_rng(0)
_M = (_rng.standard_normal((_DIM, _DIM))
      + 1j * _rng.standard_normal((_DIM, _DIM))) / _DIM
_V0 = _rng.standard_normal(_DIM) + 1j * _rng.standard_normal(_DIM)
_V0 /= np.linalg.norm(_V0)


def _task() -> float:
    """Small complex matrix-vector products and Python scalar work, the
    mix of the package's trajectory loops."""
    v = _V0.copy()
    acc = 0.0
    for _ in range(_STEPS):
        u = _M @ v
        s = np.vdot(v, u).real
        v = v + 1e-4 * u
        v *= 1.0 / math.sqrt(np.vdot(v, v).real)
        acc += cmath.exp(1j * s).real * 1e-3
    return acc


def sample(calls: int = CALLS) -> float:
    """Seconds of one reference task in this process now (median of
    ``calls`` runs)."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ParallelSampler:
    """Reference samples for work spread over ``n`` processes.

    The task runs in ``n`` helper processes at once, as the ensemble's
    pool workers run, and the sample is the reference time at their
    combined rate, n / sum(1 / t_i)."""

    def __init__(self, n: int):
        self.n = n
        # fork, as the package's own pool: the spawn context would start
        # a resource-tracker process that outlives the benchmark
        self._pool = ProcessPoolExecutor(
            max_workers=n, mp_context=multiprocessing.get_context("fork"))
        self()  # start the helpers before the first sample counts

    def __call__(self) -> float:
        futures = [self._pool.submit(sample, PARALLEL_CALLS)
                   for _ in range(self.n)]
        times = [f.result() for f in futures]
        return self.n / sum(1.0 / t for t in times)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
