"""Host-speed correction for the benchmark's timed bodies.

This benchmark runs on shared hosts whose speed for the simulation code
swings by up to 4x in regimes lasting seconds to minutes.  A tight
arithmetic loop does not follow those swings (it lives in L1 and the
ALUs); what does is a small kernel shaped like a discrete-event
simulator: a heap of (time, seq, event-object) entries (~1.5 MB),
object allocation and dict updates.  :func:`speed_sample` times that
kernel; it is fixed, seeded and independent of ``src/``, so a change to
the program under test cannot change it.

:class:`SpeedMeter` interleaves kernel samples with a timed body: the
body is cut into segments of at least :data:`SEGMENT_S` wall seconds
(at unit-of-work boundaries), each segment is bracketed by two samples
(each the median of :data:`RUNS_PER_SAMPLE` kernel runs), and its wall
time is rescaled to the reference speed::

    seconds = wall * (SPEED_REF_S / mean(before, after)) ** ELASTICITY

The kernel, all heap traffic, reacts more strongly to the host's swings
than the program does: the program's time follows the kernel's to the
power :data:`ELASTICITY` (below 1).  The rescaling is linear in the
wall time, so a change to the program moves the result by exactly the
share it moves wall time.  The result reads as the body's wall seconds
on a host where one kernel run takes :data:`SPEED_REF_S`.  Kernel time
itself is excluded from the body.  The raw wall seconds are kept next
to it.

Set-up time (spawning an interpreter and importing the program) is
work of another kind, which the kernel follows poorly.  Its reference
is a fresh interpreter running :data:`IMPORT_REF_CODE`, which imports a
fixed set of the modules the program's own imports lean on (numpy's C
extensions, asyncio, multiprocessing, ...) and nothing from ``src/``.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Kernel size: heap pushes per kernel run (~20-60 ms on a 2-CPU Xeon VM).
KERNEL_OPS = 20_000
#: One kernel run's time on the reference host [s].  A constant, so
#: corrected times from different runs and commits stay comparable.
SPEED_REF_S = 0.035
#: How strongly the body's time follows the kernel's.  Fitted on ten
#: runs per workload: of 0.6-1.1 in steps of 0.1, 0.8 gave the lowest
#: IQR/median of run_s summed over the four workloads (1.0 gave 1.5x
#: that).  Then checked on ten fresh runs per workload.
ELASTICITY = 0.8
#: Kernel runs per sample (their median is the sample: one run alone
#: jitters by +-15%).
RUNS_PER_SAMPLE = 3
#: Shortest body segment between two kernel samples [s].
SEGMENT_S = 0.5
#: The set-up reference, run with ``python -c``; it prints ``ready``.
IMPORT_REF_CODE = (
    "import argparse, asyncio, concurrent.futures, csv, dataclasses, "
    "hashlib, json, multiprocessing, numpy, typing; "
    "print('ready', flush=True)"
)
#: The set-up reference's time on the reference host [s].
IMPORT_REF_S = 0.25


class _Event:
    __slots__ = ("t", "seq", "payload")

    def __init__(self, t: float, seq: int, payload) -> None:
        self.t = t
        self.seq = seq
        self.payload = payload


def speed_sample() -> float:
    """Wall seconds of one run of the fixed DES-shaped kernel (with the
    collector off, so the program's heap size cannot change it)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(1)
        heap: list = []
        counts: dict = {}
        for i in range(KERNEL_OPS):
            t = rng.random()
            heapq.heappush(heap, (t, i, _Event(t, i, None)))
            counts[i & 4095] = counts.get(i & 4095, 0) + 1
            if i & 1:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedMeter:
    """Splits a timed body into kernel-bracketed segments.

    Call :meth:`start` before the body, :meth:`mark` at each unit-of-work
    boundary (it samples only once :data:`SEGMENT_S` has passed) and
    :meth:`stop` after it; then read :attr:`wall_s` and :attr:`seconds`.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.seconds = 0.0
        self.samples: list = []
        self._seg_start = 0.0

    def _sample(self) -> None:
        self.samples.append(
            statistics.median(speed_sample() for _ in range(RUNS_PER_SAMPLE))
        )
        self._seg_start = time.perf_counter()

    def _close(self, now: float) -> None:
        before = self.samples[-1]
        wall = now - self._seg_start
        self._sample()
        self.wall_s += wall
        mean = (before + self.samples[-1]) / 2
        self.seconds += wall * (SPEED_REF_S / mean) ** ELASTICITY

    def start(self) -> None:
        self._sample()

    def mark(self) -> None:
        now = time.perf_counter()
        if now - self._seg_start >= SEGMENT_S:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())
