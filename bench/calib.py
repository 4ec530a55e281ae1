"""Host-speed calibration: timings are reported at a reference speed.

The benchmark runs on a few cores of a shared host whose speed moves by
30-50 % for minutes at a time, separately on each core (a neighbour on
the sibling hardware thread and in the shared cache).  Forty forked reps
of *identical* work on ``riverside-sparse-window`` ranged 2.9-4.5 s of
CPU within one quarter of an hour; process CPU time moves with wall
time, so the guest cannot see the cause, only the slowdown, and no run
short enough for the driver's time limit averages it out.

So one sampler process per core in use, pinned to it, times two frozen
kernels every ``PERIOD_S`` with its own CPU clock and writes (when, how
long each took) into memory shared with the benchmark:

* ``spin``  -- interpreter-bound arithmetic, no memory traffic;
* ``chase`` -- dependent loads along a random cycle through 32 MB, so
  nearly every hop leaves the core's own caches.

The slowdown of a timed window is

    (mean spin / SPIN_REF_S) ** SPIN_EXPONENT
        * (mean chase / CHASE_REF_S) ** CHASE_EXPONENT

over the samples taken on the window's cores during the window, and
every timing the benchmark reports is divided by the slowdown of its own
window: it is the time the window would have taken on an undisturbed
core of the reference box.  The exponents are one pair for every
workload, the least-squares fit of log(time) on the two log(kernel
means) over 40 reps of identical work (1.16 and 0.21; the program slows
by more than the bare interpreter loop does); ``bench/fit_calib.py``
repeats the fit on any set of runs.  Over 16 seeds per workload the
correction took the spread of ``queries_per_s`` from 0.15-0.26 of the
median to 0.04-0.06.  The kernels are part of the benchmark, not of the
program: a change to the program cannot move them.  Raw values go to
the run's detail file beside the kernel means.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from time import perf_counter, process_time

import numpy as np

SPIN_ITERATIONS = 5_000
CHASE_HOPS = 1_500
CHASE_SLOTS = 1 << 22  # x 8 bytes = 32 MB
# The two kernels beside a busy workload on a quiet reference box (2-core
# Xeon 2.1 GHz, CPython 3.11): the speed every timing is scaled to.
SPIN_REF_S = 0.00033
CHASE_REF_S = 0.00028
SPIN_EXPONENT = 1.15
CHASE_EXPONENT = 0.2
PERIOD_S = 0.02
CLIP = 2.0
# 24 bytes a sample, at most 50 samples a second: room for half an hour.
CAPACITY = 100_000
_HEADER = 8
_SAMPLE = struct.Struct("ddd")
# The cores this process may use, before the benchmark pins anything.
ALL_CORES = sorted(os.sched_getaffinity(0))


def spin(n: int = SPIN_ITERATIONS) -> int:
    """Frozen kernel 1: interpreter-bound, no memory traffic."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def chase_table() -> memoryview:
    """One random cycle through ``CHASE_SLOTS`` slots (fixed seed)."""
    order = np.random.default_rng(0x0CA11B).permutation(CHASE_SLOTS)
    table = np.empty(CHASE_SLOTS, dtype=np.int64)
    table[order] = np.roll(order, -1)
    return memoryview(table)


def chase(table: memoryview, at: int, hops: int = CHASE_HOPS) -> int:
    """Frozen kernel 2: dependent loads, nearly every one a cache miss."""
    for _ in range(hops):
        at = table[at]
    return at


def _sample_forever(core: int, buffer: mmap.mmap, parent: int) -> None:
    os.sched_setaffinity(0, {core})
    table = chase_table()
    at = 0
    count = 0
    while count < CAPACITY and os.getppid() == parent:
        t0 = process_time()
        spin()
        t1 = process_time()
        at = chase(table, at)
        t2 = process_time()
        _SAMPLE.pack_into(
            buffer, _HEADER + count * _SAMPLE.size, perf_counter(), t1 - t0, t2 - t1
        )
        count += 1
        struct.pack_into("q", buffer, 0, count)
        time.sleep(PERIOD_S)


class Calibrator:
    """One pinned sampler process per core; stopped by ``close()``."""

    def __init__(self, on_cores: list[int]) -> None:
        self.buffers: dict[int, mmap.mmap] = {}
        self.pids: dict[int, int] = {}
        parent = os.getpid()
        for core in on_cores:
            buffer = mmap.mmap(-1, _HEADER + CAPACITY * _SAMPLE.size)
            pid = os.fork()
            if pid == 0:
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    _sample_forever(core, buffer, parent)
                finally:
                    os._exit(0)
            self.buffers[core] = buffer
            self.pids[core] = pid
        # The first window may open at once: wait for a sample per core.
        deadline = perf_counter() + 60.0
        while any(self._rows(core).shape[0] == 0 for core in on_cores):
            if perf_counter() > deadline:
                self.close()
                raise RuntimeError("calibration samplers did not start")
            time.sleep(PERIOD_S)

    def _rows(self, core: int) -> np.ndarray:
        """The samples of ``core`` so far: (when, spin_s, chase_s) rows."""
        buffer = self.buffers[core]
        (count,) = struct.unpack_from("q", buffer, 0)
        return np.frombuffer(
            buffer, dtype=np.float64, count=3 * count, offset=_HEADER
        ).reshape(count, 3)

    def kernel_means(
        self, start: float, end: float, on_cores=None
    ) -> tuple[float, float]:
        """Mean (spin, chase) seconds over [start, end], cores averaged.

        A sample the host interrupted reads ten times the others (the
        guest's CPU clock runs on while the core is taken away) and would
        move the mean of a two-second window by a tenth on its own, so
        samples are clipped at ``CLIP`` times the window's median.
        """
        spins, chases = [], []
        for core in on_cores or self.buffers:
            rows = self._rows(core)
            inside = rows[
                (rows[:, 0] >= start - PERIOD_S) & (rows[:, 0] <= end + 2 * PERIOD_S)
            ]
            if not len(inside):
                # A window shorter than a period: the sample nearest to it.
                inside = rows[[np.abs(rows[:, 0] - start).argmin()]]
            kernels = inside[:, 1:]
            clipped = np.minimum(kernels, CLIP * np.median(kernels, axis=0))
            spin_s, chase_s = clipped.mean(axis=0)
            spins.append(float(spin_s))
            chases.append(float(chase_s))
        return sum(spins) / len(spins), sum(chases) / len(chases)

    def close(self) -> None:
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in self.pids.values():
            os.waitpid(pid, 0)
        self.pids.clear()


def slowdown(means: tuple[float, float]) -> float:
    spin_s, chase_s = means
    return (spin_s / SPIN_REF_S) ** SPIN_EXPONENT * (
        chase_s / CHASE_REF_S
    ) ** CHASE_EXPONENT
