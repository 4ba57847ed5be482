"""How fast this CPU runs, from a fixed benchmark-owned kernel timed alongside the work.

The 2-vCPU VM the benchmark was tuned on changes speed under it: the same
work, back to back, runs 1.6-2x faster or slower for a fraction of a second
or for whole runs, in CPU time as much as in wall time (so it is not steal).
Every timing the benchmark reports is therefore scaled to a reference speed.

A :class:`Sampler` thread in the system process times a burst of
``BURST`` *pulses* every ``PERIOD_SECONDS``.  A pulse is a short kernel that
touches nothing of the program — dict, tuple and sort work in the
interpreter, then hashing, scatter-adds and gathers over a Count-Min-sized
numpy table — timed in the thread's own CPU time, so waiting for the GIL or
for the CPU does not count.  A burst records its median pulse: the first
pulse of a burst runs from cold caches and follows the machine's speed less
than the program's work does.  :func:`speed_over` is the reference pulse
time divided by the median recorded pulse over an interval: above 1 when
the CPU ran faster than the reference.  Times measured over that interval
are multiplied by it and rates divided.  The kernel is the benchmark's own,
so a change to the program moves the measured times and not the scale.
The bursts take about 1% of the CPU.
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: Median thread CPU time of one pulse at the reference speed (the usual
#: state of the VM the benchmark was tuned on).
REFERENCE_PULSE_SECONDS = 0.00045
PERIOD_SECONDS = 0.2
BURST = 5
#: An interval holding fewer bursts is widened to the nearest this many.
MIN_BURSTS = 5

_TABLE_WIDTH = 16_384
_KEYS = np.random.default_rng(20_110_901).integers(0, 1 << 31, 1_024)
_TABLE = np.zeros((4, _TABLE_WIDTH))
_WORDS = [f"edge-{i}" for i in range(384)]


def _pulse() -> float:
    counts: dict = {}
    for i, word in enumerate(_WORDS):
        key = (word[-2:], i & 15)
        counts[key] = counts.get(key, 0) + len(word)
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    total = float(ranked[0][1])
    for row in range(4):
        index = (_KEYS * (2 * row + 40_503) + 2_654_435_761) % _TABLE_WIDTH
        np.add.at(_TABLE[row], index, 1.0)
        total += float(_TABLE[row][index].min())
    return total


class Sampler:
    """A daemon thread timing a burst of pulses every ``PERIOD_SECONDS`` until stopped."""

    def __init__(self) -> None:
        #: ``[wall_ns at the burst's end, median thread CPU seconds of a pulse]``
        self.pulses: list = []
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            burst = []
            for _ in range(BURST):
                began = time.thread_time()
                _pulse()
                burst.append(time.thread_time() - began)
            self.pulses.append([time.perf_counter_ns(), float(np.median(burst))])
            if self._stopped.wait(PERIOD_SECONDS):
                return

    def stop(self) -> list:
        self._stopped.set()
        self._thread.join()
        return self.pulses


def speed_over(pulses, begin_ns: float, end_ns: float) -> float:
    """The CPU's speed over ``[begin_ns, end_ns]`` relative to the reference.

    ``pulses`` are :attr:`Sampler.pulses`; the bursts inside the interval
    count, or the ``MIN_BURSTS`` nearest its middle when it holds fewer.
    """
    stamps = np.asarray([stamp for stamp, _seconds in pulses], dtype=np.float64)
    seconds = np.asarray([pulse for _stamp, pulse in pulses], dtype=np.float64)
    inside = (stamps >= begin_ns) & (stamps <= end_ns)
    if np.count_nonzero(inside) < MIN_BURSTS:
        nearest = np.argsort(np.abs(stamps - (begin_ns + end_ns) / 2))[:MIN_BURSTS]
        inside = np.zeros(len(stamps), dtype=bool)
        inside[nearest] = True
    return REFERENCE_PULSE_SECONDS / float(np.median(seconds[inside]))
