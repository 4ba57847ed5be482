"""Keeps one CPU out of its idle state while a served workload runs.

    python perfbench/spin.py SLOT

Pinned to the ``SLOT``-th allowed CPU (see :func:`inputs.own_cpu`) at the
``SCHED_IDLE`` policy, the process spins until its parent exits.  It runs
only when nothing else on that CPU can and gives way at once to any task
that wakes, so the CPU never halts.  On a VM a halted vCPU is woken by the
host, which adds milliseconds whenever the host is busy, and a request that
crosses two processes waits for several such wake-ups: on the 2-vCPU VM the
benchmark was tuned on, whole runs without the spinners read open-loop p50
latency 40-190% higher and closed-loop throughput 10-20% lower.  With them
a wake-up is an ordinary context switch inside the guest.
"""

from __future__ import annotations

import os
import sys

import inputs


def main() -> int:
    inputs.own_cpu(int(sys.argv[1]))
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
