"""Host-speed calibration: a fixed interpreter-bound kernel and steal ticks.

Shared virtual machines drift: the same simulation can take 15-20% longer
a few minutes later because the hypervisor steals cycles or the host
clocks down.  The benchmark therefore times this kernel immediately
before and after every repetition and rescales the repetition's wall
time by ``NOMINAL_KERNEL_S / mean(kernel before, kernel after)``.  Drift
slows the kernel and the simulator alike, so it cancels in the ratio.

The kernel is owned by the benchmark and touches nothing in ``repro``,
so no change to the simulator can move it.  It exercises what the
simulator's event machine spends its time on: closure creation,
``heapq`` pushes and pops on a small heap, and calls through closures.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["KERNEL_EVENTS", "NOMINAL_KERNEL_S", "calibrate", "kernel", "steal_ticks"]

#: Events the kernel fires per call.
KERNEL_EVENTS = 200_000

#: Pending events the kernel keeps on its heap (the simulator's heap
#: stays a few hundred entries deep, too).
KERNEL_WIDTH = 512

#: The kernel's wall time inside a benchmark process on the reference
#: host (2-vCPU VM, CPython 3.11).  Calibrated seconds are seconds on
#: that host; the constant only sets the unit and never changes between
#: commits.
NOMINAL_KERNEL_S = 0.33


def kernel(events: int = KERNEL_EVENTS, width: int = KERNEL_WIDTH) -> int:
    """Fire ``events`` closure events through a bounded ``heapq`` queue.

    Each fired event returns its delay; the loop schedules a fresh
    closure that far in the future, as a simulator's completion callback
    schedules the next stage.  Returns the number of events fired.
    """
    fired = [0]

    def make(delay: float):
        def fire() -> float:
            fired[0] += 1
            return delay

        return fire

    heap: list = []
    for i in range(width):
        heapq.heappush(heap, ((i * 7919) % width * 0.5, i, make(1.0 + (i * 31) % 17)))
    pop, push = heapq.heappop, heapq.heappush
    seq = width
    for _ in range(events):
        now, _, fire = pop(heap)
        delay = fire()
        seq += 1
        push(heap, (now + delay, seq, make((delay * 7.0) % 17 + 1.0)))
    return fired[0]


def calibrate() -> float:
    """Wall seconds one :func:`kernel` call takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def steal_ticks() -> int:
    """Cumulative hypervisor steal ticks of all CPUs (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0
    # "cpu user nice system idle iowait irq softirq steal ..."
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0
