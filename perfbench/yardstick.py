"""A yardstick of how fast this machine runs interpreted code right now.

On a shared machine the CPU time of identical work drifts by 1.3-1.9x
over minutes as neighbours come and go, more than the regressions the
benchmark must catch.  A run therefore measures this frozen miniature
discrete-event simulation (generators, a heap, dicts, floats and a
seeded RNG: the kinds of work the simulator does, in code no change to
``repro`` can touch) right before every cycle, and states the cycle's
times in *reference seconds*: seconds on a machine on which the
yardstick takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Yardstick events per measurement.
EVENTS = 300_000
#: The yardstick's time, in seconds, on the 2-vCPU machine the baseline
#: was recorded on, in its quiet spells.
REFERENCE_S = 0.25


def _process(rng: random.Random, period: float, stats: dict):
    while True:
        work = rng.random() * period
        stats["n"] += 1
        stats["busy"] += work
        yield work + period


def measure(events: int = EVENTS) -> tuple[float, float]:
    """``(cpu_s, wall_s)`` of one run of the yardstick simulation."""
    rng = random.Random(7)
    stats = [{"n": 0, "busy": 0.0} for _ in range(64)]
    queue = [(0.0, i, _process(rng, 0.001 * (1 + i % 7), stats[i])) for i in range(64)]
    heapq.heapify(queue)
    sequence = len(queue)
    log = {}
    # The collector would scan the caller's heap, which differs between
    # workloads; the yardstick must measure the machine alone.
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        for _ in range(events):
            now, _, process = heapq.heappop(queue)
            delay = next(process)
            log[sequence & 1023] = (now, delay)
            sequence += 1
            heapq.heappush(queue, (now + delay, sequence, process))
        return time.thread_time() - cpu0, time.perf_counter() - wall0
    finally:
        gc.enable()
