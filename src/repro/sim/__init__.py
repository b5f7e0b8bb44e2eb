"""Deterministic discrete-event simulation substrate.

The rest of the repository models the cloud 3D-rendering stack (CPU, GPU,
PCIe, network, VNC proxies, applications) as processes running on top of
this engine.  The engine is intentionally small and self-contained: an
event heap, generator-based processes, timeouts, and the FIFO stores the
pipeline stages hand work through (plus a capacity resource).

The public surface mirrors the familiar process-based DES style::

    env = Environment()

    def producer(env, queue):
        yield env.timeout(2.5)
        yield queue.put("frame")

    def consumer(env, queue):
        frame = yield queue.get()

    queue = Store(env)
    env.process(producer(env, queue))
    env.process(consumer(env, queue))
    env.run(until=100.0)

Determinism contract
--------------------

Every experiment result in this repository — and the content-addressed
result cache keyed on scenario hashes — relies on the kernel being a
pure function of its inputs.  Concretely, the engine guarantees:

1. **Total event order.**  Pending events are processed in strict
   ``(time, priority, sequence-id)`` order, where the sequence id is
   assigned at scheduling time and increments by exactly one per
   scheduled event.  Ties at the same timestamp are FIFO within a
   priority class, and the one urgent class (process initialization)
   precedes every other event.
2. **No ambient nondeterminism.**  The kernel consults no wall clock,
   no ``id()``/``hash()`` of user objects, and no global state; all
   randomness in the models flows through the seeded
   :class:`~repro.sim.randomness.RandomStreams`.
3. **Replayability.**  The same model code, seeds and run horizon
   produce the same event sequence on any machine, in any process, on
   any kernel version honoring 1–2.

The contract is machine-checked: :class:`~repro.sim.trace.TraceRecorder`
snapshots a run's processed-event sequence (time, event type, process
id, value digest) as text, and the golden traces committed under
``tests/golden/`` pin real scenario workloads byte-for-byte across
kernel rewrites and executor backends.  Re-record them only after an
*intentional* semantic change, via
``python -m repro.experiments trace --update``.

Performance-sensitive kernel changes must keep the golden traces
byte-identical; the micro-benchmark in
``benchmarks/test_sim_core_speed.py`` guards throughput against the
committed baseline in ``benchmarks/BENCH_sim_core.json``.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.randomness import RandomStreams, StreamRandom
from repro.sim.trace import TraceRecorder

__all__ = [
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "StreamRandom",
    "Timeout",
    "TraceRecorder",
]
