"""Reference-host seconds: CPU time scaled by the host's measured speed.

Process-CPU time is not a steady clock on a shared host.  On the 2-vCPU
VM this benchmark was sized on, neighbours slow whatever runs by up to
45%, in bursts of 0.1-1 s and in spells of many minutes, so the raw
requests-per-CPU-second of one workload read 25k in a quiet hour and
12k-18k in a noisy one.  A loop that does the same kind of work as the
program slows by the same factor, so its rate, sampled right before and
right after each short piece of measured work, converts that piece's CPU
seconds into the seconds a *reference host* (this one, when quiet)
would have spent.  Measured over the noisy hour, scaled figures stayed
within 7% of their quiet values on every workload while raw ones fell
20-50%.

The loop below is a miniature discrete-event simulator with the
program's instruction mix — generator coroutines resumed through event
callbacks, a tuple heap, dict and LRU lookups over a working set larger
than the CPU caches, small-object churn, float arithmetic — because a
tight loop that lives in L1 slows down *more* than the program does
(per slice, the program's slowdown went as the 0.4-0.7th power of a
bare heap/generator loop's, and as the 0.65-0.97th power of this one's).
It imports nothing from ``repro`` and is frozen: editing it redefines
every host-clock metric, so do not tune it.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import OrderedDict

#: events/CPU-s of the reference loop on the reference host (quiet)
NOMINAL_RATE = 480_000.0
#: events per speed sample (about 10 ms on the reference host)
SAMPLE_EVENTS = 5000

_TABLE = 100_000
_LRU = 8192
_PLAN = 1 << 16


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self):
        self.callbacks = []
        self.value = None


class _Stats:
    def __init__(self):
        self.requests = 0
        self.units = 0.0
        self.latencies = []

    def note(self, size: int, latency: float) -> None:
        self.requests += 1
        self.units += max(size / 1024, 1.0)
        if len(self.latencies) < 2048:
            self.latencies.append(latency)
        else:
            self.latencies[self.requests % 2048] = latency


class _MiniSim:
    def __init__(self):
        rng = random.Random(7)
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.stats = {f"t{i}": _Stats() for i in range(4)}
        self.lru = OrderedDict(((f"t{i & 3}", i), 1024) for i in range(_LRU))
        self.table = {i: (i * 7 % 1000, 1024 - 16 * (i % 8)) for i in range(_TABLE)}
        self.plan = [rng.randrange(_TABLE) for _ in range(_PLAN)]
        self.cursor = 0
        for i in range(8):
            client = self.client(f"t{i & 3}")
            next(client).callbacks.append(client.send)

    def timeout(self, delay: float) -> _Event:
        event = _Event()
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, event))
        return event

    def client(self, tenant: str):
        stats = self.stats[tenant]
        while True:
            started = self.now
            key = self.plan[self.cursor]
            self.cursor = (self.cursor + 1) % _PLAN
            offset, size = self.table[key]
            yield self.timeout(0.0001 + offset * 1e-7)
            slot = (tenant, key % _LRU)
            if slot in self.lru:
                self.lru.move_to_end(slot)
            stats.note(size, self.now - started)

    def run(self, events: int) -> None:
        heap = self.heap
        for _ in range(events):
            self.now, _seq, event = heapq.heappop(heap)
            callbacks, event.callbacks = event.callbacks, None
            for resume in callbacks:
                resume(event).callbacks.append(resume)


class HostMeter:
    """Converts process-CPU seconds into reference-host seconds."""

    def __init__(self):
        self._sim = _MiniSim()
        #: every speed sample taken, events per CPU-second
        self.samples = []
        self.sample()

    def sample(self) -> float:
        """Time the reference loop now; call right before metered work."""
        started = time.process_time()
        self._sim.run(SAMPLE_EVENTS)
        self.samples.append(SAMPLE_EVENTS / (time.process_time() - started))
        return self.samples[-1]

    def charge(self, cpu_s: float) -> float:
        """Reference-host seconds for ``cpu_s`` of process CPU spent
        since the previous sample; takes the closing sample itself."""
        before = self.samples[-1]
        return cpu_s * (before + self.sample()) / 2 / NOMINAL_RATE
