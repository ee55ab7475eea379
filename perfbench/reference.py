"""A fixed piece of pure-Python work that times the machine, not the library.

The shared machine's speed drifts by tens of percent over seconds to
minutes, and a run's wall time follows it. ``Reference.chunk()`` does the
same work on every call, in the mix the simulator and the checker spend their time on:
random reads and writes over a table of small records that is larger than
the processor's caches, JSON of small records, and a heap of timed events
holding small objects. It imports nothing from ``bcounter``, so no change to
the library moves it, and it runs in the benchmark's driver process, so its
table does not count toward a workload's peak memory.

Timed next to each run of a workload, it gives the machine's speed at that
moment; ``run.py`` divides each run's wall time by it.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time

RECORDS = 150_000  # about 75 MB of small dicts and lists: more than the caches hold
TOUCHES = 25_000  # record updates per chunk: about 0.1 s on the baseline's machine


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at: int, key: int):
        self.at = at
        self.key = key

    def later(self, by: int) -> "_Event":
        return _Event(self.at + by, self.key)


class Reference:
    """The fixed work over a table built once; ``chunk()`` times one pass."""

    def __init__(self):
        rng = random.Random(11)
        self.table = [{"k": i, "v": [i, 0], "s": str(i)} for i in range(RECORDS)]
        self.order = [rng.randrange(RECORDS) for _ in range(TOUCHES)]

    def _work(self) -> int:
        table, order = self.table, self.order
        heap: list = []
        acc = 0
        for j, i in enumerate(order):
            record = table[i]
            record["v"][1] += 1
            acc += record["v"][0]
            heapq.heappush(heap, (acc & 1023, j, _Event(j, i)))
            if len(heap) > 256:
                _, _, event = heapq.heappop(heap)
                acc += event.later(j).at & 7
            if j % 64 == 0:
                picked = {str(k): table[k]["v"] for k in order[j : j + 24]}
                acc += len(json.loads(json.dumps(picked)))
        return acc

    def chunk(self) -> float:
        """Run the fixed work once and return its wall time in seconds."""
        enabled = gc.isenabled()
        gc.disable()  # collector state left by other code stays out of the timing
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
