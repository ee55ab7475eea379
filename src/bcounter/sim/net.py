"""Simulated network between data centers.

One-way latency between distinct DCs is half the configured round trip,
scaled by a seeded jitter factor; messages within a DC take one short hop.
Partitions split the DCs into groups and drop messages both when sent and
when they would be delivered, so traffic already in flight when a partition
forms is lost too. Every partition change bumps ``partition_epoch``, which
synchronization layers watch to know that a full state exchange is due.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from .kernel import Future, Simulator

# round trips in ms between the three default sites: two US coasts and Europe.
# measured tables are slightly asymmetric; defaults take the larger direction
DEFAULT_RTTS = {(0, 1): 83.0, (0, 2): 96.0, (1, 2): 163.0}


def symmetric_rtts(pairs: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Expand an upper-triangle RTT table to both directions."""
    out = {}
    for (a, b), v in pairs.items():
        out[(a, b)] = float(v)
        out.setdefault((b, a), float(v))
    return out


class Network:
    def __init__(
        self,
        sim: Simulator,
        n_dcs: int,
        rtts: dict[tuple[int, int], float] | None = None,
        intra_ms: float = 1.0,
        jitter_frac: float = 0.1,
        rng: random.Random | None = None,
    ):
        self.sim = sim
        self.n_dcs = n_dcs
        self.rtts = symmetric_rtts(rtts if rtts is not None else DEFAULT_RTTS)
        for a in range(n_dcs):
            for b in range(n_dcs):
                if a != b and self.rtts.get((a, b), 0) <= 0:
                    raise ValueError(f"missing or non-positive RTT for DCs {a}->{b}")
        self.intra_ms = intra_ms
        self.jitter_frac = jitter_frac
        self.rng = rng or random.Random(0)
        # the jitter's constants, bound once: each draw is lo + width * random()
        self._lo = 1 - jitter_frac
        self._width = 1 + jitter_frac - self._lo
        self._random = self.rng.random
        self._group_of: dict[int, int] | None = None
        self.partition_epoch = 0
        self.sent = 0
        self.dropped = 0

    # -- latency samples ----------------------------------------------------

    # Both draw base * rng.uniform(1 - j, 1 + j), written out as the same
    # float expression uniform evaluates, so the samples are bit-identical.

    def _jittered(self, base: float) -> float:
        if self.jitter_frac <= 0:
            return base
        return base * (self._lo + self._width * self._random())

    def intra_delay(self) -> float:
        if self.jitter_frac <= 0:
            return self.intra_ms
        return self.intra_ms * (self._lo + self._width * self._random())

    def delay(self, src: int, dst: int) -> float:
        if src == dst:
            return self.intra_delay()
        return self._jittered(self.rtts[(src, dst)] / 2)

    def rtt(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self.rtts[(src, dst)]

    # -- partitions -----------------------------------------------------------

    def reachable(self, src: int, dst: int) -> bool:
        if self._group_of is None or src == dst:
            return True
        return self._group_of.get(src) == self._group_of.get(dst)

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        group_of: dict[int, int] = {}
        for gi, group in enumerate(groups):
            for dc in group:
                if dc in group_of:
                    raise ValueError(f"DC {dc} listed in two partition groups")
                group_of[dc] = gi
        self._group_of = group_of
        self.partition_epoch += 1

    def heal(self) -> None:
        self._group_of = None
        self.partition_epoch += 1

    # -- messaging -----------------------------------------------------------

    def send(self, src: int, dst: int, deliver: Callable[[], None]) -> None:
        """Fire-and-forget delivery of a handler invocation at dst."""
        self.sent += 1
        if not self.reachable(src, dst):
            self.dropped += 1
            return
        d = self.delay(src, dst)

        def arrive():
            if not self.reachable(src, dst):
                self.dropped += 1
                return
            deliver()

        self.sim.schedule(d, arrive)

    def call(self, src: int, dst: int, handle: Callable[[Callable], None]) -> Future:
        """Send ``handle(answer)`` to dst; ``answer(value)`` sends value back
        to src, where it resolves the returned future. The caller waits on it
        with a timeout: a lost or missing answer never resolves it."""
        fut = Future(self.sim)
        self.send(
            src, dst, lambda: handle(lambda value: self.send(dst, src, lambda: fut.resolve(value)))
        )
        return fut

    def broadcast(self, src: int, deliver: Callable[[int], None]) -> int:
        """Send to every other DC in DC id order, running ``deliver(dst)`` at
        each destination; returns the number of messages sent."""
        for dst in range(self.n_dcs):
            if dst != src:
                self.send(src, dst, lambda dst=dst: deliver(dst))
        return self.n_dcs - 1
