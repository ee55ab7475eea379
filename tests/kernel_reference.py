"""The discrete-event kernel as it was before entries named their targets.

Kept only as the reference that ``test_kernel_reference.py`` runs random
process programs against: one heap of ``(time, seq, fn)`` closures, where
every resume builds a closure and every ``Future.resolve`` schedules one more
heap event per callback. The code below the separator is unchanged from that
kernel; the fast kernel must produce exactly its event order.
"""

# ---------------------------------------------------------------------------
from __future__ import annotations

import heapq
from typing import Any, Callable, Generator


class Sentinel:
    """A named marker value, compared with ``is``; each is created once."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


TIMEOUT = Sentinel("TIMEOUT")


class Future:
    """One-shot value container processes can wait on."""

    __slots__ = ("_sim", "done", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.done = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def resolve(self, value: Any = None) -> None:
        if self.done:
            return
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._sim.call_soon(lambda cb=cb: cb(value))

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        if self.done:
            self._sim.call_soon(lambda: cb(self.value))
        else:
            self._callbacks.append(cb)


class Process:
    """A spawned generator; ``kill()`` models a crash (no further steps)."""

    __slots__ = ("_sim", "_gen", "alive", "done")

    def __init__(self, sim: "Simulator", gen: Generator):
        self._sim = sim
        self._gen = gen
        self.alive = True
        self.done = Future(sim)

    def kill(self) -> None:
        self.alive = False


class Simulator:
    """Event loop; all times are simulated milliseconds."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    def call_soon(self, fn: Callable[[], None]) -> None:
        self.schedule(0.0, fn)

    def spawn(self, gen: Generator) -> Process:
        p = Process(self, gen)
        self.call_soon(lambda: self._step(p, None))
        return p

    def run(self, until: float | None = None) -> None:
        """Drain events; with ``until``, stop before events past that time."""
        while self._queue:
            t, _, fn = self._queue[0]
            if until is not None and t > until:
                break
            heapq.heappop(self._queue)
            self.now = t
            fn()
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        return len(self._queue)

    # -- process stepping -------------------------------------------------

    def _step(self, p: Process, value: Any) -> None:
        if not p.alive:
            return
        try:
            yielded = p._gen.send(value)
        except StopIteration as stop:
            p.alive = False
            p.done.resolve(stop.value)
            return
        self._wait(p, yielded)

    def _wait(self, p: Process, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            self.schedule(yielded, lambda: self._step(p, None))
            return
        if isinstance(yielded, Future):
            yielded.add_callback(lambda v: self._step(p, v))
            return
        if isinstance(yielded, tuple) and len(yielded) == 2:
            future, timeout = yielded
            if isinstance(future, Future) and isinstance(timeout, (int, float)):
                fired = [False]

                def on_value(v):
                    if not fired[0]:
                        fired[0] = True
                        self._step(p, v)

                def on_timeout():
                    if not fired[0]:
                        fired[0] = True
                        self._step(p, TIMEOUT)

                future.add_callback(on_value)
                self.schedule(timeout, on_timeout)
                return
        raise TypeError(f"process yielded unsupported value: {yielded!r}")
