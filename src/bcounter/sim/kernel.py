"""Discrete-event simulation kernel.

A single-threaded event loop. Concurrent activities are generator processes
that yield what they are waiting for:

* a number: sleep that many simulated milliseconds,
* a :class:`Future`: park until someone resolves it, receive its value,
* a ``(Future, timeout_ms)`` pair: as above, but resume with :data:`TIMEOUT`
  if the deadline passes first,
* a :class:`RoundTrip`: a request that takes effect ``out_ms`` from now and
  whose result comes back ``back()`` ms after that. It is one entry in place
  of sleep, effect, sleep: the kernel runs ``effect(*args)`` at the first
  entry, unless the process was killed before it, and resumes the process
  with its result at the second. The delays pass the checks of a sleep.

A number is an ``int`` or a ``float``. Anything else, a subclass of these
types included (``True``, say), raises ``TypeError``.

Ties in simulated time are broken by scheduling order, so a run is fully
deterministic. Killing a process models a crash: it is never resumed, not
even by futures it was already waiting on. A process's return value is
dropped: to wait for a process, wrap its generator in one that resolves a
:class:`Future` as it ends.

Each event is one queue entry and allocates no closure. An entry names its
target: a :class:`Process` to resume with a value, a :class:`RoundTrip` whose
effect is due, or a callable to call, so a process is resumed directly.
Entries due later than ``now`` sit on a heap of ``(time, seq, target,
value)``. Entries due at ``now`` go to a FIFO of ``(target, value)``, which
runs after the heap's entries at ``now`` and before time advances: every
entry made at ``now`` is younger than every heap entry due at ``now``, so
this is exactly ``(time, seq)`` order. That covers a
resolved future's waiters, a spawn, a zero sleep and a positive delay that
float rounding absorbs (``now + delay == now``). A future keeps its waiting
processes, not callbacks; a ``(Future, timeout)`` wait is one record that is
both among the future's waiters and on the heap, and whichever runs first
resumes the process. A round trip's first entry is ``(time, seq, trip,
process)``: it runs the effect, draws ``back()`` and queues the process's
resume with the result. Those are the entries, seqs and draws of a sleep, a
step that runs the effect and a second sleep, so a round trip keeps their
event order and ``events``.

A wait that its future served leaves its timeout entry behind, dead. The
loop counts these entries, and once they are more than half of the heap (and
more than a fixed floor) it filters them out and re-heapifies the rest. Every
``(time, seq)`` key is unique, so the live entries run in the same order as
before. A served timeout's entry may thus be dropped before its time:
``events`` and ``pending()`` then leave it out, and ``run()`` without
``until`` can stop at the last live entry rather than at a dead deadline.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator

_INF = float("inf")
# Dead timeout entries are filtered out of the heap only past this many: below
# it a rebuild saves less than it costs.
_STALE_FLOOR = 512


class Sentinel:
    """A named marker value, compared with ``is``; each is created once."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


TIMEOUT = Sentinel("TIMEOUT")
# The value of a timed wait's own timeout entry. A future may be resolved with
# TIMEOUT itself, so only this marks the entry that the deadline queued.
_EXPIRED = Sentinel("EXPIRED")


class Future:
    """One-shot value container processes can wait on."""

    __slots__ = ("_ready", "done", "value", "_waiters")

    def __init__(self, sim: "Simulator"):
        self._ready = sim._ready
        self.done = False
        self.value: Any = None
        self._waiters: list = []  # Process or _TimedWait, in the order they waited

    def resolve(self, value: Any = None) -> None:
        if self.done:
            return
        self.done = True
        self.value = value
        for waiter in self._waiters:
            self._ready.append((waiter, value))


class Process:
    """A spawned generator, driven only through its ``send`` method, whose
    return value is dropped; ``kill()`` models a crash (no further steps)."""

    __slots__ = ("_send", "alive")

    def __init__(self, gen: Generator):
        self._send = gen.send
        self.alive = True

    def kill(self) -> None:
        self.alive = False


class _TimedWait:
    """One ``(Future, timeout)`` wait; the first of its two entries to run
    resumes the process and the other finds it fired (or, if it is the
    timeout entry, may be dropped from the heap unrun)."""

    __slots__ = ("proc", "fired")

    def __init__(self, proc: Process):
        self.proc = proc
        self.fired = False


class RoundTrip:
    """A request a process yields: ``out_ms`` from now the kernel runs
    ``effect(*args)``, unless the process was killed, and resumes the process
    with its result ``back()`` ms later."""

    __slots__ = ("out_ms", "effect", "args", "back")

    def __init__(self, out_ms: float, effect: Callable, args: tuple, back: Callable[[], float]):
        self.out_ms = out_ms
        self.effect = effect
        self.args = args
        self.back = back


class Simulator:
    """Event loop; all times are simulated milliseconds."""

    def __init__(self):
        self.now = 0.0
        # entries dispatched so far; a served timeout's entry dropped from the
        # heap before its time is never dispatched, so it is not counted
        self.events = 0
        self._heap: list[tuple[float, int, Any, Any]] = []  # due after now
        self._ready: deque[tuple[Any, Any]] = deque()  # due at now
        self._stale = 0  # served timed waits whose timeout entry is still queued
        self._seq = itertools.count(1).__next__

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        now = self.now
        t = now + delay
        if t == now:
            self._ready.append((fn, None))
        else:
            heapq.heappush(self._heap, (t, self._seq(), fn, None))

    def spawn(self, gen: Generator) -> Process:
        p = Process(gen)
        self._ready.append((p, None))
        return p

    def run(self, until: float | None = None) -> None:
        """Drain events; with ``until``, stop before events past that time."""
        limit = _INF if until is None else until
        now = self.now
        if now > limit:
            return
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        ready = self._ready
        next_ready = ready.popleft
        make_ready = ready.append
        seq = self._seq
        # names the loop tests once per event, bound locally
        round_trip, timed_wait, process = RoundTrip, _TimedWait, Process
        future_type, number, integer = Future, float, int
        expired, timeout, floor = _EXPIRED, TIMEOUT, _STALE_FLOOR
        events = 0
        stale = self._stale
        try:
            while True:
                if ready:
                    target, value = next_ready()
                elif heap:
                    t = heap[0][0]
                    if t > limit:
                        break
                    _, _, target, value = heappop(heap)
                    self.now = now = t
                    # the rest due at t run first among everything made at t
                    while heap and heap[0][0] == t:
                        _, _, tied, tied_value = heappop(heap)
                        make_ready((tied, tied_value))
                else:
                    break
                events += 1
                kind = target.__class__
                if kind is round_trip:
                    # value is the process; a killed one never lands its request
                    if not value.alive:
                        continue
                    result = target.effect(*target.args)
                    back = target.back()
                    kind = back.__class__
                    if not (kind is number or kind is integer):
                        raise TypeError(f"process yielded unsupported value: {back!r}")
                    if not back >= 0:
                        raise ValueError(f"delay must be >= 0, got {back!r}")
                    t = now + back
                    if t == now:
                        make_ready((value, result))
                    else:
                        heappush(heap, (t, seq(), value, result))
                    continue
                if kind is timed_wait:
                    if target.fired:
                        if value is expired:
                            stale -= 1
                        continue
                    target.fired = True
                    if value is expired:
                        value = timeout
                    else:
                        stale += 1
                        if stale > floor:
                            # entries in the ready FIFO cannot be filtered, so
                            # only those surely on the heap count towards a rebuild
                            sure = stale - len(ready)
                            if sure > floor and sure + sure > len(heap):
                                stale -= self._drop_stale()
                    target = target.proc
                elif kind is not process:
                    target()
                    continue
                if not target.alive:
                    continue
                try:
                    yielded = target._send(value)
                except StopIteration:
                    target.alive = False
                    continue
                kind = yielded.__class__
                if kind is round_trip:
                    delay = yielded.out_ms
                    kind = delay.__class__
                    if not (kind is number or kind is integer):
                        raise TypeError(f"process yielded unsupported value: {delay!r}")
                    if not delay >= 0:
                        raise ValueError(f"delay must be >= 0, got {delay!r}")
                    t = now + delay
                    if t == now:
                        make_ready((yielded, target))
                    else:
                        heappush(heap, (t, seq(), yielded, target))
                elif kind is number or kind is integer:
                    if not yielded >= 0:
                        raise ValueError(f"delay must be >= 0, got {yielded!r}")
                    t = now + yielded
                    if t == now:
                        make_ready((target, None))
                    else:
                        heappush(heap, (t, seq(), target, None))
                elif kind is future_type:
                    if yielded.done:
                        make_ready((target, yielded.value))
                    else:
                        yielded._waiters.append(target)
                elif kind is tuple and len(yielded) == 2:
                    future, delay = yielded
                    kind = delay.__class__
                    if future.__class__ is not future_type or not (
                        kind is number or kind is integer
                    ):
                        raise TypeError(f"process yielded unsupported value: {yielded!r}")
                    if not delay >= 0:
                        raise ValueError(f"delay must be >= 0, got {delay!r}")
                    waiter = timed_wait(target)
                    if future.done:
                        make_ready((waiter, future.value))
                    else:
                        future._waiters.append(waiter)
                    t = now + delay
                    if t == now:
                        make_ready((waiter, expired))
                    else:
                        heappush(heap, (t, seq(), waiter, expired))
                else:
                    raise TypeError(f"process yielded unsupported value: {yielded!r}")
        finally:
            self.events += events
            self._stale = stale
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        return len(self._heap) + len(self._ready)

    def _drop_stale(self) -> int:
        """Filter served waits' timeout entries out of the heap; returns how
        many went. Only a timeout entry of a timed wait is ever on the heap."""
        heap = self._heap
        live = [e for e in heap if not (e[2].__class__ is _TimedWait and e[2].fired)]
        dropped = len(heap) - len(live)
        heap[:] = live
        heapq.heapify(heap)
        return dropped
