"""Per-data-center key-value store emulation.

Models the storage substrate the middleware runs against: opaque immutable
values, a configurable service latency per operation, and two consistency
modes. Every strategy stores its value as it is: the bounded counters their
immutable ``BoundedCounter``, the weak baseline its tallies and the strong
one an int. The store compares values only for equality, and only on weak
keys. A key's mode is fixed by its first write:

* WEAK: puts always succeed. A put carries the version its writer read
  (its causal context): it replaces every sibling that existed by then and
  lands next to any sibling written concurrently. The store does not look
  inside the data; it trusts the writer to have read and merged the siblings
  it replaces. The weak driver's fold relies on this: a sibling that leaves
  is below a sibling that stays, so a reader may join only the new siblings
  into its last merge, and of a new sibling it put itself from an earlier
  fold, only the entries that put raised. A put with no context dominates
  nothing and simply joins the sibling set. Readers see all siblings and are
  expected to merge them.
* STRONG: only conditional writes, which install iff the caller's expected
  version is still current. Exactly one sibling at all times. Strong keys are
  never replicated across DCs by the store; any cross-DC movement of their
  content is the middleware's job.

Behavior is linearizable per key within one DC: effects land atomically when
the operation's service latency elapses, so of two in-flight conditional
writes racing from the same version, exactly the first to complete wins.

The store sits one intra-DC hop from its callers. An operation is its
caller's whole round trip, run as ``rec = yield from store.get(key)``: one
hop out, the service time, the effect, one hop back. An op is counted when
issued, a conflict when it lands. The effect runs inside the caller's
process, so a caller killed before it (a crashed owner node) is never
resumed and its op never lands. That keeps "acknowledged" and "durable" the
same thing for crashed middleware nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .sim.kernel import Sentinel


class Consistency(Enum):
    WEAK = "weak"
    STRONG = "strong"


ABSENT = Sentinel("ABSENT")  # expected-version token for "key does not exist yet"
CONFLICT = Sentinel("CONFLICT")  # conditional-write outcome when the version moved


class WrongMode(Exception):
    """Weak put on a strong key, or conditional write on a weak key."""


@dataclass(frozen=True)
class VersionedRecord:
    key: str
    siblings: tuple[object, ...]
    version: int
    consistency: Consistency


class _Entry:
    __slots__ = ("mode", "siblings", "births", "version")

    def __init__(self, mode: Consistency):
        self.mode = mode
        self.siblings: tuple[object, ...] = ()
        self.births: tuple[int, ...] = ()  # version at which each sibling landed
        self.version = 0


class DCStore:
    """One DC's store, ``hop()`` ms from its callers. ``get``, ``put`` and
    ``put_conditional`` check modes and count when called, and return the
    round trip for the caller to ``yield from``."""

    def __init__(self, dc: int, read_ms: float, write_ms: float, hop: Callable[[], float]):
        self.dc = dc
        self.read_ms = read_ms
        self.write_ms = write_ms
        self.hop = hop
        self._entries: dict[str, _Entry] = {}
        self.reads = 0
        self.weak_puts = 0
        self.cond_writes = 0
        self.conflicts = 0

    # -- modeled API -----------------------------------------------------------

    def get(self, key: str):
        """Round trip to a VersionedRecord, or None when the key is absent."""
        self.reads += 1

        def complete():
            e = self._entries.get(key)
            if e is None or e.version == 0:
                return None
            return VersionedRecord(key, e.siblings, e.version, e.mode)

        return self._round_trip(self.read_ms, complete)

    def put(self, key: str, data: object, context: int | None = None):
        """Weak put; round trip to the new version token.

        ``context`` is the version the caller read before computing ``data``;
        the put replaces every sibling that existed by that version and lands
        next to any sibling written after it. No context means the writer saw
        nothing, so nothing is replaced.
        """
        e = self._entries.get(key)
        if e is not None and e.mode is Consistency.STRONG:
            raise WrongMode(f"weak put on strong key {key!r}")
        self.weak_puts += 1

        def complete():
            entry = self._entries.setdefault(key, _Entry(Consistency.WEAK))
            if entry.mode is not Consistency.WEAK:
                raise WrongMode(f"weak put on strong key {key!r}")
            seen = entry.version if context is None else min(context, entry.version)
            survivors = [
                (b, s)
                for b, s in zip(entry.births, entry.siblings)
                if (context is None or b > seen) and s != data
            ]
            entry.version += 1
            survivors.append((entry.version, data))
            entry.births = tuple(b for b, _ in survivors)
            entry.siblings = tuple(s for _, s in survivors)
            return entry.version

        return self._round_trip(self.write_ms, complete)

    def put_conditional(self, key, data, expected):
        """Conditional write; round trip to the new version token, or CONFLICT.

        ``expected`` is a version token, or ABSENT to create the key. The
        version comparison happens when the write lands, so of concurrent
        writers from one version exactly the first to land succeeds.
        """
        e = self._entries.get(key)
        if e is not None and e.mode is Consistency.WEAK:
            raise WrongMode(f"conditional write on weak key {key!r}")
        self.cond_writes += 1

        def complete():
            entry = self._entries.get(key)
            current = 0 if entry is None else entry.version
            want = 0 if expected is ABSENT else expected
            if want != current:
                self.conflicts += 1
                return CONFLICT
            if entry is None:
                entry = self._entries[key] = _Entry(Consistency.STRONG)
            elif entry.mode is not Consistency.STRONG:
                raise WrongMode(f"conditional write on weak key {key!r}")
            entry.version += 1
            entry.siblings = (data,)
            entry.births = (entry.version,)
            return entry.version

        return self._round_trip(self.write_ms, complete)

    def _round_trip(self, service_ms: float, complete: Callable[[], object]):
        yield self.hop() + service_ms
        result = complete()
        yield self.hop()
        return result

    # -- instrumentation (no latency, not part of the modeled API) -------------

    def peek(self, key: str) -> VersionedRecord | None:
        e = self._entries.get(key)
        if e is None or e.version == 0:
            return None
        return VersionedRecord(key, e.siblings, e.version, e.mode)

    def seed(self, key: str, data: object, mode: Consistency) -> None:
        """Install a key instantly at version 1, as experiment setup."""
        if key in self._entries:
            raise ValueError(f"seed would clobber existing key {key!r}")
        entry = _Entry(mode)
        entry.siblings = (data,)
        entry.births = (1,)
        entry.version = 1
        self._entries[key] = entry
