"""Per-data-center key-value store emulation.

Models the storage substrate the middleware runs against: immutable values,
a configurable service latency per operation, and two consistency modes.
Every strategy stores its value as it is: the bounded counters their
immutable ``BoundedCounter``, the weak baseline its tallies and the strong
one an int. A key's mode is fixed by its first write:

* WEAK: puts always succeed. A weak value must be a join semilattice with
  ``merge``, as a store's built-in counters are: a put joins its data into
  the key's value as it lands, or installs it when the key is absent. So
  concurrent puts are never lost, and a read returns their join.
* STRONG: only conditional writes, which install iff the caller's expected
  version is still current. Strong keys are never replicated across DCs by
  the store; any cross-DC movement of their content is the middleware's job.

Behavior is linearizable per key within one DC: effects land atomically when
the operation's service latency elapses, so of two in-flight conditional
writes racing from the same version, exactly the first to complete wins.

The store sits one intra-DC hop from its callers. An operation is its
caller's whole round trip, a :class:`~.sim.kernel.RoundTrip` that the caller
yields, as in ``rec = yield store.get(key)``: one hop out, the service time,
the effect, one hop back. An op is counted when issued, a conflict when it
lands. The kernel runs the effect only if the caller is still alive, so a
caller killed before it (a crashed owner node) is never resumed and its op
never lands. A caller killed after the effect, in the hop back, is never
resumed either, yet its write landed: that write is durable, but no one
acknowledges it, and no one learns of it until a later read.

A key's current record is built when a write lands; every read until the
next write returns that same immutable record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .sim.kernel import RoundTrip, Sentinel


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
    value: object
    version: int
    consistency: Consistency


class DCStore:
    """One DC's store, ``hop()`` ms from its callers. ``get``, ``put`` and
    ``put_conditional`` check modes and count when called, and return the
    round trip for the caller to ``yield``."""

    def __init__(self, dc: int, read_ms: float, write_ms: float, hop: Callable[[], float]):
        self.dc = dc
        self.read_ms = read_ms
        self.write_ms = write_ms
        self.hop = hop
        self._records: dict[str, VersionedRecord] = {}
        self.reads = 0
        self.weak_puts = 0
        self.cond_writes = 0
        self.conflicts = 0

    # -- modeled API -----------------------------------------------------------

    def get(self, key: str) -> RoundTrip:
        """Round trip to a VersionedRecord, or None when the key is absent."""
        self.reads += 1
        return RoundTrip(self.hop() + self.read_ms, self._records.get, (key,), self.hop)

    def put(self, key: str, data: object) -> RoundTrip:
        """Weak put; round trip to the new version token. ``data`` is joined
        into the key's value when the put lands."""
        rec = self._records.get(key)
        if rec is not None and rec.consistency is Consistency.STRONG:
            raise WrongMode(f"weak put on strong key {key!r}")
        self.weak_puts += 1
        return RoundTrip(self.hop() + self.write_ms, self._put, (key, data), self.hop)

    def put_conditional(self, key, data, expected) -> RoundTrip:
        """Conditional write; round trip to the new version token, or CONFLICT.

        ``expected`` is a version token, or ABSENT to create the key. The
        version comparison happens when the write lands, so of concurrent
        writers from one version exactly the first to land succeeds.
        """
        rec = self._records.get(key)
        if rec is not None and rec.consistency is Consistency.WEAK:
            raise WrongMode(f"conditional write on weak key {key!r}")
        self.cond_writes += 1
        return RoundTrip(
            self.hop() + self.write_ms, self._put_conditional, (key, data, expected), self.hop
        )

    # -- effects, run by the kernel as a write lands -----------------------------

    def _put(self, key: str, data: object) -> int:
        rec = self._records.get(key)
        if rec is None:
            version, value = 1, data
        elif rec.consistency is not Consistency.WEAK:
            raise WrongMode(f"weak put on strong key {key!r}")
        else:
            version, value = rec.version + 1, rec.value.merge(data)
        self._records[key] = VersionedRecord(key, value, version, Consistency.WEAK)
        return version

    def _put_conditional(self, key: str, data: object, expected) -> object:
        rec = self._records.get(key)
        current = 0 if rec is None else rec.version
        want = 0 if expected is ABSENT else expected
        if want != current:
            self.conflicts += 1
            return CONFLICT
        if rec is not None and rec.consistency is not Consistency.STRONG:
            raise WrongMode(f"conditional write on weak key {key!r}")
        current += 1
        self._records[key] = VersionedRecord(key, data, current, Consistency.STRONG)
        return current

    # -- instrumentation (no latency, not part of the modeled API) -------------

    def peek(self, key: str) -> VersionedRecord | None:
        return self._records.get(key)

    def seed(self, key: str, data: object, mode: Consistency) -> None:
        """Install a key instantly at version 1, as experiment setup."""
        if key in self._records:
            raise ValueError(f"seed would clobber existing key {key!r}")
        self._records[key] = VersionedRecord(key, data, 1, mode)
