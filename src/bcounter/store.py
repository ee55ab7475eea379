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
    siblings: tuple[object, ...]
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
        # weak keys: the version at which each sibling landed
        self._births: dict[str, tuple[int, ...]] = {}
        self.reads = 0
        self.weak_puts = 0
        self.cond_writes = 0
        self.conflicts = 0

    # -- modeled API -----------------------------------------------------------

    def get(self, key: str) -> RoundTrip:
        """Round trip to a VersionedRecord, or None when the key is absent."""
        self.reads += 1
        return RoundTrip(self.hop() + self.read_ms, self._records.get, (key,), self.hop)

    def put(self, key: str, data: object, context: int | None = None) -> RoundTrip:
        """Weak put; round trip to the new version token.

        ``context`` is the version the caller read before computing ``data``;
        the put replaces every sibling that existed by that version and lands
        next to any sibling written after it. No context means the writer saw
        nothing, so nothing is replaced.
        """
        rec = self._records.get(key)
        if rec is not None and rec.consistency is Consistency.STRONG:
            raise WrongMode(f"weak put on strong key {key!r}")
        self.weak_puts += 1
        return RoundTrip(self.hop() + self.write_ms, self._put, (key, data, context), self.hop)

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

    def _put(self, key: str, data: object, context: int | None) -> int:
        rec = self._records.get(key)
        if rec is None:
            version, births, siblings = 0, (), ()
        elif rec.consistency is not Consistency.WEAK:
            raise WrongMode(f"weak put on strong key {key!r}")
        else:
            version, births, siblings = rec.version, self._births[key], rec.siblings
        seen = version if context is None else min(context, version)
        survivors = [
            (b, s)
            for b, s in zip(births, siblings)
            if (context is None or b > seen) and s != data
        ]
        version += 1
        survivors.append((version, data))
        self._births[key] = tuple(b for b, _ in survivors)
        siblings = tuple(s for _, s in survivors)
        self._records[key] = VersionedRecord(key, siblings, version, Consistency.WEAK)
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
        self._records[key] = VersionedRecord(key, (data,), current, Consistency.STRONG)
        return current

    # -- instrumentation (no latency, not part of the modeled API) -------------

    def peek(self, key: str) -> VersionedRecord | None:
        return self._records.get(key)

    def seed(self, key: str, data: object, mode: Consistency) -> None:
        """Install a key instantly at version 1, as experiment setup."""
        if key in self._records:
            raise ValueError(f"seed would clobber existing key {key!r}")
        self._records[key] = VersionedRecord(key, (data,), 1, mode)
        if mode is Consistency.WEAK:
            self._births[key] = (1,)
