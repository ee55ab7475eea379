"""Bounded counter CRDT: a replicated counter that never crosses a numeric bound.

The slack between the counter's value and its bound, ``Polarity.slack``, is
treated as a pool of rights, escrowed per replica; it is the one bound rule,
whose sign every check of a value against a bound tests. A replica may apply
a bound-approaching update (decrement for a lower bound, increment for an
upper bound) only against rights it currently holds, so the globally merged
value can never cross the bound regardless of how replicas interleave or
when they synchronize.

State is a pair of grow-only structures over a fixed replica set of size n:

* ``rights[(i, i)]``: rights created at replica i (by increments for a lower
  bound, by decrements for an upper bound),
* ``rights[(i, j)]`` with i != j: rights transferred from replica i to j,
* ``used[i]``: rights consumed at replica i.

Entries only ever grow, so states form a join semilattice under entry-wise
maximum: ``merge`` is the least upper bound and replicas converge.

Counters are plain immutable values. Every update returns a new counter and
never mutates its input, and no code writes to a counter's ``rights`` or
``used`` maps after construction; serializing updates to one logical counter
is the caller's job.

That contract lets one counter be shared. The simulated stores hold the
counter itself, so every reader of a stored version gets the same object,
and the client middleware hands one computed update to every client that
read that version. The canonical byte encoding is the wire format of the
library; its fixed layout is precompiled into ``struct.Struct`` objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_MAGIC = b"BCT1"

# header (magic, polarity, bound, n, rights count), one rights entry
# (i, j, v), the used count, one used entry (i, v)
_HEAD = struct.Struct(">4sBqII")
_RIGHT = struct.Struct(">IIq")
_COUNT = struct.Struct(">I")
_USED = struct.Struct(">Iq")


class Polarity(Enum):
    """Which side of the bound the counter defends."""

    LOWER = "lower"  # value must stay >= bound
    UPPER = "upper"  # value must stay <= bound

    def slack(self, value: int, bound: int) -> int:
        """How far ``value`` lies inside ``bound``; negative once past it."""
        return value - bound if self is _LOWER else bound - value


# Module-level names for the two members: a polarity test reads a global,
# not an Enum class attribute, which costs several times as much.
_LOWER = Polarity.LOWER
_UPPER = Polarity.UPPER


class CounterError(Exception):
    pass


class NotEnoughRights(CounterError):
    """A consuming update or transfer exceeded the locally held rights."""

    def __init__(self, available: int, requested: int):
        super().__init__(f"have {available} rights, need {requested}")
        self.available = available
        self.requested = requested


class InvalidBound(CounterError):
    pass


class InvalidReplica(CounterError):
    pass


class SelfTransfer(CounterError):
    pass


class NonPositiveDelta(CounterError):
    pass


class IncompatibleCounters(CounterError):
    pass


class MalformedEncoding(CounterError):
    pass


class Overflow(CounterError):
    pass


def _fit64(x: int, what: str) -> int:
    if not (INT64_MIN <= x <= INT64_MAX):
        raise Overflow(f"{what} does not fit in 64-bit signed range: {x}")
    return x


@dataclass(frozen=True, eq=True)
class BoundedCounter:
    """One replica's view of a bounded counter.

    ``rights`` and ``used`` are sparse: absent entries are zero and zero
    entries are never stored, which keeps equality and the byte encoding
    canonical. Construct fresh counters with :meth:`new`; the raw constructor
    is exposed for tests and decoding.
    """

    polarity: Polarity
    bound: int
    n: int
    rights: dict[tuple[int, int], int]
    used: dict[int, int]

    # -- construction -----------------------------------------------------

    @classmethod
    def new(
        cls,
        polarity: Polarity,
        bound: int,
        n: int,
        creator: int,
        initial: int | None = None,
    ) -> "BoundedCounter":
        """Create a counter with the given bound and initial value.

        With no ``initial`` the counter starts at the bound, holding zero
        rights. Any slack between ``initial`` and ``bound`` is created as
        rights held by ``creator``.
        """
        if n < 1:
            raise InvalidReplica(f"replica set size must be >= 1, got {n}")
        if not 0 <= creator < n:
            raise InvalidReplica(f"creator {creator} outside replica set of size {n}")
        _fit64(bound, "bound")
        if initial is None:
            initial = bound
        _fit64(initial, "initial value")
        slack = polarity.slack(initial, bound)
        if slack < 0:
            raise InvalidBound(f"initial {initial} outside {polarity.value} bound {bound}")
        c = cls(polarity=polarity, bound=bound, n=n, rights={}, used={})
        return c._create(creator, slack) if slack else c

    # -- queries -----------------------------------------------------------

    def value(self) -> int:
        """Counter value as seen from this state; its slack is created less used rights."""
        slack = sum(v for (i, j), v in self.rights.items() if i == j) - sum(self.used.values())
        value = self.bound + slack if self.polarity is _LOWER else self.bound - slack
        return _fit64(value, "value")

    def local_rights(self, i: int) -> int:
        """Rights replica i holds in this state.

        Own creations plus incoming transfers, minus outgoing transfers and
        own consumption. The result computed on a replica's own state is a
        conservative lower bound of what it holds globally.
        """
        self._check_replica(i)
        total = -self.used.get(i, 0)
        for (a, b), v in self.rights.items():
            if a == i:
                total += v if b == i else -v
            elif b == i:
                total += v
        return total

    def leq(self, other: "BoundedCounter") -> bool:
        """Partial order: true iff every entry of self is <= other's."""
        self._check_identity(other)
        return all(v <= other.rights.get(k, 0) for k, v in self.rights.items()) and all(
            v <= other.used.get(k, 0) for k, v in self.used.items()
        )

    # -- updates -----------------------------------------------------------

    def increment(self, i: int, delta: int) -> "BoundedCounter":
        """Raise the value by delta at replica i.

        Free for a lower-bound counter (it creates rights); for an
        upper-bound counter it consumes rights and may fail.
        """
        self._check_update(i, delta)
        if self.polarity is _LOWER:
            return self._create(i, delta)
        return self._consume(i, delta)

    def decrement(self, i: int, delta: int) -> "BoundedCounter":
        """Lower the value by delta at replica i.

        Consumes rights for a lower-bound counter and raises
        :class:`NotEnoughRights` when replica i holds fewer than delta.
        """
        self._check_update(i, delta)
        if self.polarity is _LOWER:
            return self._consume(i, delta)
        return self._create(i, delta)

    def transfer(self, src: int, dst: int, delta: int) -> "BoundedCounter":
        """Move delta rights from src to dst. Must be applied at src."""
        self._check_update(src, delta)
        self._check_replica(dst)
        if src == dst:
            raise SelfTransfer(f"replica {src} cannot transfer to itself")
        held = self.local_rights(src)
        if held < delta:
            raise NotEnoughRights(held, delta)
        key = (src, dst)
        rights = dict(self.rights)
        rights[key] = _fit64(rights.get(key, 0) + delta, "transferred rights")
        return self._with(rights=rights)

    def merge(self, other: "BoundedCounter") -> "BoundedCounter":
        """Entry-wise maximum: the least upper bound of the two states."""
        self._check_identity(other)
        rights = dict(self.rights)
        for k, v in other.rights.items():
            if v > rights.get(k, 0):
                rights[k] = v
        used = dict(self.used)
        for k, v in other.used.items():
            if v > used.get(k, 0):
                used[k] = v
        return self._with(rights=rights, used=used)

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        """Canonical byte form; equal states encode to identical bytes.

        Layout, all big-endian: magic ``BCT1``, polarity byte (0 lower,
        1 upper), bound i64, n u32, rights count u32 then (i u32, j u32,
        v i64) triples sorted by (i, j), used count u32 then (i u32, v i64)
        pairs sorted by i. Zero entries are never encoded.
        """
        pol = 0 if self.polarity is _LOWER else 1
        r_items = sorted(self.rights.items())
        u_items = sorted(self.used.items())
        parts = [_HEAD.pack(_MAGIC, pol, self.bound, self.n, len(r_items))]
        parts += [_RIGHT.pack(i, j, v) for (i, j), v in r_items]
        parts.append(_COUNT.pack(len(u_items)))
        parts += [_USED.pack(i, v) for i, v in u_items]
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "BoundedCounter":
        """Inverse of :meth:`encode`; rejects anything non-canonical."""
        size = len(data)
        if size < _HEAD.size:
            raise MalformedEncoding("truncated")
        magic, pol, bound, n, r_count = _HEAD.unpack_from(data)
        if magic != _MAGIC:
            raise MalformedEncoding("bad magic")
        if pol not in (0, 1):
            raise MalformedEncoding(f"bad polarity byte {pol}")
        if n < 1:
            raise MalformedEncoding("replica set size must be >= 1")
        r_end = _HEAD.size + r_count * _RIGHT.size
        if size < r_end + _COUNT.size:
            raise MalformedEncoding("truncated")
        (u_count,) = _COUNT.unpack_from(data, r_end)
        u_start = r_end + _COUNT.size
        end = u_start + u_count * _USED.size
        if size < end:
            raise MalformedEncoding("truncated")
        if size > end:
            raise MalformedEncoding("trailing bytes after counter state")
        view = memoryview(data)
        rights: dict[tuple[int, int], int] = {}
        prev = (-1, -1)
        for i, j, v in _RIGHT.iter_unpack(view[_HEAD.size : r_end]):
            if i >= n or j >= n:
                raise MalformedEncoding(f"rights entry ({i},{j}) outside replica set")
            if v < 1:
                raise MalformedEncoding(f"non-positive rights entry {v}")
            if (i, j) <= prev:
                raise MalformedEncoding("rights entries not strictly sorted")
            prev = (i, j)
            rights[prev] = v
        used: dict[int, int] = {}
        last = -1
        for i, v in _USED.iter_unpack(view[u_start:]):
            if i >= n:
                raise MalformedEncoding(f"used entry {i} outside replica set")
            if v < 1:
                raise MalformedEncoding(f"non-positive used entry {v}")
            if i <= last:
                raise MalformedEncoding("used entries not strictly sorted")
            last = i
            used[i] = v
        polarity = _LOWER if pol == 0 else _UPPER
        return cls(polarity=polarity, bound=bound, n=n, rights=rights, used=used)

    # -- internals -----------------------------------------------------------

    def _with(self, rights=None, used=None) -> "BoundedCounter":
        return BoundedCounter(
            polarity=self.polarity,
            bound=self.bound,
            n=self.n,
            rights=self.rights if rights is None else rights,
            used=self.used if used is None else used,
        )

    def _create(self, i: int, delta: int) -> "BoundedCounter":
        rights = dict(self.rights)
        rights[(i, i)] = _fit64(rights.get((i, i), 0) + delta, "created rights")
        out = self._with(rights=rights)
        out.value()  # overflow check on the derived value
        return out

    def _consume(self, i: int, delta: int) -> "BoundedCounter":
        held = self.local_rights(i)
        if held < delta:
            raise NotEnoughRights(held, delta)
        used = dict(self.used)
        used[i] = _fit64(used.get(i, 0) + delta, "consumed rights")
        return self._with(used=used)

    def _check_replica(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise InvalidReplica(f"replica {i} outside replica set of size {self.n}")

    def _check_update(self, i: int, delta: int) -> None:
        self._check_replica(i)
        if delta <= 0:
            raise NonPositiveDelta(f"delta must be positive, got {delta}")

    def _check_identity(self, other: "BoundedCounter") -> None:
        if (
            self.polarity is not other.polarity
            or self.bound != other.bound
            or self.n != other.n
        ):
            raise IncompatibleCounters(
                f"({self.polarity.value}, {self.bound}, n={self.n}) vs "
                f"({other.polarity.value}, {other.bound}, n={other.n})"
            )
