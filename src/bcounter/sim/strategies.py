"""Strategy drivers: one uniform client-operation interface per design.

A driver owns whatever middleware its design needs, seeds counters into the
stores, and exposes ``client_op`` as a generator the simulated client
processes run. Every operation resolves to ``(status, reason, used_sync)``
with status one of ok / failed / retry, so the harness can account for all
strategies identically.

Designs:

* weak: eventually-consistent counter with a read-time bound check. Each
  client tallies its own increments and decrements under a private actor key;
  merging takes the entrywise max, so every acknowledged operation survives
  replication exactly once and the quiescent value is exact. The bound check
  races with concurrent writers by construction; that is the point of the
  baseline.
* strong: a single copy on the home DC, conditional writes, remote clients
  pay a round trip per operation.
* client-middleware: bounded counter via the in-client library, one replica
  per DC.
* server-middleware: bounded counter via per-DC owner nodes, with or without
  write batching.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache, reduce

from ..crdt import BoundedCounter, Polarity, StateTable
from ..middleware_client import ClientMiddleware
from ..middleware_server import ServerCluster
from ..store import CONFLICT, Consistency, DCStore, VersionedRecord
from ..transfer import default_threshold
from .config import CounterSpec, SimConfig, Strategy
from .kernel import TIMEOUT, Future, Simulator
from .net import Network


def _polarity(spec: CounterSpec) -> Polarity:
    return Polarity.LOWER if spec.polarity == "lower" else Polarity.UPPER


def _would_violate(spec: CounterSpec, value: int, kind: str, delta: int) -> bool:
    if spec.polarity == "lower":
        return kind == "dec" and value - delta < spec.bound
    return kind == "inc" and value + delta > spec.bound


def _threshold(cfg: SimConfig, spec: CounterSpec) -> int:
    if cfg.rebalance_threshold is not None:
        return cfg.rebalance_threshold
    return default_threshold(abs(spec.initial - spec.bound), cfg.n_dcs)


class TallyCounter:
    """Grow-only per-actor tallies; value = sum(incs) - sum(decs).

    Instances are immutable apart from the byte cache: ``apply`` and
    ``merge`` return new objects (sharing any section dict they leave
    alone), so one decoded or merged tally may be shared, as the weak
    driver's fold cache does. The cache holds the tally's canonical
    encoding once known: ``decode`` keeps the blob it parsed, ``encode``
    keeps what it computes, and ``apply`` and ``merge`` splice the entries
    they change into the parent's bytes (``_splice``) instead of encoding
    the whole tally again.
    """

    __slots__ = ("incs", "decs", "_blob")

    def __init__(
        self,
        incs: dict[str, int] | None = None,
        decs: dict[str, int] | None = None,
        _blob: bytes | None = None,
    ):
        self.incs = incs or {}
        self.decs = decs or {}
        self._blob = _blob

    def value(self) -> int:
        return sum(self.incs.values()) - sum(self.decs.values())

    def apply(self, actor: str, kind: str, delta: int) -> "TallyCounter":
        section = self.incs if kind == "inc" else self.decs
        change = {actor: section.get(actor, 0) + delta}
        if kind == "inc":
            return self._changed(change, {})
        return self._changed({}, change)

    def merge(self, other: "TallyCounter") -> "TallyCounter":
        """The entrywise max; ``self`` itself when no entry of ``other`` is above it."""
        incs = _entrywise_max(self.incs, other.incs)
        decs = _entrywise_max(self.decs, other.decs)
        if not incs and not decs:
            return self
        return self._changed(incs, decs)

    def _changed(self, incs: dict[str, int], decs: dict[str, int]) -> "TallyCounter":
        """This tally with the entries given set; each section copied only if
        it changes, and the bytes spliced from this tally's when it has them."""
        blob = self._blob
        if blob is not None:
            # canonical bytes are {"d":{...},"i":{...}}; that separator occurs
            # nowhere else, since every quote inside a key is escaped; the
            # later section goes first, so the earlier one's span still holds
            mid = blob.index(b'},"i":{', 6)
            blob = _splice(blob, mid + 7, len(blob) - 2, self.incs, incs)
            if blob is not None:
                blob = _splice(blob, 6, mid, self.decs, decs)
        return TallyCounter(
            {**self.incs, **incs} if incs else self.incs,
            {**self.decs, **decs} if decs else self.decs,
            blob,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TallyCounter)
            and self.incs == other.incs
            and self.decs == other.decs
        )

    def encode(self) -> bytes:
        if self._blob is None:
            self._blob = _encode(self.incs, self.decs)
        return self._blob

    @classmethod
    def decode(cls, blob: bytes) -> "TallyCounter":
        """The tally of canonical bytes, as ``encode`` makes them; it keeps ``blob``."""
        doc = json.loads(blob)
        return cls(doc["i"], doc["d"], blob)


def _encode(incs: dict[str, int], decs: dict[str, int]) -> bytes:
    """The canonical encoding of a whole tally."""
    return json.dumps({"i": incs, "d": decs}, sort_keys=True, separators=(",", ":")).encode()


def _entrywise_max(mine: dict[str, int], theirs: dict[str, int]) -> dict[str, int]:
    """The entries of ``theirs`` above ``mine``'s. Tallies are >= 0, so an
    actor only ``theirs`` has is always one of them."""
    return {actor: n for actor, n in theirs.items() if n > mine.get(actor, -1)}


@lru_cache(maxsize=4096)
def _needle(actor: str) -> bytes:
    return json.dumps(actor).encode() + b":"


def _locate(blob: bytes, lo: int, hi: int, actor: str) -> int:
    """Where the digits of ``actor``'s entry start in ``blob[lo:hi]``, a
    section that holds it; -1 when its needle occurs more than once there.
    The true key always matches, so a lone match is the key."""
    needle = _needle(actor)
    at = blob.find(needle, lo, hi)
    if blob.find(needle, at + 1, hi) >= 0:
        return -1
    return at + len(needle)


def _splice(
    blob: bytes, lo: int, hi: int, old: dict[str, int], changes: dict[str, int]
) -> bytes | None:
    """``blob`` with its section ``blob[lo:hi]``, the encoding of ``old``,
    rewritten to encode ``old`` updated with ``changes``: a changed entry gets
    new digits, and a new actor goes in after its sorted predecessor (first
    when it has none). None when a needle is not unique, and the caller
    encodes the whole tally instead."""
    edits = []  # (start, end, bytes), disjoint
    after: dict[str | None, list[str]] = {}  # predecessor -> new actors
    keys = None
    for actor, n in changes.items():
        if actor in old:
            at = _locate(blob, lo, hi, actor)
            if at < 0:
                return None
            edits.append((at, at + len(str(old[actor])), str(n).encode()))
        else:
            if keys is None:
                keys = sorted(old)
            i = bisect_left(keys, actor)
            after.setdefault(keys[i - 1] if i else None, []).append(actor)
    for pred, actors in after.items():
        entries = b",".join(_needle(a) + str(changes[a]).encode() for a in sorted(actors))
        if pred is None:
            edits.append((lo, lo, entries + b"," if old else entries))
            continue
        at = _locate(blob, lo, hi, pred)
        if at < 0:
            return None
        at += len(str(old[pred]))
        edits.append((at, at, b"," + entries))
    if not edits:
        return blob
    edits.sort()
    parts, last = [], 0
    for start, end, text in edits:
        parts += (blob[last:start], text)
        last = end
    parts.append(blob[last:])
    return b"".join(parts)


def _fresh_fold(siblings: tuple[bytes, ...]) -> TallyCounter:
    return reduce(TallyCounter.merge, map(TallyCounter.decode, siblings))


class Driver:
    """Shared plumbing; subclasses implement the design specifics."""

    def __init__(
        self,
        cfg: SimConfig,
        sim: Simulator,
        net: Network,
        stores: list[DCStore],
        metrics,
    ):
        self.cfg = cfg
        self.sim = sim
        self.net = net
        self.stores = stores
        self.metrics = metrics
        self.specs: dict[str, CounterSpec] = {}

    def seed(self, spec: CounterSpec) -> None:
        raise NotImplementedError

    def start(self) -> None:
        pass

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        raise NotImplementedError

    def _merged_at(self, dc: int, key: str):
        """The durable state at ``dc``, siblings merged; None if absent."""
        raise NotImplementedError

    def converged(self) -> bool:
        for key in self.specs:
            states = [self._merged_at(dc, key) for dc in range(self.cfg.n_dcs)]
            if any(s is None for s in states) or any(s != states[0] for s in states[1:]):
                return False
        return True

    def converged_values(self) -> dict[str, int]:
        return {key: self._merged_at(0, key).value() for key in self.specs}


class WeakDriver(Driver):
    """Tally counter over weak puts, bound checked against the read value."""

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        # per (dc, key): the version last folded, its siblings and their merge
        self._folds: dict[tuple[int, str], tuple[int, tuple[bytes, ...], TallyCounter]] = {}
        # per (dc, key): blob -> tally (holding that blob) of each put returned
        # since the last fold of a later version, so the next such fold need
        # not decode it
        self._written: dict[tuple[int, str], dict[bytes, TallyCounter]] = {}

    def seed(self, spec: CounterSpec) -> None:
        self.specs[spec.key] = spec
        blob = TallyCounter(incs={"_init": spec.initial}).encode()
        for store in self.stores:
            store.seed(spec.key, blob, Consistency.WEAK)

    def start(self) -> None:
        for dc in range(self.cfg.n_dcs):
            self.sim.spawn(self._sync_loop(dc))

    def _read_merged(self, dc: int, key: str):
        rec = yield from self.stores[dc].get(key)
        if rec is None:
            return None
        return self._fold(dc, rec), rec.version

    def _fold(self, dc: int, rec: VersionedRecord) -> TallyCounter:
        """The merge of ``rec``'s siblings, as a delta join on the last merge.

        A read of the version last folded returns the last merge. A later
        version joins into it only the siblings the last tuple lacked, taking
        the tally of a blob this driver put from ``_written`` and decoding
        the rest; the first fold of a (dc, key) joins them all. This is exact
        because every weak put's data is at least the fold of what its writer
        read (``apply`` in ``client_op``, ``merge`` in ``_merge_in``) and the
        store drops only siblings born by the put's context: each sibling
        that leaves the tuple is below one that stays, so below the new
        merge. A lone sibling is folded whole: it is its own merge, so the
        merge keeps that sibling's bytes object (``_sync_loop`` sends it as
        is). An earlier version, whose read was overtaken on the way back
        by a later one, may merge to less than the last merge, so it is
        folded whole and the cache is left as it is. Tallies in ``_written``
        and decoded ones carry their bytes, so a merge of them does too.
        """
        version, folded, merged = self._folds.get((dc, rec.key), (0, (), None))
        if rec.version == version:
            return merged
        if rec.version < version:
            return _fresh_fold(rec.siblings)
        written = self._written.pop((dc, rec.key), {})
        if len(rec.siblings) == 1:
            folded, merged = (), None
        for blob in rec.siblings:
            if blob not in folded:
                tally = written.get(blob) or TallyCounter.decode(blob)
                merged = tally if merged is None else merged.merge(tally)
        self._folds[(dc, rec.key)] = (rec.version, rec.siblings, merged)
        return merged

    def _put(self, dc: int, key: str, tally: TallyCounter, version: int):
        blob = tally.encode()
        yield from self.stores[dc].put(key, blob, context=version)
        self._written.setdefault((dc, key), {})[blob] = tally

    def _merged_at(self, dc: int, key: str):
        rec = self.stores[dc].peek(key)
        if rec is None:
            return None
        return _fresh_fold(rec.siblings)

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        got = yield from self._read_merged(dc, key)
        if got is None:
            return "failed", "notfound", False
        tally, version = got
        spec = self.specs[key]
        if _would_violate(spec, tally.value(), kind, delta):
            return "failed", "bound", False
        yield from self._put(dc, key, tally.apply(actor, kind, delta), version)
        return "ok", "ok", False

    def _sync_loop(self, dc: int):
        while True:
            yield self.cfg.sync_period_ms
            for key in sorted(self.specs):
                got = yield from self._read_merged(dc, key)
                if got is None:
                    continue
                blob = got[0].encode()
                sent = self.net.broadcast(
                    dc, lambda other, key=key, blob=blob: self._on_sync(other, key, blob)
                )
                self.metrics.sync_msg(sent)

    def _on_sync(self, dc: int, key: str, blob: bytes) -> None:
        self.sim.spawn(self._merge_in(dc, key, TallyCounter.decode(blob)))

    def _merge_in(self, dc: int, key: str, incoming: TallyCounter):
        got = yield from self._read_merged(dc, key)
        if got is None:
            return
        tally, version = got
        merged = tally.merge(incoming)
        if merged is tally:
            return
        yield from self._put(dc, key, merged, version)


class StrongDriver(Driver):
    """One linearizable copy on the home DC; everyone else pays a round trip."""

    HOME = 0

    def seed(self, spec: CounterSpec) -> None:
        self.specs[spec.key] = spec
        self.stores[self.HOME].seed(spec.key, str(spec.initial).encode(), Consistency.STRONG)

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        if dc != self.HOME:
            yield self.net.delay(dc, self.HOME)
        result = yield from self._home_op(key, kind, delta)
        if dc != self.HOME:
            yield self.net.delay(self.HOME, dc)
        return result

    def _home_op(self, key: str, kind: str, delta: int):
        """Runs at the home DC: read, bound check, conditional write, retry."""
        store = self.stores[self.HOME]
        spec = self.specs[key]
        for _ in range(self.cfg.retry_limit):
            rec = yield from store.get(key)
            if rec is None:
                return "failed", "notfound", False
            value = int(rec.siblings[0])
            if _would_violate(spec, value, kind, delta):
                return "failed", "bound", False
            new_value = value + delta if kind == "inc" else value - delta
            res = yield from store.put_conditional(key, str(new_value).encode(), rec.version)
            if res is not CONFLICT:
                return "ok", "ok", False
        return "failed", "retries", False

    def converged(self) -> bool:
        return True  # single copy

    def converged_values(self) -> dict[str, int]:
        out = {}
        for key in self.specs:
            rec = self.stores[self.HOME].peek(key)
            out[key] = int(rec.siblings[0])
        return out


class _BoundedDriver(Driver):
    """Shared seeding, state table and per-DC replicas for the two middleware
    designs; a subclass builds its replica for one DC in ``_replica``."""

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        # the run's one table: every middleware decodes and steps through it
        self.table = StateTable()
        self.replicas = [self._replica(dc) for dc in range(cfg.n_dcs)]
        for replica in self.replicas:
            replica.peers = self.replicas

    def _replica(self, dc: int):
        raise NotImplementedError

    def seed(self, spec: CounterSpec) -> None:
        self.specs[spec.key] = spec
        state = BoundedCounter.new(
            _polarity(spec), spec.bound, self.cfg.n_dcs, 0, spec.initial
        )
        blob = state.encode()
        # the counter exists everywhere before clients start: create-once at
        # DC 0 plus one fully delivered synchronization round
        for store in self.stores:
            store.seed(spec.key, blob, Consistency.STRONG)
        threshold = _threshold(self.cfg, spec)
        for replica in self.replicas:
            replica.register(spec.key, threshold)

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def _merged_at(self, dc: int, key: str):
        rec = self.stores[dc].peek(key)
        # a strong key holds exactly one sibling
        return None if rec is None else self.table.decode(rec.siblings[0])


class ClientDriver(_BoundedDriver):
    """Bounded counter through the client-library middleware."""

    def _replica(self, dc: int) -> ClientMiddleware:
        cfg = self.cfg
        return ClientMiddleware(
            self.sim,
            self.net,
            self.stores[dc],
            dc,
            cfg.n_dcs,
            self.metrics,
            retry_limit=cfg.retry_limit,
            sync_period_ms=cfg.sync_period_ms,
            rebalance_period_ms=cfg.rebalance_period_ms,
            table=self.table,
        )

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        return self.replicas[dc].update(key, kind, delta, flag)


class ServerDriver(_BoundedDriver):
    """Bounded counter through per-DC owner nodes."""

    def _replica(self, dc: int) -> ServerCluster:
        cfg = self.cfg
        return ServerCluster(
            self.sim,
            self.net,
            self.stores[dc],
            dc,
            self.metrics,
            n_nodes=cfg.nodes_per_dc,
            batching=cfg.strategy is not Strategy.BCSRV_NOBATCH,
            sync_period_ms=cfg.sync_period_ms,
            rebalance_period_ms=cfg.rebalance_period_ms,
            table=self.table,
        )

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        cluster = self.replicas[dc]
        for _ in range(self.cfg.retry_limit):
            reply = Future(self.sim)
            deadline = self.sim.now + self.cfg.owner_timeout_ms
            self.net.send(
                dc,
                dc,
                lambda r=reply, d=deadline: cluster.client_request(
                    key, kind, delta, flag, self._deliver(dc, r), d
                ),
            )
            resp = yield (reply, self.cfg.owner_timeout_ms)
            if resp is TIMEOUT:
                return "retry", "timeout", False
            if resp.status == "retry" and resp.reason == "conflict":
                continue
            return resp.status, resp.reason, resp.used_sync
        return "failed", "retries", False

    def _deliver(self, dc: int, fut: Future):
        def deliver(reply):
            self.net.send(dc, dc, lambda: fut.resolve(reply))

        return deliver


def make_driver(
    cfg: SimConfig, sim: Simulator, net: Network, stores: list[DCStore], metrics
) -> Driver:
    cls = {
        Strategy.WEAK: WeakDriver,
        Strategy.STRONG: StrongDriver,
        Strategy.BCCLT: ClientDriver,
        Strategy.BCSRV: ServerDriver,
        Strategy.BCSRV_NOBATCH: ServerDriver,
    }[cfg.strategy]
    return cls(cfg, sim, net, stores, metrics)
