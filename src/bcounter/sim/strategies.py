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
from functools import reduce

from ..crdt import BoundedCounter, Polarity
from ..middleware_client import ClientMiddleware
from ..middleware_server import ServerCluster
from ..store import CONFLICT, Consistency, DCStore
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

    Instances are never mutated: ``apply`` and ``merge`` return new objects,
    so one decoded or merged tally may be shared, as the weak driver's fold
    cache does.
    """

    __slots__ = ("incs", "decs")

    def __init__(self, incs: dict[str, int] | None = None, decs: dict[str, int] | None = None):
        self.incs = incs or {}
        self.decs = decs or {}

    def value(self) -> int:
        return sum(self.incs.values()) - sum(self.decs.values())

    def apply(self, actor: str, kind: str, delta: int) -> "TallyCounter":
        incs, decs = dict(self.incs), dict(self.decs)
        tallies = incs if kind == "inc" else decs
        tallies[actor] = tallies.get(actor, 0) + delta
        return TallyCounter(incs, decs)

    def merge(self, other: "TallyCounter") -> "TallyCounter":
        return TallyCounter(
            _entrywise_max(self.incs, other.incs), _entrywise_max(self.decs, other.decs)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TallyCounter)
            and self.incs == other.incs
            and self.decs == other.decs
        )

    def encode(self) -> bytes:
        doc = {"i": self.incs, "d": self.decs}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def decode(cls, blob: bytes) -> "TallyCounter":
        doc = json.loads(blob)
        return cls(dict(doc["i"]), dict(doc["d"]))


def _entrywise_max(mine: dict[str, int], theirs: dict[str, int]) -> dict[str, int]:
    out = dict(mine)
    for actor, n in theirs.items():
        # tallies are >= 0, so an actor only ``theirs`` has is always kept
        if n > out.get(actor, -1):
            out[actor] = n
    return out


class Driver:
    """Shared plumbing; subclasses implement the design specifics."""

    # the replicated state each DC's store holds; its siblings merge on read
    state_cls: type

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
        rec = self.stores[dc].peek(key)
        if rec is None:
            return None
        states = [self.state_cls.decode(s) for s in rec.siblings]
        return reduce(lambda a, b: a.merge(b), states)

    def converged(self) -> bool:
        for key in self.specs:
            states = [self._merged_at(dc, key) for dc in range(self.cfg.n_dcs)]
            if any(s is None for s in states) or any(s != states[0] for s in states[1:]):
                return False
        return True

    def converged_values(self) -> dict[str, int]:
        return {key: self._merged_at(0, key).value() for key in self.specs}

    # server-node fault hooks; only the server design has nodes
    def crash_node(self, dc: int, node: int) -> None:
        raise RuntimeError("this strategy has no server nodes to crash")

    def mark_failed(self, dc: int, node: int) -> None:
        raise RuntimeError("this strategy has no server nodes")

    def recover_node(self, dc: int, node: int) -> None:
        raise RuntimeError("this strategy has no server nodes")


class WeakDriver(Driver):
    """Tally counter over weak puts, bound checked against the read value."""

    state_cls = TallyCounter

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        # per (dc, key): the sibling tuple last folded, each of its siblings
        # decoded, and their merge; one entry per key per DC
        self._folds: dict[tuple[int, str], tuple[tuple[bytes, ...], dict, TallyCounter]] = {}

    def seed(self, spec: CounterSpec) -> None:
        self.specs[spec.key] = spec
        blob = TallyCounter(incs={"_init": spec.initial}).encode()
        for store in self.stores:
            store.seed(spec.key, blob, Consistency.WEAK)

    def start(self) -> None:
        for dc in range(self.cfg.n_dcs):
            self.sim.spawn(self._sync_loop(dc))

    def _read_merged(self, dc: int, key: str):
        yield self.net.intra_delay()
        rec = yield self.stores[dc].get(key)
        yield self.net.intra_delay()
        if rec is None:
            return None
        return self._fold(dc, key, rec.siblings), rec.version

    def _fold(self, dc: int, key: str, siblings: tuple[bytes, ...]) -> TallyCounter:
        """The merge of ``siblings``. An unchanged sibling tuple reuses the
        last merge; a changed one decodes only siblings the last one lacked."""
        last = self._folds.get((dc, key))
        if last is not None and last[0] == siblings:
            return last[2]
        seen = last[1] if last is not None else {}
        tallies = {blob: seen.get(blob) or TallyCounter.decode(blob) for blob in siblings}
        merged = reduce(TallyCounter.merge, tallies.values())
        self._folds[(dc, key)] = (siblings, tallies, merged)
        return merged

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        got = yield from self._read_merged(dc, key)
        if got is None:
            return "failed", "notfound", False
        tally, version = got
        spec = self.specs[key]
        if _would_violate(spec, tally.value(), kind, delta):
            return "failed", "bound", False
        new_tally = tally.apply(actor, kind, delta)
        yield self.net.intra_delay()
        yield self.stores[dc].put(key, new_tally.encode(), context=version)
        yield self.net.intra_delay()
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
        if merged == tally:
            return
        yield self.net.intra_delay()
        yield self.stores[dc].put(key, merged.encode(), context=version)
        yield self.net.intra_delay()


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
            yield self.net.intra_delay()
            rec = yield store.get(key)
            yield self.net.intra_delay()
            if rec is None:
                return "failed", "notfound", False
            value = int(rec.siblings[0])
            if _would_violate(spec, value, kind, delta):
                return "failed", "bound", False
            new_value = value + delta if kind == "inc" else value - delta
            yield self.net.intra_delay()
            res = yield store.put_conditional(key, str(new_value).encode(), rec.version)
            yield self.net.intra_delay()
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
    """Shared seeding for the two middleware designs."""

    state_cls = BoundedCounter

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


class ClientDriver(_BoundedDriver):
    """Bounded counter through the client-library middleware."""

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        self.middlewares = [
            ClientMiddleware(
                sim,
                net,
                stores[dc],
                dc,
                cfg.n_dcs,
                metrics,
                retry_limit=cfg.retry_limit,
                sync_period_ms=cfg.sync_period_ms,
                rebalance_period_ms=cfg.rebalance_period_ms,
            )
            for dc in range(cfg.n_dcs)
        ]
        for mw in self.middlewares:
            mw.peers = self.middlewares

    def seed(self, spec: CounterSpec) -> None:
        super().seed(spec)
        for mw in self.middlewares:
            mw.register(spec.key, _polarity(spec), spec.bound, _threshold(self.cfg, spec))

    def start(self) -> None:
        for mw in self.middlewares:
            mw.start()

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        result = yield from self.middlewares[dc].update(key, kind, delta, flag)
        return result


class ServerDriver(_BoundedDriver):
    """Bounded counter through per-DC owner nodes."""

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        batching = cfg.strategy is not Strategy.BCSRV_NOBATCH
        self.clusters = [
            ServerCluster(
                sim,
                net,
                stores[dc],
                dc,
                metrics,
                n_nodes=cfg.nodes_per_dc,
                batching=batching,
                sync_period_ms=cfg.sync_period_ms,
                rebalance_period_ms=cfg.rebalance_period_ms,
            )
            for dc in range(cfg.n_dcs)
        ]
        for cluster in self.clusters:
            cluster.peers = self.clusters

    def seed(self, spec: CounterSpec) -> None:
        super().seed(spec)
        for cluster in self.clusters:
            cluster.register(spec.key, _threshold(self.cfg, spec))

    def start(self) -> None:
        for cluster in self.clusters:
            cluster.start()

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        cluster = self.clusters[dc]
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
            if resp.status == "stale":
                continue  # re-route against the bumped epoch
            if resp.status == "retry" and resp.reason == "conflict":
                continue
            return resp.status, resp.reason, resp.used_sync
        return "failed", "retries", False

    def _deliver(self, dc: int, fut: Future):
        def deliver(reply):
            self.net.send(dc, dc, lambda: fut.resolve(reply))

        return deliver

    def crash_node(self, dc: int, node: int) -> None:
        self.clusters[dc].crash_node(node)

    def mark_failed(self, dc: int, node: int) -> None:
        self.clusters[dc].mark_failed(node)

    def recover_node(self, dc: int, node: int) -> None:
        self.clusters[dc].recover_node(node)


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
