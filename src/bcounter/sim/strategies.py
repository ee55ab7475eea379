"""Strategy drivers: one uniform client-operation interface per design.

A driver owns whatever middleware its design needs, seeds counters into the
stores, and exposes ``client_op`` as a generator the simulated client
processes run. Every operation resolves to ``(status, reason, used_sync)``
with status one of ok / failed / retry, so the harness can account for all
strategies identically. In every design, an op whose result would leave
int64 fails with reason ``overflow``.

Designs:

* weak: eventually-consistent counter with a read-time bound check. Each
  client tallies its own increments and decrements under a private actor key;
  merging takes the entrywise max, and the store joins each put into the
  key's one tally, so every acknowledged operation survives replication
  exactly once and the quiescent value is exact. The bound check races with
  concurrent writers by construction; that is the point of the baseline.
* strong: a single copy on the home DC, conditional writes, remote clients
  pay a round trip per operation.
* client-middleware: bounded counter via the in-client library, one replica
  per DC.
* server-middleware: bounded counter via per-DC owner nodes, with or without
  write batching.
"""

from __future__ import annotations

from functools import partial

from ..crdt import INT64_MAX, INT64_MIN, BoundedCounter, Polarity
from ..middleware_client import ClientMiddleware
from ..middleware_server import ServerCluster
from ..store import CONFLICT, Consistency, DCStore
from ..transfer import default_threshold
from .config import CounterSpec, SimConfig, Strategy
from .kernel import TIMEOUT, Simulator
from .net import Network


def _would_violate(polarity: Polarity, bound: int, value: int, kind: str, delta: int) -> bool:
    """Whether the op takes ``value`` past ``bound``, or further past it."""
    after = polarity.slack(value + delta if kind == "inc" else value - delta, bound)
    return after < 0 and after < polarity.slack(value, bound)


def _refusal(polarity: Polarity, bound: int, value: int, kind: str, delta: int) -> str | None:
    """Why a weak or strong op fails at ``value``, or None if it may go ahead."""
    after = value + delta if kind == "inc" else value - delta
    if not INT64_MIN <= after <= INT64_MAX:
        return "overflow"
    return "bound" if _would_violate(polarity, bound, value, kind, delta) else None


def _threshold(cfg: SimConfig, spec: CounterSpec) -> int:
    if cfg.rebalance_threshold is not None:
        return cfg.rebalance_threshold
    return default_threshold(abs(spec.initial - spec.bound), cfg.n_dcs)


class TallyCounter:
    """Grow-only per-actor tallies; value = sum(incs) - sum(decs).

    Instances are immutable: ``apply`` and ``merge`` return new objects,
    sharing any section dict they leave alone. The weak driver stores them
    as they are, so one tally may sit in several DCs' stores at once;
    writing into its dicts would rewrite all of those.

    Each tally keeps ``sums``, the running (sum(incs), sum(decs)), so
    ``value`` is O(1) and tallies of different sums compare unequal without
    a walk.
    """

    __slots__ = ("incs", "decs", "sums")

    def __init__(
        self,
        incs: dict[str, int] | None = None,
        decs: dict[str, int] | None = None,
        *,
        sums: tuple[int, int] | None = None,
    ):
        self.incs = incs or {}
        self.decs = decs or {}
        if sums is None:
            sums = sum(self.incs.values()), sum(self.decs.values())
        self.sums = sums

    def value(self) -> int:
        return self.sums[0] - self.sums[1]

    def apply(self, actor: str, kind: str, delta: int) -> "TallyCounter":
        inc, dec = self.sums
        if kind == "inc":
            incs = {**self.incs, actor: self.incs.get(actor, 0) + delta}
            return TallyCounter(incs, self.decs, sums=(inc + delta, dec))
        decs = {**self.decs, actor: self.decs.get(actor, 0) + delta}
        return TallyCounter(self.incs, decs, sums=(inc, dec + delta))

    def merge(self, other: "TallyCounter") -> "TallyCounter":
        """The entrywise max; ``self`` itself when no entry of ``other`` is
        above it."""
        incs = _entrywise_max(self.incs, other.incs)
        decs = _entrywise_max(self.decs, other.decs)
        if not incs and not decs:
            return self
        inc, dec = self.sums
        return TallyCounter(
            {**self.incs, **incs} if incs else self.incs,
            {**self.decs, **decs} if decs else self.decs,
            sums=(inc + _rise(self.incs, incs), dec + _rise(self.decs, decs)),
        )

    def __eq__(self, other) -> bool:
        # equal tallies have equal sums, so the sums settle most pairs
        return (
            isinstance(other, TallyCounter)
            and self.sums == other.sums
            and self.incs == other.incs
            and self.decs == other.decs
        )


def _entrywise_max(mine: dict[str, int], theirs: dict[str, int]) -> dict[str, int]:
    """The entries of ``theirs`` above ``mine``'s. Tallies are >= 0, so an
    actor only ``theirs`` has is always one of them."""
    return {actor: n for actor, n in theirs.items() if n > mine.get(actor, -1)}


def _rise(mine: dict[str, int], raised: dict[str, int]) -> int:
    """How much ``raised``, entries above ``mine``'s, adds to its sum."""
    return sum(n - mine.get(actor, 0) for actor, n in raised.items())


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
        self.polarities: dict[str, Polarity] = {}

    def seed(self, spec: CounterSpec) -> None:
        self.specs[spec.key] = spec
        self.polarities[spec.key] = Polarity(spec.polarity)

    def start(self) -> None:
        pass

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        raise NotImplementedError

    def _durable_at(self, dc: int, key: str):
        """The durable state at ``dc``: the store's value there."""
        return self.stores[dc].peek(key).value

    def converged(self) -> bool:
        for key in self.specs:
            states = [self._durable_at(dc, key) for dc in range(self.cfg.n_dcs)]
            if any(s != states[0] for s in states[1:]):
                return False
        return True

    def converged_values(self) -> dict[str, int]:
        return {key: self._durable_at(0, key).value() for key in self.specs}


class WeakDriver(Driver):
    """Tally counter over weak puts, which the store joins; bound checked
    against the read value."""

    def seed(self, spec: CounterSpec) -> None:
        super().seed(spec)
        tally = TallyCounter(incs={"_init": spec.initial})
        for store in self.stores:
            store.seed(spec.key, tally, Consistency.WEAK)

    def start(self) -> None:
        for dc in range(self.cfg.n_dcs):
            self.sim.spawn(self._sync_loop(dc))

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        tally = (yield self.stores[dc].get(key)).value
        reason = _refusal(self.polarities[key], self.specs[key].bound, tally.value(), kind, delta)
        if reason:
            return "failed", reason, False
        yield self.stores[dc].put(key, tally.apply(actor, kind, delta))
        return "ok", "ok", False

    def _sync_loop(self, dc: int):
        while True:
            yield self.cfg.sync_period_ms
            for key in sorted(self.specs):
                tally = (yield self.stores[dc].get(key)).value
                sent = self.net.broadcast(
                    dc, lambda other, key=key, tally=tally: self._on_sync(other, key, tally)
                )
                self.metrics.sync_msg(sent)

    def _on_sync(self, dc: int, key: str, tally: TallyCounter) -> None:
        self.sim.spawn(self._merge_in(dc, key, tally))

    def _merge_in(self, dc: int, key: str, incoming: TallyCounter):
        tally = (yield self.stores[dc].get(key)).value
        merged = tally.merge(incoming)
        if merged is tally:
            return
        yield self.stores[dc].put(key, merged)


class StrongDriver(Driver):
    """One linearizable copy on the home DC; everyone else pays a round trip."""

    HOME = 0

    def seed(self, spec: CounterSpec) -> None:
        super().seed(spec)
        self.stores[self.HOME].seed(spec.key, spec.initial, Consistency.STRONG)

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        """A round trip to the home DC, which reads, checks the bound and
        writes conditionally, retrying on conflict."""
        if dc != self.HOME:
            yield self.net.delay(dc, self.HOME)
        store = self.stores[self.HOME]
        polarity, bound = self.polarities[key], self.specs[key].bound
        result = "failed", "retries", False
        for _ in range(self.cfg.retry_limit):
            rec = yield store.get(key)
            value = rec.value
            reason = _refusal(polarity, bound, value, kind, delta)
            if reason:
                result = "failed", reason, False
                break
            new_value = value + delta if kind == "inc" else value - delta
            res = yield store.put_conditional(key, new_value, rec.version)
            if res is not CONFLICT:
                result = "ok", "ok", False
                break
        if dc != self.HOME:
            yield self.net.delay(self.HOME, dc)
        return result

    def converged(self) -> bool:
        return True  # single copy

    def converged_values(self) -> dict[str, int]:
        return {key: self.stores[self.HOME].peek(key).value for key in self.specs}


class _BoundedDriver(Driver):
    """Shared seeding and per-DC replicas for the two middleware designs; a
    subclass builds its replica for one DC in ``_replica``."""

    def __init__(self, cfg, sim, net, stores, metrics):
        super().__init__(cfg, sim, net, stores, metrics)
        self.replicas = [self._replica(dc) for dc in range(cfg.n_dcs)]
        for replica in self.replicas:
            replica.peers = self.replicas

    def _replica(self, dc: int):
        raise NotImplementedError

    def seed(self, spec: CounterSpec) -> None:
        super().seed(spec)
        state = BoundedCounter.new(
            self.polarities[spec.key], spec.bound, self.cfg.n_dcs, 0, spec.initial
        )
        # the counter exists everywhere before clients start: create-once at
        # DC 0 plus one fully delivered synchronization round
        for store in self.stores:
            store.seed(spec.key, state, Consistency.STRONG)
        threshold = _threshold(self.cfg, spec)
        for replica in self.replicas:
            replica.register(spec.key, threshold)

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()


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
        )

    def client_op(self, dc: int, actor: str, key: str, kind: str, delta: int, flag: str):
        cluster = self.replicas[dc]
        used_sync = False  # kept across retries, as ClientMiddleware.update keeps it
        for _ in range(self.cfg.retry_limit):
            deadline = self.sim.now + self.cfg.owner_timeout_ms
            request = partial(cluster.client_request, key, kind, delta, flag, deadline_ms=deadline)
            resp = yield (self.net.call(dc, dc, request), self.cfg.owner_timeout_ms)
            if resp is TIMEOUT:
                return "retry", "timeout", used_sync
            used_sync = used_sync or resp.used_sync
            if resp.status == "retry" and resp.reason == "conflict":
                continue
            return resp.status, resp.reason, used_sync
        return "failed", "retries", used_sync


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
