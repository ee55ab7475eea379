"""Server-side middleware: per-DC owner nodes with caching and write batching.

Every DC runs a small cluster of nodes. A routing table maps each counter key
to exactly one owner node per epoch; the epoch increments whenever membership
changes (crash detected, node recovered, explicit reconfiguration), which
re-routes keys. All client operations for a key funnel through its owner, so
within one DC the counter's updates are serialized without store conflicts.

The owner keeps the counter cached: a durable base (the last state it wrote
successfully, with its version token) plus a working copy holding operations
accepted since. Operations apply to the working copy at arrival, where the
rights check happens immediately; acknowledgements are deferred until a
conditional write containing the operation lands durably. While one write is
in flight, newly arriving operations keep folding into the working copy and
ride the next write, so a busy owner writes batches, not single updates.

A conflicted write means another owner wrote first (an epoch race): the whole
working copy is discarded since none of it is durable, every affected client
is told to retry, and the cache is refreshed from the store. A crashed owner
loses its cache and its in-flight write; the durable base in the store is
what the next owner starts from, and unacknowledged clients time out.

An op that lacks rights joins the pipeline's acquisition queue, and the
owner pulls rights with ``transfer.acquire``, the loop the client library
runs too: each request is built from the working copy as it is when sent,
carries the owner's reply callback, and each grant is admitted like a
propagated state. Rights this owner grants are answered only once the write
carrying the grant is durable.

Without batching the same writer serves as the baseline the batching design
is measured against: work is admitted only while the working copy equals the
durable base, so each conditional write carries one waiter, and everything
arriving meanwhile waits, FIFO, until that write lands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from .crdt import BoundedCounter, NotEnoughRights
from .sim.kernel import Future, Process, Simulator
from .sim.net import Network
from .store import CONFLICT, DCStore
from .transfer import (
    TransferRequest,
    TransferResponse,
    TransferStatus,
    acquire,
    handle_request,
    rebalance_tick,
    rights_elsewhere,
    visible_rights,
)

# a full (non-dirty-only) propagation round every this many ticks, so state
# lost to crashed receivers is re-delivered without waiting for a new write
FULL_RESYNC_TICKS = 10

# ops older than their deadline minus this margin are shed un-applied, so a
# timed-out client can be sure its operation did not land after the fact
DEADLINE_MARGIN_MS = 20.0


@dataclass(frozen=True)
class OwnerReply:
    status: str  # ok | failed | retry | stale
    reason: str
    used_sync: bool = False


def _route_hash(key: str, epoch: int) -> int:
    digest = hashlib.md5(f"{key}:{epoch}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _OpItem:
    __slots__ = ("kind", "delta", "flag", "reply", "deadline_ms", "retried", "used_sync")

    def __init__(self, kind, delta, flag, reply, deadline_ms=None, retried=False):
        self.kind = kind
        self.delta = delta
        self.flag = flag
        self.reply = reply
        self.deadline_ms = deadline_ms
        self.retried = retried
        self.used_sync = False


class _OpWaiter:
    counts_as_op = True

    def __init__(self, item: _OpItem):
        self.item = item

    def on_ok(self, written: BoundedCounter) -> None:
        self.item.reply(OwnerReply("ok", "ok", self.item.used_sync))

    def on_conflict(self) -> None:
        self.item.reply(OwnerReply("retry", "conflict", self.item.used_sync))


class _MergeWaiter:
    counts_as_op = False

    def on_ok(self, written: BoundedCounter) -> None:
        pass

    def on_conflict(self) -> None:
        pass


class _GrantWaiter:
    """A granted transfer awaiting durability before the reply may leave."""

    counts_as_op = False

    def __init__(self, granted: int, respond: Callable[[TransferResponse], None]):
        self.granted = granted
        self.respond = respond

    def on_ok(self, written: BoundedCounter) -> None:
        self.respond(TransferResponse(TransferStatus.GRANTED, self.granted, written.encode()))

    def on_conflict(self) -> None:
        self.respond(TransferResponse(TransferStatus.DENIED))


class _Pipeline:
    COLD, LOADING, WARM = range(3)

    __slots__ = (
        "key",
        "state",
        "base_state",
        "base_version",
        "working",
        "batch",
        "arrivals",
        "writer_running",
        "acquire_queue",
        "acquiring",
        "dirty",
    )

    def __init__(self, key: str):
        self.key = key
        self.state = _Pipeline.COLD
        self.base_state: BoundedCounter | None = None
        self.base_version: int | None = None
        self.working: BoundedCounter | None = None
        self.batch: list = []  # waiters riding the next conditional write
        self.arrivals: list = []  # work parked until the pipeline can admit it
        self.writer_running = False
        self.acquire_queue: list[_OpItem] = []
        self.acquiring = False
        self.dirty = False


class Node:
    """One owner node; holds pipelines for the keys routed to it."""

    def __init__(self, cluster: "ServerCluster", idx: int):
        self.cluster = cluster
        self.idx = idx
        self.dead = False
        self.pipelines: dict[str, _Pipeline] = {}
        self._procs: list[Process] = []
        self._writer_proc: dict[str, Process] = {}

    # shorthand accessors into the cluster's shared machinery
    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def net(self) -> Network:
        return self.cluster.net

    @property
    def store(self) -> DCStore:
        return self.cluster.store

    @property
    def dc(self) -> int:
        return self.cluster.dc

    @property
    def metrics(self):
        return self.cluster.metrics

    def spawn(self, gen) -> Process:
        p = self.sim.spawn(gen)
        self._procs.append(p)
        return p

    def start(self) -> None:
        self.spawn(self._propagate_loop())
        self.spawn(self._rebalance_loop())

    def crash(self) -> None:
        self.dead = True
        for p in self._procs:
            p.kill()

    # -- admission ------------------------------------------------------------

    def _pipeline(self, key: str) -> _Pipeline:
        p = self.pipelines.get(key)
        if p is None:
            p = self.pipelines[key] = _Pipeline(key)
        return p

    def handle_op(self, key: str, item: _OpItem) -> None:
        if self.dead:
            return
        if self.cluster.route(key) is not self:
            item.reply(OwnerReply("stale", "stale"))
            return
        self._admit(self._pipeline(key), "op", item)

    def handle_merge(self, key: str, incoming: BoundedCounter) -> None:
        if self.dead:
            return
        self._admit(self._pipeline(key), "merge", incoming)

    def handle_transfer(
        self, key: str, req: TransferRequest, respond: Callable[[TransferResponse], None] | None
    ) -> None:
        if self.dead:
            return
        self._admit(self._pipeline(key), "transfer", (req, respond))

    def _admit(self, p: _Pipeline, tag: str, payload) -> None:
        """The one admission gate. Work waits in ``arrivals`` while the cache
        is not warm, and, without batching, while the working copy holds work
        that is not yet durable: one waiter per conditional write."""
        if p.state != _Pipeline.WARM or (
            not self.cluster.batching and p.working is not p.base_state
        ):
            p.arrivals.append((tag, payload))
            if p.state == _Pipeline.COLD:
                p.state = _Pipeline.LOADING
                self.spawn(self._load(p))
        elif tag == "op":
            self._admit_op(p, payload)
        elif tag == "merge":
            self._admit_merge(p, payload)
        else:
            self._admit_transfer(p, *payload)

    def _load(self, p: _Pipeline):
        yield self.net.intra_delay()
        rec = yield self.store.get(p.key)
        yield self.net.intra_delay()
        if rec is None:
            p.state = _Pipeline.COLD
            for tag, payload in p.arrivals:
                if tag == "op":
                    payload.reply(OwnerReply("failed", "notfound"))
            p.arrivals = []
            return
        p.base_state = BoundedCounter.decode(rec.siblings[0])
        p.base_version = rec.version
        p.working = p.base_state
        p.state = _Pipeline.WARM
        self._drain_arrivals(p)

    def _drain_arrivals(self, p: _Pipeline) -> None:
        parked, p.arrivals = p.arrivals, []
        for tag, payload in parked:
            self._admit(p, tag, payload)

    # -- write pipeline ---------------------------------------------------------

    def _expired(self, item: _OpItem) -> bool:
        return (
            item.deadline_ms is not None
            and self.sim.now > item.deadline_ms - DEADLINE_MARGIN_MS
        )

    def _admit_op(self, p: _Pipeline, item: _OpItem) -> None:
        if self._expired(item):
            return  # the client timed out; never apply such an op
        try:
            new_working = self._apply(p.working, item)
        except NotEnoughRights:
            self._rights_denied(p, item)
            return
        p.working = new_working
        self._enqueue(p, _OpWaiter(item))

    def _admit_merge(self, p: _Pipeline, incoming: BoundedCounter) -> None:
        merged = p.working.merge(incoming)
        if merged == p.working:
            return
        p.working = merged
        self._enqueue(p, _MergeWaiter())

    def _admit_transfer(self, p, req: TransferRequest, respond) -> None:
        new_working, resp = handle_request(p.working, req)
        if resp.status is not TransferStatus.GRANTED:
            if respond is not None:
                respond(resp)
            return
        p.working = new_working
        if respond is not None:
            self._enqueue(p, _GrantWaiter(resp.granted, respond))
        else:
            self._enqueue(p, _MergeWaiter())  # async grant: durability only

    def _apply(self, state: BoundedCounter, item: _OpItem) -> BoundedCounter:
        if item.kind == "inc":
            return state.increment(self.dc, item.delta)
        return state.decrement(self.dc, item.delta)

    def _rights_denied(self, p: _Pipeline, item: _OpItem) -> None:
        if item.flag == "local" or item.retried:
            deficit = item.delta - p.working.local_rights(self.dc)
            hint = item.flag == "local" and rights_elsewhere(p.working, self.dc, deficit)
            item.reply(OwnerReply("retry" if hint else "failed", "rights", item.used_sync))
            return
        p.acquire_queue.append(item)
        if not p.acquiring:
            p.acquiring = True
            self.spawn(self._acquire_loop(p))

    def _enqueue(self, p: _Pipeline, waiter) -> None:
        p.batch.append(waiter)
        if not p.writer_running:
            p.writer_running = True
            self._writer_proc[p.key] = self.spawn(self._write_loop(p))

    def _write_loop(self, p: _Pipeline):
        """The pipeline's only writer: one conditional write in flight at a
        time, carrying the working copy and every waiter admitted since the
        last write. After a landed write, work parked by the admission gate is
        admitted; after a conflict, the cache is reloaded from the store."""
        while p.batch or p.working is not p.base_state:
            waiters, p.batch = p.batch, []
            snapshot = p.working
            if any(w.counts_as_op for w in waiters):
                self.metrics.op_write()
            yield self.net.intra_delay()
            res = yield self.store.put_conditional(
                p.key, snapshot.encode(), p.base_version, aborter=self._writer_proc[p.key]
            )
            yield self.net.intra_delay()
            if res is CONFLICT:
                # nothing in the working copy is durable; drop all of it
                for w in waiters:
                    w.on_conflict()
                for w in p.batch:
                    w.on_conflict()
                p.batch = []
                p.state = _Pipeline.LOADING
                yield from self._load(p)
                continue
            p.base_version = res
            p.base_state = snapshot
            p.dirty = True
            for w in waiters:
                w.on_ok(snapshot)
            self._drain_arrivals(p)
        p.writer_running = False

    # -- synchronous rights acquisition -----------------------------------------

    def _acquire_loop(self, p: _Pipeline):
        while p.acquire_queue:
            item = p.acquire_queue.pop(0)
            deficit = item.delta - self._rights_after_parked(p)
            obtained = True
            if deficit > 0:
                obtained, requested = yield from self._acquire_sync(p, deficit)
                item.used_sync = item.used_sync or requested
            item.retried = True
            if obtained:
                self._admit(p, "op", item)  # may still fail; then replies failed
            else:
                item.reply(OwnerReply("failed", "rights", item.used_sync))
        p.acquiring = False

    def _rights_after_parked(self, p: _Pipeline) -> int:
        """Local rights once the ops and transfers parked in ``arrivals`` are
        admitted. An op re-admitted now is admitted after them, FIFO, so the
        rights they take are not there for it."""
        view = p.working
        for tag, payload in p.arrivals:
            if tag == "op":
                try:
                    view = self._apply(view, payload)
                except NotEnoughRights:
                    pass  # it goes to acquire rights of its own
            elif tag == "transfer":
                view = handle_request(view, payload[0])[0]
        return view.local_rights(self.dc)

    def _acquire_sync(self, p: _Pipeline, deficit: int):
        """Pull at least ``deficit`` rights. The view is the working copy,
        re-read before every request; each grant is admitted as a merge."""

        def ask(req: TransferRequest, view: BoundedCounter):
            reply = Future(self.sim)
            self._send_request(p.key, req, view, reply.resolve)
            return reply, 2 * self.net.rtt(self.dc, req.grantor)

        def merge(resp: TransferResponse):
            self._admit(p, "merge", BoundedCounter.decode(resp.state))
            yield from ()

        threshold = self.cluster.threshold_for(p.key)
        return (yield from acquire(lambda: p.working, self.dc, deficit, threshold, ask, merge))

    def _send_request(self, key: str, req: TransferRequest, view: BoundedCounter, reply=None):
        """Send a transfer request built from ``view``. A SYNC request carries
        ``reply``, the requester's callback for the grantor's answer."""
        self.metrics.transfer_request(
            self.sim.now, self.dc, req.grantor, req.mode.value, visible_rights(view, req.grantor)
        )
        peer = self.cluster.peers[req.grantor]
        self.net.send(self.dc, req.grantor, lambda: peer.on_transfer_request(key, req, reply))

    # -- periodic loops -----------------------------------------------------------

    def _propagate_loop(self):
        last_epoch = self.net.partition_epoch
        ticks = 0
        while True:
            yield self.cluster.sync_period_ms
            ticks += 1
            epoch = self.net.partition_epoch
            send_all = epoch != last_epoch or ticks % FULL_RESYNC_TICKS == 0
            last_epoch = epoch
            for key in sorted(self.pipelines):
                p = self.pipelines[key]
                if p.state != _Pipeline.WARM and not (
                    p.state == _Pipeline.LOADING and p.base_state is not None
                ):
                    continue
                if not (p.dirty or send_all):
                    continue
                p.dirty = False
                blob = p.base_state.encode()  # only durable state ever leaves
                peers = self.cluster.peers
                sent = self.net.broadcast(
                    self.dc, lambda dst, key=key, blob=blob: peers[dst].on_propagate(key, blob)
                )
                self.metrics.sync_msg(sent)

    def _rebalance_loop(self):
        while True:
            yield self.cluster.rebalance_period_ms
            for key in sorted(self.pipelines):
                p = self.pipelines[key]
                if p.state != _Pipeline.WARM:
                    continue
                view = p.working
                threshold = self.cluster.threshold_for(key)
                for req in rebalance_tick(view, self.dc, threshold):
                    self._send_request(key, req, view)


class ServerCluster:
    """One DC's owner nodes plus the routing table over them."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        store: DCStore,
        dc: int,
        metrics,
        n_nodes: int = 3,
        batching: bool = True,
        sync_period_ms: float = 50.0,
        rebalance_period_ms: float = 100.0,
    ):
        self.sim = sim
        self.net = net
        self.store = store
        self.dc = dc
        self.metrics = metrics
        self.batching = batching
        self.sync_period_ms = sync_period_ms
        self.rebalance_period_ms = rebalance_period_ms
        self.epoch = 0
        self.nodes: list[Node] = [Node(self, i) for i in range(n_nodes)]
        self._alive: list[int] = list(range(n_nodes))
        self.peers: list["ServerCluster"] = []  # index = dc id, set by wiring
        self._thresholds: dict[str, int] = {}

    # -- wiring --------------------------------------------------------------

    def register(self, key: str, threshold: int) -> None:
        self._thresholds[key] = threshold

    def threshold_for(self, key: str) -> int:
        return self._thresholds.get(key, 1)

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    # -- routing ----------------------------------------------------------------

    def route(self, key: str) -> Node:
        alive = self._alive
        idx = alive[_route_hash(key, self.epoch) % len(alive)]
        return self.nodes[idx]

    def reconfigure(self) -> None:
        """Membership-change marker: re-routes keys without touching nodes."""
        self.epoch += 1

    def crash_node(self, idx: int) -> None:
        self.nodes[idx].crash()

    def mark_failed(self, idx: int) -> None:
        """Failure detection: drop the node from routing, bump the epoch."""
        if self.nodes[idx].dead and idx in self._alive:
            self._alive.remove(idx)
            self.epoch += 1

    def recover_node(self, idx: int) -> None:
        node = Node(self, idx)
        self.nodes[idx] = node
        if idx not in self._alive:
            self._alive.append(idx)
            self._alive.sort()
        self.epoch += 1
        node.start()

    # -- message entry points -------------------------------------------------

    def client_request(
        self, key: str, kind: str, delta: int, flag: str, reply, deadline_ms: float | None = None
    ) -> None:
        self.route(key).handle_op(key, _OpItem(kind, delta, flag, reply, deadline_ms))

    def on_propagate(self, key: str, blob: bytes) -> None:
        self.route(key).handle_merge(key, BoundedCounter.decode(blob))

    def on_transfer_request(self, key: str, req: TransferRequest, reply) -> None:
        respond = None
        if reply is not None:

            def respond(resp):
                self.metrics.transfer_response()
                self.net.send(self.dc, req.requester, lambda: reply(resp))

        self.route(key).handle_transfer(key, req, respond)
