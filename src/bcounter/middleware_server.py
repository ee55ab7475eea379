"""Server-side middleware: per-DC owner nodes with caching and write batching.

Every DC runs a small cluster of nodes. A routing table maps each counter key
to exactly one owner node per epoch; the epoch increments whenever membership
changes (crash detected, node recovered, explicit reconfiguration), which
re-routes keys. All client operations for a key funnel through its owner, so
within one DC the counter's updates are serialized without store conflicts.

The owner keeps the counter cached: a durable base (the last state it wrote
successfully, with its version token) plus a working copy holding operations
accepted since. An operation is admitted at arrival against the rights this
DC holds, as escrow admits it: the owner counts the rights its admitted ops
created and consumed since it last built the working copy, and this DC's
local rights with them, and it builds the copy only when something reads it
(the writer's snapshot, a merge or transfer, the acquisition and rebalance
views). Acknowledgements are deferred until a conditional write containing
the operation lands durably. While one write is in flight, newly arriving
operations keep counting and ride the next write, so a busy owner writes
batches, not single updates.

A conflicted write means another owner wrote first (an epoch race): the whole
working copy is discarded since none of it is durable, every affected client
is told to retry, and the cache is refreshed from the store. A crashed owner
loses its cache and any write not yet landed, as its processes never resume;
the durable base in the store is what the next owner starts from, and
unacknowledged clients time out. The DC's one sync loop pushes the newest
durable state any of its nodes read or wrote, so a dead, cold or former
owner keeps none from leaving; its one rebalance loop reads each key's
current owner. A crash stops neither.

An op that lacks rights joins the pipeline's acquisition queue, and the
owner pulls rights with ``Replica._acquire``, the loop the client library
runs too: each request is built from the working copy as it is when sent and
goes out with ``Network.call``, as each client's op comes in, and each grant
is admitted like a propagated state. A grantor answers a SYNC request only,
and a grant only once the write carrying it is durable.

Without batching the same writer serves as the baseline the batching design
is measured against: an op is admitted only while no other op is unanswered,
so each conditional write carries at most one op, and ops arriving meanwhile
wait, FIFO, until it lands. Merges and transfer requests are admitted as they
arrive and ride the next write, as they do with batching.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .crdt import INT64_MAX, INT64_MIN, BoundedCounter, NotEnoughRights, Overflow, Polarity
from .sim.kernel import Process, Simulator
from .sim.net import Network
from .store import CONFLICT, DCStore
from .transfer import (
    Replica,
    TransferMode,
    TransferRequest,
    TransferResponse,
    TransferStatus,
    handle_request,
    rights_elsewhere,
)

# ops older than their deadline minus this margin are shed un-applied, so a
# timed-out client can be sure its operation did not land after the fact
DEADLINE_MARGIN_MS = 20.0

# (key, epoch) pairs whose owner hash is remembered; the hash depends on
# nothing else, so the memo cannot change routing
ROUTE_CACHE = 4096


@dataclass(frozen=True)
class OwnerReply:
    status: str  # ok | failed | retry
    reason: str
    used_sync: bool = False


# the replies an admitted op gets, shared: indexed by its used_sync flag
_OK = (OwnerReply("ok", "ok"), OwnerReply("ok", "ok", True))
_CONFLICT = (OwnerReply("retry", "conflict"), OwnerReply("retry", "conflict", True))


@functools.lru_cache(maxsize=ROUTE_CACHE)
def _route_hash(key: str, epoch: int) -> int:
    digest = hashlib.md5(f"{key}:{epoch}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _OpItem:
    """A client op; once admitted, it is its own waiter for the write."""

    __slots__ = ("kind", "delta", "flag", "reply", "deadline_ms", "retried", "used_sync")

    def __init__(self, kind, delta, flag, reply, deadline_ms=None, retried=False):
        self.kind = kind
        self.delta = delta
        self.flag = flag
        self.reply = reply
        self.deadline_ms = deadline_ms
        self.retried = retried
        self.used_sync = False

    def on_ok(self, written: BoundedCounter) -> None:
        self.reply(_OK[self.used_sync])

    def on_conflict(self) -> None:
        self.reply(_CONFLICT[self.used_sync])


class _GrantWaiter:
    """A granted SYNC transfer awaiting durability before the reply may leave."""

    def __init__(self, cluster: "ServerCluster", req: TransferRequest, answer, granted: int):
        self.cluster = cluster
        self.req = req
        self.answer = answer
        self.granted = granted

    def on_ok(self, written: BoundedCounter) -> None:
        resp = TransferResponse(TransferStatus.GRANTED, self.granted, written)
        self.cluster._respond(self.req, self.answer, resp)

    def on_conflict(self) -> None:
        self.cluster._respond(self.req, self.answer, TransferResponse(TransferStatus.DENIED))


class _Pipeline:
    COLD, LOADING, WARM = range(3)

    __slots__ = (
        "key",
        "state",
        "base_state",
        "base_version",
        "working",
        "inc_creates",
        "created",
        "consumed",
        "held",
        "room",
        "batch",
        "ops",
        "arrivals",
        "writer_running",
        "acquire_queue",
        "acquiring",
    )

    def __init__(self, key: str):
        self.key = key
        self.state = _Pipeline.COLD
        self.base_state: BoundedCounter | None = None
        self.base_version: int | None = None
        self.working: BoundedCounter | None = None  # the last one built
        self.inc_creates = True  # whether an increment creates rights
        # rights this DC's ops admitted since ``working`` was built created
        # and consumed, this DC's local rights counting them, and how many
        # more rights its ops may create plus consume before an entry or the
        # value could leave int64
        self.created = 0
        self.consumed = 0
        self.held: int | None = None  # None until an op needs it since a _settle
        self.room = 0
        self.batch: list = []  # admitted waiters not yet answered, oldest first
        self.ops = 0  # the ops among them
        self.arrivals: list = []  # work parked until the pipeline can admit it
        self.writer_running = False
        self.acquire_queue: list[_OpItem] = []
        self.acquiring = False


class Node:
    """One owner node; holds pipelines for the keys routed to it."""

    def __init__(self, cluster: "ServerCluster", idx: int):
        self.cluster = cluster
        self.sim = cluster.sim
        self.store = cluster.store
        self.dc = cluster.dc
        self.metrics = cluster.metrics
        self.idx = idx
        self.dead = False
        self.pipelines: dict[str, _Pipeline] = {}
        self._procs: list[Process] = []

    def spawn(self, gen) -> Process:
        p = self.sim.spawn(gen)
        self._procs.append(p)
        return p

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

    def handle(self, key: str, tag: str, payload) -> None:
        """Admit an ``"op"``, a ``"merge"`` or a ``"transfer"``; a crashed node drops it."""
        if not self.dead:
            self._admit(self._pipeline(key), tag, payload)

    def _admit(self, p: _Pipeline, tag: str, payload) -> None:
        """The one admission gate. Work waits in ``arrivals`` while the cache
        is not warm, and, without batching, an op waits while another op is
        unanswered: one op per conditional write."""
        if p.state != _Pipeline.WARM or (
            tag == "op"
            and not self.cluster.batching
            and p.ops
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
        # owner nodes create no counter: a key they serve was seeded
        rec = yield self.store.get(p.key)
        p.base_state = rec.siblings[0]
        p.base_version = rec.version
        self.cluster._saw(p.key, rec.version, p.base_state)
        p.inc_creates = p.base_state.polarity is Polarity.LOWER
        self._settle(p, p.base_state)
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
        """Admit an op by counting it against ``held`` and ``room``. An op
        that fails either check is applied to the built working copy instead,
        so an op is refused, or raises ``Overflow``, exactly when its own
        ``increment`` or ``decrement`` would."""
        if self._expired(item):
            return  # the client timed out; never apply such an op
        if p.held is None:
            self._count(p)
        delta = item.delta
        if (item.kind == "inc") is p.inc_creates:
            counted = 0 < delta <= p.room
            if counted:
                p.created += delta
                p.held += delta
        else:
            counted = 0 < delta <= p.held and delta <= p.room
            if counted:
                p.consumed += delta
                p.held -= delta
        if counted:
            p.room -= delta
        else:
            try:
                new_working = self._apply(self._working(p), item)
            except NotEnoughRights:
                self._rights_denied(p, item)
                return
            self._settle(p, new_working)
        p.batch.append(item)
        p.ops += 1
        self._start_writer(p)

    def _working(self, p: _Pipeline) -> BoundedCounter:
        """The working copy with the counted ops in it, built when read: one
        creating update, then one consuming update, each with the summed
        delta. Entries are sums, so this is the counter one update per op
        gives, and ``room`` keeps either update from overflowing."""
        if p.created or p.consumed:
            state, dc = p.working, self.dc
            if p.created:
                create = state.increment if p.inc_creates else state.decrement
                state = create(dc, p.created)
            if p.consumed:
                consume = state.decrement if p.inc_creates else state.increment
                state = consume(dc, p.consumed)
            p.working = state
            p.created = p.consumed = 0
        return p.working

    def _settle(self, p: _Pipeline, state: BoundedCounter) -> None:
        """Make ``state`` the working copy, with no op counted against it;
        ``held`` and ``room`` are taken when the next op arrives."""
        p.working = state
        p.created = p.consumed = 0
        p.held = None

    def _count(self, p: _Pipeline) -> None:
        """Take ``held`` and ``room`` from the working copy, which holds no
        counted op."""
        state, dc = p.working, self.dc
        p.held = state.local_rights(dc)
        try:
            value = state.value()
        except Overflow:  # merges can sum past int64; then every op takes the exact path
            p.room = 0
            return
        headroom = INT64_MAX - value if p.inc_creates else value - INT64_MIN
        p.room = min(
            headroom,
            INT64_MAX - state.rights.get((dc, dc), 0),
            INT64_MAX - state.used.get(dc, 0),
        )

    def _admit_merge(self, p: _Pipeline, incoming: BoundedCounter) -> None:
        working = self._working(p)
        merged = working.merge(incoming)
        if merged == working:
            return
        self._settle(p, merged)
        self._start_writer(p)

    def _admit_transfer(self, p, req: TransferRequest, answer) -> None:
        new_working, resp = handle_request(self._working(p), req)
        if resp.status is not TransferStatus.GRANTED:
            self.cluster._respond(req, answer, resp)
            return
        self._settle(p, new_working)
        if req.mode is TransferMode.SYNC:  # an async grant needs durability only
            p.batch.append(_GrantWaiter(self.cluster, req, answer, resp.granted))
        self._start_writer(p)

    def _apply(self, state: BoundedCounter, item: _OpItem) -> BoundedCounter:
        if item.kind == "inc":
            return state.increment(self.dc, item.delta)
        return state.decrement(self.dc, item.delta)

    def _rights_denied(self, p: _Pipeline, item: _OpItem) -> None:
        if item.flag == "local" or item.retried:
            deficit = item.delta - p.held
            hint = item.flag == "local" and rights_elsewhere(self._working(p), self.dc, deficit)
            item.reply(OwnerReply("retry" if hint else "failed", "rights", item.used_sync))
            return
        p.acquire_queue.append(item)
        if not p.acquiring:
            p.acquiring = True
            self.spawn(self._acquire_loop(p))

    def _start_writer(self, p: _Pipeline) -> None:
        if not p.writer_running:
            p.writer_running = True
            self.spawn(self._write_loop(p))

    def _write_loop(self, p: _Pipeline):
        """The pipeline's only writer: one conditional write in flight at a
        time, carrying the working copy. A landed write answers the waiters
        that were in ``batch`` when it was taken, then admits work parked by
        the admission gate; a conflict answers every waiter and reloads the
        cache from the store."""
        while p.batch or p.working is not p.base_state:
            n, ops = len(p.batch), p.ops
            snapshot = self._working(p)
            if ops:
                self.metrics.op_write()
            res = yield self.store.put_conditional(p.key, snapshot, p.base_version)
            if res is CONFLICT:
                # nothing in the working copy is durable; drop all of it
                waiters, p.batch, p.ops = p.batch, [], 0
                for w in waiters:
                    w.on_conflict()
                p.state = _Pipeline.LOADING
                yield from self._load(p)
                continue
            p.base_version = res
            p.base_state = snapshot
            self.cluster._saw(p.key, res, snapshot)
            self.cluster.dirty.add(p.key)
            waiters, p.batch, p.ops = p.batch[:n], p.batch[n:], p.ops - ops
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
        view = self._working(p)
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

        def merge(resp: TransferResponse):
            self._admit(p, "merge", resp.state)
            yield from ()

        return (yield from self.cluster._acquire(p.key, lambda: self._working(p), deficit, merge))


class ServerCluster(Replica):
    """One DC's replica: its owner nodes plus the routing table over them."""

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
        super().__init__(sim, net, store, dc, metrics, sync_period_ms, rebalance_period_ms)
        self.batching = batching
        self.epoch = 0
        self.nodes: list[Node] = [Node(self, i) for i in range(n_nodes)]
        self._alive: list[int] = list(range(n_nodes))
        # per key, the (version, state) of the newest store read or landed
        # write of any node: a load can resume after a later write landed
        self._newest: dict[str, tuple[int, BoundedCounter]] = {}

    # -- routing ----------------------------------------------------------------

    def route(self, key: str) -> Node:
        # with every node failed, a key still routes, and its dead owner drops it
        alive = self._alive or range(len(self.nodes))
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
        self.nodes[idx] = Node(self, idx)
        if idx not in self._alive:
            self._alive.append(idx)
            self._alive.sort()
        self.epoch += 1

    # -- message entry points -------------------------------------------------

    def client_request(
        self, key: str, kind: str, delta: int, flag: str, reply, deadline_ms: float | None = None
    ) -> None:
        self.route(key).handle(key, "op", _OpItem(kind, delta, flag, reply, deadline_ms))

    def on_state(self, key: str, state: BoundedCounter) -> None:
        self.route(key).handle(key, "merge", state)

    def on_transfer_request(self, key: str, req: TransferRequest, answer) -> None:
        self.route(key).handle(key, "transfer", (req, answer))

    def _saw(self, key: str, version: int, state: BoundedCounter) -> None:
        if version > self._newest.get(key, (0, None))[0]:
            self._newest[key] = (version, state)

    # -- the sync and rebalance loops' hooks; none of them yields ---------------

    def durable(self, key: str):
        """The newest durable state of ``key`` that any node read or wrote."""
        yield from ()
        return self._newest.get(key, (0, None))[1]

    def view(self, key: str):
        """The owner's working copy of ``key`` while it is alive and warm."""
        yield from ()
        node = self.route(key)
        p = None if node.dead else node.pipelines.get(key)
        return node._working(p) if p is not None and p.state == _Pipeline.WARM else None
