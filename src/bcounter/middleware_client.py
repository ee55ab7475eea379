"""Client-library middleware for bounded counters.

One instance serves one data center. Counters live in that DC's store as
strong keys holding the canonical counter encoding; every update is a read,
a CRDT update applied at this DC's replica id, and a conditional write,
retried on conflict. Cross-DC replication is a periodic push of locally
modified counters to every other DC, merged in at the receiver through the
same conditional-write loop. Rights movement uses the transfer policy: a
background rebalancer tops up this replica when it runs low, and operations
flagged GLOBAL may synchronously pull rights before giving up. That pull is
``transfer.acquire``, the loop the owner nodes run too; here its view is the
state the operation read plus the grants merged so far, and each grant is
written to the local store before the next request.

A synchronous request carries the requester's reply callback, which the
grantor calls across the network. A grant is only ever answered after the
grantor's own conditional write of the granted state succeeded, so every
granted right is durable at the grantor before the requester can spend it. A
reply that arrives after the requester stopped waiting is dropped.
"""

from __future__ import annotations

from functools import reduce

from .crdt import BoundedCounter, NotEnoughRights, Polarity
from .sim.kernel import Future, Simulator
from .sim.net import Network
from .store import ABSENT, CONFLICT, DCStore
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


class _Registered:
    __slots__ = ("polarity", "bound", "threshold")

    def __init__(self, polarity: Polarity, bound: int, threshold: int):
        self.polarity = polarity
        self.bound = bound
        self.threshold = threshold


class ClientMiddleware:
    """Counter operations for one DC, backed by its store."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        store: DCStore,
        dc: int,
        n_dcs: int,
        metrics,
        retry_limit: int = 16,
        sync_period_ms: float = 50.0,
        rebalance_period_ms: float = 100.0,
    ):
        self.sim = sim
        self.net = net
        self.store = store
        self.dc = dc
        self.n_dcs = n_dcs
        self.metrics = metrics
        self.retry_limit = retry_limit
        self.sync_period_ms = sync_period_ms
        self.rebalance_period_ms = rebalance_period_ms
        self.peers: list["ClientMiddleware"] = []  # index = dc id, set by wiring
        self._registered: dict[str, _Registered] = {}
        self._dirty: set[str] = set()

    # -- wiring ------------------------------------------------------------

    def register(self, key: str, polarity: Polarity, bound: int, threshold: int) -> None:
        self._registered[key] = _Registered(polarity, bound, threshold)

    def start(self) -> None:
        self.sim.spawn(self._sync_loop())
        self.sim.spawn(self._rebalance_loop())

    # -- store access ---------------------------------------------------------

    def _fetch(self, key: str):
        """Read and decode the locally stored counter; merges any siblings."""
        yield self.net.intra_delay()
        rec = yield self.store.get(key)
        yield self.net.intra_delay()
        if rec is None:
            return None
        states = [BoundedCounter.decode(s) for s in rec.siblings]
        return reduce(lambda a, b: a.merge(b), states), rec.version

    def _cond_write(self, key: str, blob: bytes, expected):
        yield self.net.intra_delay()
        res = yield self.store.put_conditional(key, blob, expected)
        yield self.net.intra_delay()
        return res

    # -- counter operations ------------------------------------------------------

    def create(self, key: str, polarity: Polarity, bound: int, initial: int | None = None):
        """Install a fresh counter; fails if the key already exists."""
        state = BoundedCounter.new(polarity, bound, self.n_dcs, self.dc, initial)
        res = yield from self._cond_write(key, state.encode(), ABSENT)
        if res is CONFLICT:
            return "exists"
        self._dirty.add(key)
        return "ok"

    def read(self, key: str):
        got = yield from self._fetch(key)
        if got is None:
            return None
        return got[0].value()

    def update(self, key: str, kind: str, delta: int, flag: str = "global"):
        """inc/dec; returns (status, reason, used_sync)."""
        used_sync = False
        for _ in range(self.retry_limit):
            got = yield from self._fetch(key)
            if got is None:
                return "failed", "notfound", used_sync
            state, version = got
            try:
                new_state = self._apply(state, kind, delta)
            except NotEnoughRights:
                deficit = delta - state.local_rights(self.dc)
                if flag == "local":
                    hint = rights_elsewhere(state, self.dc, deficit)
                    return ("retry" if hint else "failed"), "rights", used_sync
                acquired, requested = yield from self._acquire_sync(key, state, deficit)
                used_sync = used_sync or requested
                if not acquired:
                    return "failed", "rights", used_sync
                continue  # fresh read sees the merged-in rights
            self.metrics.op_write()
            res = yield from self._cond_write(key, new_state.encode(), version)
            if res is CONFLICT:
                continue
            self._dirty.add(key)
            return "ok", "ok", used_sync
        return "failed", "retries", used_sync

    def _apply(self, state: BoundedCounter, kind: str, delta: int) -> BoundedCounter:
        if kind == "inc":
            return state.increment(self.dc, delta)
        return state.decrement(self.dc, delta)

    # -- transfer requests ---------------------------------------------------

    def _acquire_sync(self, key: str, state: BoundedCounter, deficit: int):
        """Pull rights until the deficit is covered. The view is the state read
        plus the grants merged so far; each grant is written to the store."""

        def ask(req: TransferRequest, view: BoundedCounter):
            reply = Future(self.sim)
            self._send_request(key, req, view, reply.resolve)
            return reply, 2 * self.net.rtt(self.dc, req.grantor)

        def merge(resp: TransferResponse):
            nonlocal state
            granted = BoundedCounter.decode(resp.state)
            yield from self._merge_into_store(key, granted)
            state = state.merge(granted)

        threshold = self._registered[key].threshold
        return (yield from acquire(lambda: state, self.dc, deficit, threshold, ask, merge))

    def _send_request(self, key: str, req: TransferRequest, view: BoundedCounter, reply=None):
        """Send a transfer request built from ``view``. A SYNC request carries
        ``reply``, the requester's callback for the grantor's answer."""
        self.metrics.transfer_request(
            self.sim.now, self.dc, req.grantor, req.mode.value, visible_rights(view, req.grantor)
        )
        peer = self.peers[req.grantor]
        self.net.send(self.dc, req.grantor, lambda: peer.on_transfer_request(key, req, reply))

    def on_transfer_request(self, key: str, req: TransferRequest, reply):
        self.sim.spawn(self._serve_transfer(key, req, reply))

    def _serve_transfer(self, key: str, req: TransferRequest, reply):
        """Grantor side; a GRANTED reply is sent only once the grant is durable."""
        for _ in range(self.retry_limit):
            got = yield from self._fetch(key)
            if got is None:
                return
            state, version = got
            new_state, resp = handle_request(state, req)
            if resp.status is not TransferStatus.GRANTED:
                self._respond(req, reply, resp)
                return
            res = yield from self._cond_write(key, new_state.encode(), version)
            if res is CONFLICT:
                continue
            self._dirty.add(key)
            self._respond(req, reply, resp)
            return
        self._respond(req, reply, TransferResponse(TransferStatus.DENIED))

    def _respond(self, req: TransferRequest, reply, resp: TransferResponse) -> None:
        if reply is None:
            return  # background grants travel with the next sync push
        self.metrics.transfer_response()
        self.net.send(self.dc, req.requester, lambda: reply(resp))

    # -- cross-DC state synchronization --------------------------------------

    def _sync_loop(self):
        last_epoch = self.net.partition_epoch
        while True:
            yield self.sync_period_ms
            epoch = self.net.partition_epoch
            send_all = epoch != last_epoch
            last_epoch = epoch
            keys = sorted(self._registered) if send_all else sorted(self._dirty)
            self._dirty.clear()
            for key in keys:
                got = yield from self._fetch(key)
                if got is None:
                    continue
                blob = got[0].encode()
                peers = self.peers
                sent = self.net.broadcast(
                    self.dc, lambda dst, key=key, blob=blob: peers[dst].on_sync_state(key, blob)
                )
                self.metrics.sync_msg(sent)

    def on_sync_state(self, key: str, blob: bytes) -> None:
        self.sim.spawn(self._merge_into_store(key, BoundedCounter.decode(blob)))

    def _merge_into_store(self, key: str, incoming: BoundedCounter):
        """Fold a remote state into the local durable copy."""
        for _ in range(self.retry_limit):
            got = yield from self._fetch(key)
            if got is None:
                return False
            state, version = got
            merged = state.merge(incoming)
            if merged == state:
                return True
            res = yield from self._cond_write(key, merged.encode(), version)
            if res is not CONFLICT:
                return True
        return False  # the next sync tick delivers it again

    # -- proactive rights rebalancing ------------------------------------------

    def _rebalance_loop(self):
        while True:
            yield self.rebalance_period_ms
            for key in sorted(self._registered):
                info = self._registered[key]
                got = yield from self._fetch(key)
                if got is None:
                    continue
                state = got[0]
                for req in rebalance_tick(state, self.dc, info.threshold):
                    self._send_request(key, req, state)
