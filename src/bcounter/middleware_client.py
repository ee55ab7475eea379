"""Client-library middleware for bounded counters.

One instance serves one data center. Counters live in that DC's store as
strong keys holding the immutable counter state, one sibling each; every
update is a read, a CRDT update applied at this DC's replica id, and a
conditional write, retried on conflict, each one store round trip, hops
included. Updates step through a ``StateTable`` shared by every middleware
of a run: clients that read the same stored state share one computed next
state.

Cross-DC replication is a periodic push of locally modified counters to
every other DC, merged in at the receiver through the same conditional-write
loop. Rights movement uses the transfer policy: a background rebalancer tops
up this replica when it runs low, and operations flagged GLOBAL may
synchronously pull rights before giving up. That pull is
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

from .crdt import BoundedCounter, Polarity, StateTable
from .sim.kernel import Simulator
from .sim.net import Network
from .store import ABSENT, CONFLICT, DCStore
from .transfer import (
    Replica,
    TransferRequest,
    TransferResponse,
    TransferStatus,
    acquire,
    handle_request,
    rebalance_tick,
    rights_elsewhere,
)


class ClientMiddleware(Replica):
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
        table: StateTable | None = None,
    ):
        super().__init__(sim, net, store, dc, metrics, sync_period_ms, rebalance_period_ms)
        self.table = StateTable() if table is None else table
        self.n_dcs = n_dcs
        self.retry_limit = retry_limit
        self._dirty: set[str] = set()

    # -- wiring ------------------------------------------------------------

    def start(self) -> None:
        self.sim.spawn(self._sync_loop())
        self.sim.spawn(self._rebalance_loop())

    # -- store access ---------------------------------------------------------

    def _fetch(self, key: str):
        """Read the locally stored counter: (state, version), or None.
        A strong key holds exactly one sibling."""
        rec = yield from self.store.get(key)
        if rec is None:
            return None
        return rec.siblings[0], rec.version

    # -- counter operations ------------------------------------------------------

    def create(self, key: str, polarity: Polarity, bound: int, initial: int | None = None):
        """Install a fresh counter; fails if the key already exists."""
        state = BoundedCounter.new(polarity, bound, self.n_dcs, self.dc, initial)
        res = yield from self.store.put_conditional(key, state, ABSENT)
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
            new_state = self.table.step(state, kind, self.dc, delta)
            if type(new_state) is int:  # not enough rights; these are held here
                deficit = delta - new_state
                if flag == "local":
                    hint = rights_elsewhere(state, self.dc, deficit)
                    return ("retry" if hint else "failed"), "rights", used_sync
                acquired, requested = yield from self._acquire_sync(key, state, deficit)
                used_sync = used_sync or requested
                if not acquired:
                    return "failed", "rights", used_sync
                continue  # fresh read sees the merged-in rights
            self.metrics.op_write()
            res = yield from self.store.put_conditional(key, new_state, version)
            if res is CONFLICT:
                continue
            self._dirty.add(key)
            return "ok", "ok", used_sync
        return "failed", "retries", used_sync

    # -- transfer requests ---------------------------------------------------

    def _acquire_sync(self, key: str, state: BoundedCounter, deficit: int):
        """Pull rights until the deficit is covered. The view is the state read
        plus the grants merged so far; each grant is written to the store."""

        def merge(resp: TransferResponse):
            nonlocal state
            yield from self._merge_into_store(key, resp.state)
            state = state.merge(resp.state)

        threshold = self.thresholds[key]
        ask = self._ask(key)
        return (yield from acquire(lambda: state, self.dc, deficit, threshold, ask, merge))

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
            res = yield from self.store.put_conditional(key, new_state, version)
            if res is CONFLICT:
                continue
            self._dirty.add(key)
            self._respond(req, reply, resp)
            return
        self._respond(req, reply, TransferResponse(TransferStatus.DENIED))

    # -- cross-DC state synchronization --------------------------------------

    def _sync_loop(self):
        last_epoch = self.net.partition_epoch
        while True:
            yield self.sync_period_ms
            epoch = self.net.partition_epoch
            send_all = epoch != last_epoch
            last_epoch = epoch
            keys = sorted(self.thresholds) if send_all else sorted(self._dirty)
            self._dirty.clear()
            for key in keys:
                got = yield from self._fetch(key)
                if got is None:
                    continue
                self._push_state(key, got[0])

    def on_state(self, key: str, state: BoundedCounter) -> None:
        self.sim.spawn(self._merge_into_store(key, state))

    def _merge_into_store(self, key: str, incoming: BoundedCounter):
        """Fold a remote state into the local durable copy, or install it."""
        for _ in range(self.retry_limit):
            got = yield from self._fetch(key)
            if got is None:
                merged, version = incoming, ABSENT
            else:
                state, version = got
                merged = state.merge(incoming)
                if merged == state:
                    return True
            res = yield from self.store.put_conditional(key, merged, version)
            if res is not CONFLICT:
                return True
        return False  # the next sync tick delivers it again

    # -- proactive rights rebalancing ------------------------------------------

    def _rebalance_loop(self):
        while True:
            yield self.rebalance_period_ms
            for key, threshold in sorted(self.thresholds.items()):
                got = yield from self._fetch(key)
                if got is None:
                    continue
                state = got[0]
                for req in rebalance_tick(state, self.dc, threshold):
                    self._send_request(key, req, state)
