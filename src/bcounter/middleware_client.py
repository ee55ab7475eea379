"""Client-library middleware for bounded counters.

One instance serves one data center. Counters live in that DC's store as
strong keys holding the immutable counter state, one sibling each; every
update is a read, a CRDT update applied at this DC's replica id, and a
conditional write, retried on conflict, each one store round trip, hops
included. The conditional write already names the stored version it read, and
at one DC a strong key's version names exactly one stored state, so updates
are memoized by (key, version): clients that read the same version share one
computed next state. Only the newest version stepped per key is kept.

Cross-DC replication is a periodic push of locally modified counters to
every other DC, plus a full round of every counter every few ticks, merged in
at the receiver through the same conditional-write loop; a merge that loses
every race gives up, and the sender's next full round delivers it again.
Rights movement uses the transfer policy: a background rebalancer tops up
this replica when it runs low, and operations flagged GLOBAL may
synchronously pull rights before giving up. That pull is
``Replica._acquire``, the loop the owner nodes run too; here its view is the
state the operation read plus the grants merged so far, and each grant is
written to the local store before the next request.

Each request arrives with ``Network.call``'s answer callback, which the
grantor calls to answer a synchronous request. A grant is only ever answered
after the grantor's own conditional write of the granted state succeeded, so
every granted right is durable at the grantor before the requester can spend
it. An answer that arrives after the requester stopped waiting is dropped.
"""

from __future__ import annotations

from .crdt import BoundedCounter, NotEnoughRights, Polarity
from .sim.kernel import Simulator
from .sim.net import Network
from .store import ABSENT, CONFLICT, DCStore
from .transfer import (
    Replica,
    TransferRequest,
    TransferResponse,
    TransferStatus,
    handle_request,
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
    ):
        super().__init__(sim, net, store, dc, metrics, sync_period_ms, rebalance_period_ms)
        # key -> (newest version stepped, {(kind, delta): next state or rights held})
        self._steps: dict[str, tuple[int, dict]] = {}
        self.n_dcs = n_dcs
        self.retry_limit = retry_limit

    # -- the hooks of the sync and rebalance loops -------------------------------

    def durable(self, key: str):
        """This DC's stored state of ``key``; it is also the rebalance view."""
        rec = yield self.store.get(key)
        return None if rec is None else rec.siblings[0]

    view = durable

    # -- counter operations ------------------------------------------------------

    def create(self, key: str, polarity: Polarity, bound: int, initial: int | None = None):
        """Install a fresh counter; fails if the key already exists."""
        state = BoundedCounter.new(polarity, bound, self.n_dcs, self.dc, initial)
        res = yield self.store.put_conditional(key, state, ABSENT)
        if res is CONFLICT:
            return "exists"
        self.dirty.add(key)
        return "ok"

    def read(self, key: str):
        rec = yield self.store.get(key)
        if rec is None:
            return None
        return rec.siblings[0].value()

    def update(self, key: str, kind: str, delta: int, flag: str = "global"):
        """inc/dec; returns (status, reason, used_sync)."""
        used_sync = False
        for _ in range(self.retry_limit):
            rec = yield self.store.get(key)
            if rec is None:
                return "failed", "notfound", used_sync
            state, version = rec.siblings[0], rec.version
            new_state = self._step(key, state, version, kind, delta)
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
            res = yield self.store.put_conditional(key, new_state, version)
            if res is CONFLICT:
                continue
            self.dirty.add(key)
            return "ok", "ok", used_sync
        return "failed", "retries", used_sync

    def _step(self, key: str, state: BoundedCounter, version: int, kind: str, delta: int):
        """Apply ``kind`` ("inc" or "dec") by ``delta`` here to ``state``, the
        stored ``version`` of ``key``: the next state, or the rights held here
        if they are too few. Clients that read one version share one result,
        which is safe only because counters are never mutated. A read older
        than the newest version stepped is computed fresh and not kept."""
        newest = self._steps.get(key)
        if newest is None or newest[0] < version:
            newest = self._steps[key] = (version, {})
        steps = newest[1] if newest[0] == version else {}
        out = steps.get((kind, delta))
        if out is None:
            try:
                out = (state.increment if kind == "inc" else state.decrement)(self.dc, delta)
            except NotEnoughRights as short:
                out = short.available
            steps[(kind, delta)] = out
        return out

    # -- transfer requests ---------------------------------------------------

    def _acquire_sync(self, key: str, state: BoundedCounter, deficit: int):
        """Pull rights until the deficit is covered. The view is the state read
        plus the grants merged so far; each grant is written to the store."""

        def merge(resp: TransferResponse):
            nonlocal state
            yield from self._merge_into_store(key, resp.state)
            state = state.merge(resp.state)

        return (yield from self._acquire(key, lambda: state, deficit, merge))

    def on_transfer_request(self, key: str, req: TransferRequest, answer):
        self.sim.spawn(self._serve_transfer(key, req, answer))

    def _serve_transfer(self, key: str, req: TransferRequest, answer):
        """Grantor side; a GRANTED reply is sent only once the grant is durable."""
        for _ in range(self.retry_limit):
            rec = yield self.store.get(key)
            if rec is None:
                return
            new_state, resp = handle_request(rec.siblings[0], req)
            if resp.status is not TransferStatus.GRANTED:
                self._respond(req, answer, resp)
                return
            res = yield self.store.put_conditional(key, new_state, rec.version)
            if res is CONFLICT:
                continue
            self.dirty.add(key)
            self._respond(req, answer, resp)
            return
        self._respond(req, answer, TransferResponse(TransferStatus.DENIED))

    # -- cross-DC state synchronization --------------------------------------

    def on_state(self, key: str, state: BoundedCounter) -> None:
        self.sim.spawn(self._merge_into_store(key, state))

    def _merge_into_store(self, key: str, incoming: BoundedCounter):
        """Fold a remote state into the local durable copy, or install it, and
        give up after ``retry_limit`` lost races. It never marks the key dirty."""
        for _ in range(self.retry_limit):
            rec = yield self.store.get(key)
            if rec is None:
                merged, version = incoming, ABSENT
            else:
                state, version = rec.siblings[0], rec.version
                merged = state.merge(incoming)
                if merged == state:
                    return
            res = yield self.store.put_conditional(key, merged, version)
            if res is not CONFLICT:
                return
