"""Rights redistribution policy.

Two mechanisms keep rights where updates happen, both built from plain
request/response messages with no locking:

* proactive rebalancing: a replica holding fewer rights than a threshold
  periodically asks visibly richer replicas for half the difference,
* on-demand acquisition: an operation that must not fail sends synchronous
  requests to candidates ranked by visible rights until its deficit is
  covered.

Requests may be duplicated or reordered in transit. Each request carries a
witness, the requester's current view of how many rights the grantor has
already sent it; the grantor ignores any request whose witness is behind its
own record, so replayed requests grant nothing twice.

The policy functions are pure functions of a counter state. ``acquire`` is
the requester's side of on-demand acquisition: a generator that runs the
request/grant loop, with sending, waiting and merging granted states back in
left to its callbacks. :class:`Replica`, the base of both middlewares, is one
DC's endpoint for these messages: it runs ``acquire`` and sends each request
with ``Network.call``, whose answer a grantor gives a SYNC request only. It
also runs both designs' periodic jobs, one loop of each per DC: the rebalance
loop, and the sync loop that pushes durable states to the other DCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Generator

from .crdt import BoundedCounter
from .sim.kernel import Future, Simulator
from .sim.net import Network
from .store import DCStore

# a full sync round every this many ticks re-delivers a state that a crashed
# receiver lost, or whose merge gave up, without waiting for a new write
FULL_RESYNC_TICKS = 10


class TransferMode(Enum):
    ASYNC = "async"  # background rebalancing; grantor keeps at least half
    SYNC = "sync"  # blocking acquisition; grantor may give everything


class TransferStatus(Enum):
    GRANTED = "granted"
    DENIED = "denied"
    IGNORED = "ignored"


@dataclass(frozen=True)
class TransferRequest:
    grantor: int
    requester: int
    amount: int
    # requester's view of rights already transferred grantor -> requester;
    # non-decreasing across a requester's successive requests to one grantor
    witness: int
    mode: TransferMode


@dataclass(frozen=True)
class TransferResponse:
    status: TransferStatus
    granted: int = 0
    state: BoundedCounter | None = None  # grantor's new state, attached to SYNC grants


def rights_elsewhere(state: BoundedCounter, me: int, deficit: int) -> bool:
    """Whether another replica visibly holds at least ``deficit`` rights.

    The retry hint for an operation that may not block on acquisition: when
    it holds, rebalancing may bring the rights here and a retry can succeed.
    """
    return any(state.local_rights(j) >= deficit for j in range(state.n) if j != me)


def make_request(
    state: BoundedCounter, grantor: int, requester: int, amount: int, mode: TransferMode
) -> TransferRequest:
    witness = state.rights.get((grantor, requester), 0)
    return TransferRequest(
        grantor=grantor, requester=requester, amount=amount, witness=witness, mode=mode
    )


def rebalance_tick(
    state: BoundedCounter, me: int, threshold: int
) -> list[TransferRequest]:
    """Requests to emit on one rebalance timer tick.

    Quiet while local rights sit at or above the threshold. Below it, ask
    every replica that visibly holds more than us for half the difference.
    Replicas that look no richer than us are left alone, so an exhausted
    system goes silent instead of spinning on hopeless requests.
    """
    mine = state.local_rights(me)
    if mine >= threshold:
        return []
    requests = []
    for j in range(state.n):
        if j == me:
            continue
        theirs = state.local_rights(j)
        want = (theirs - mine) // 2
        if want > 0:
            requests.append(make_request(state, j, me, want, TransferMode.ASYNC))
    return requests


def sync_candidates(state: BoundedCounter, me: int) -> list[int]:
    """Replicas worth asking for rights, best first.

    Descending by visible rights, ties broken by id; replicas that look
    exhausted are excluded entirely.
    """
    held = [(state.local_rights(j), j) for j in range(state.n) if j != me]
    ranked = sorted((t for t in held if t[0] > 0), key=lambda t: (-t[0], t[1]))
    return [j for _, j in ranked]


def handle_request(
    state: BoundedCounter, req: TransferRequest
) -> tuple[BoundedCounter, TransferResponse]:
    """Grantor-side decision for one incoming request.

    IGNORED when our record of rights sent to this requester is ahead of the
    request's witness: an earlier grant is still in flight, so acting now
    would double-send. Otherwise grant what the mode allows, capped by what
    we actually hold; DENIED when that is nothing. A GRANTED response is
    produced only after the transfer is applied to our state.
    """
    already_sent = state.rights.get((req.grantor, req.requester), 0)
    if already_sent > req.witness:
        return state, TransferResponse(TransferStatus.IGNORED)
    available = state.local_rights(req.grantor)
    if req.mode is TransferMode.ASYNC:
        grant = min(req.amount, available // 2)
    else:
        grant = min(req.amount, available)
    if grant <= 0:
        return state, TransferResponse(TransferStatus.DENIED)
    new_state = state.transfer(req.grantor, req.requester, grant)
    attached = new_state if req.mode is TransferMode.SYNC else None
    return new_state, TransferResponse(TransferStatus.GRANTED, grant, attached)


def acquire(
    view: Callable[[], BoundedCounter],
    me: int,
    deficit: int,
    threshold: int,
    ask: Callable[[TransferRequest, BoundedCounter], object],
    merge: Callable[[TransferResponse], Generator],
):
    """Pull at least ``deficit`` rights to ``me``; returns (acquired, requested).

    Before each request the candidates are ranked from ``view()`` as it is
    then, best first, leaving out any already asked, so each is asked at most
    once; the request is built from that same state. It asks for a
    threshold-sized chunk, so one round trip covers a burst of deficient
    operations rather than a single one. ``ask(req, state)`` sends the request
    and returns what to wait on; the caller resumes this generator with the
    reply. Anything but a GRANTED reply, a timeout included, is a refusal.
    Each grant is handed to ``merge``, a generator run to completion before
    the next request.
    """
    chunk = max(deficit, threshold)
    remaining = deficit
    requested = False
    asked: set[int] = set()
    while remaining > 0:
        state = view()
        candidates = [j for j in sync_candidates(state, me) if j not in asked]
        if not candidates:
            return False, requested
        target = candidates[0]
        asked.add(target)
        requested = True
        resp = yield ask(make_request(state, target, me, chunk, TransferMode.SYNC), state)
        if not isinstance(resp, TransferResponse) or resp.status is not TransferStatus.GRANTED:
            continue
        yield from merge(resp)
        remaining -= resp.granted
    return True, requested


def default_threshold(initial_slack: int, n: int) -> int:
    """Rebalance threshold: a tenth of an even per-replica share, at least 1."""
    return max(1, initial_slack // (10 * n))


class Replica:
    """One DC's bounded-counter replica: what both middlewares wire the same way.

    It holds the run's kernel and network, this DC's store, the metrics, the
    sync and rebalance periods, ``peers`` (every DC's replica by dc id, set
    by wiring), each registered key's rebalance threshold, and the ``dirty``
    keys written here since the last sync tick. A subclass serves
    ``on_transfer_request(key, req, answer)`` and ``on_state(key, state)``,
    the receiving end of ``_push_state``.

    ``start`` spawns the DC's one sync loop and one rebalance loop, in both
    designs. They run over the registered keys and read a key through
    two generators a subclass supplies, ``durable(key)``, the state that may
    leave this DC, and ``view(key)``, the state rebalancing asks from; each
    returns None while the DC holds no state of the key that it may use.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        store: DCStore,
        dc: int,
        metrics,
        sync_period_ms: float,
        rebalance_period_ms: float,
    ):
        self.sim = sim
        self.net = net
        self.store = store
        self.dc = dc
        self.metrics = metrics
        self.sync_period_ms = sync_period_ms
        self.rebalance_period_ms = rebalance_period_ms
        self.peers: list[Replica] = []
        self.thresholds: dict[str, int] = {}
        self.dirty: set[str] = set()

    def start(self) -> None:
        self.sim.spawn(self._sync_loop())
        self.sim.spawn(self._rebalance_loop())

    def register(self, key: str, threshold: int) -> None:
        self.thresholds[key] = threshold

    def _send_request(self, key: str, req: TransferRequest, view: BoundedCounter) -> Future:
        """Send a transfer request built from ``view``; the future resolves
        with the grantor's answer, which only a SYNC request gets."""
        self.metrics.transfer_request(view.local_rights(req.grantor))
        handle = partial(self.peers[req.grantor].on_transfer_request, key, req)
        return self.net.call(self.dc, req.grantor, handle)

    def _acquire(self, key: str, view: Callable[[], BoundedCounter], deficit: int, merge):
        """``acquire`` for ``key`` at this DC; returns (acquired, requested).
        Each answer is waited on for two grantor RTTs."""

        def ask(req: TransferRequest, state: BoundedCounter):
            return self._send_request(key, req, state), 2 * self.net.rtt(self.dc, req.grantor)

        return (yield from acquire(view, self.dc, deficit, self.thresholds[key], ask, merge))

    def _push_state(self, key: str, state: BoundedCounter) -> None:
        """Send ``state``, this DC's state of ``key``, to every other DC."""
        peers = self.peers
        sent = self.net.broadcast(self.dc, lambda dst: peers[dst].on_state(key, state))
        self.metrics.sync_msg(sent)

    def _sync_loop(self):
        """Each tick, push the durable state of the dirty keys; of every key
        every ``FULL_RESYNC_TICKS`` ticks and after a partition change."""
        last_epoch = self.net.partition_epoch
        ticks = 0
        while True:
            yield self.sync_period_ms
            ticks += 1
            epoch = self.net.partition_epoch
            full = epoch != last_epoch or ticks % FULL_RESYNC_TICKS == 0
            last_epoch = epoch
            keys = sorted(self.thresholds if full else self.dirty)
            self.dirty.clear()
            for key in keys:
                state = yield from self.durable(key)
                if state is not None:
                    self._push_state(key, state)

    def _rebalance_loop(self):
        while True:
            yield self.rebalance_period_ms
            for key in sorted(self.thresholds):
                view = yield from self.view(key)
                if view is not None:
                    for req in rebalance_tick(view, self.dc, self.thresholds[key]):
                        self._send_request(key, req, view)

    def _respond(self, req: TransferRequest, answer, resp: TransferResponse) -> None:
        """Answer a SYNC request with ``resp``; an ASYNC request gets no
        answer, and its grant travels with the next state push."""
        if req.mode is TransferMode.SYNC:
            self.metrics.transfer_response()
            answer(resp)
