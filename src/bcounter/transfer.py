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

Everything here except :func:`acquire` is a pure function of a counter
state. ``acquire`` is the requester's side of on-demand acquisition, shared by
both middlewares: a generator that runs the request/grant loop, with sending,
waiting and merging granted states back in left to its callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator

from .crdt import BoundedCounter


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
    state: bytes | None = None  # grantor's new state, attached to SYNC grants


def visible_rights(state: BoundedCounter, replica: int) -> int:
    """Rights replica appears to hold, judged from this state."""
    return state.local_rights(replica)


def rights_elsewhere(state: BoundedCounter, me: int, deficit: int) -> bool:
    """Whether another replica visibly holds at least ``deficit`` rights.

    The retry hint for an operation that may not block on acquisition: when
    it holds, rebalancing may bring the rights here and a retry can succeed.
    """
    return any(visible_rights(state, j) >= deficit for j in range(state.n) if j != me)


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
        theirs = visible_rights(state, j)
        want = (theirs - mine) // 2
        if want > 0:
            requests.append(make_request(state, j, me, want, TransferMode.ASYNC))
    return requests


def sync_candidates(state: BoundedCounter, me: int) -> list[int]:
    """Replicas worth asking for rights, best first.

    Descending by visible rights, ties broken by id; replicas that look
    exhausted are excluded entirely.
    """
    ranked = [
        (visible_rights(state, j), j)
        for j in range(state.n)
        if j != me and visible_rights(state, j) > 0
    ]
    ranked.sort(key=lambda t: (-t[0], t[1]))
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
    payload = new_state.encode() if req.mode is TransferMode.SYNC else None
    return new_state, TransferResponse(TransferStatus.GRANTED, grant, payload)


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
