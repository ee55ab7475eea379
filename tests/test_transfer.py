"""Transfer policy: grant rules, witness dedup, rebalance and candidate ranking."""

import random

import pytest

from bcounter import BoundedCounter, Polarity
from bcounter.sim.kernel import TIMEOUT
from bcounter.transfer import (
    TransferMode,
    TransferRequest,
    TransferResponse,
    TransferStatus,
    acquire,
    default_threshold,
    handle_request,
    make_request,
    rebalance_tick,
    rights_elsewhere,
    sync_candidates,
    visible_rights,
)


def counter_with(rights, used=None, bound=0, n=3):
    return BoundedCounter(
        polarity=Polarity.LOWER, bound=bound, n=n, rights=rights, used=used or {}
    )


class TestHandleRequest:
    def test_async_grants_at_most_half(self):
        state = counter_with({(0, 0): 10})
        req = TransferRequest(0, 1, 8, witness=0, mode=TransferMode.ASYNC)
        new, resp = handle_request(state, req)
        assert resp.status is TransferStatus.GRANTED
        assert resp.granted == 5
        assert new.local_rights(0) == 5
        assert new.local_rights(1) == 5
        assert resp.state is None

    def test_async_small_request_granted_fully(self):
        state = counter_with({(0, 0): 10})
        req = TransferRequest(0, 1, 3, witness=0, mode=TransferMode.ASYNC)
        _, resp = handle_request(state, req)
        assert resp.granted == 3

    def test_sync_can_grant_everything(self):
        state = counter_with({(0, 0): 3})
        req = TransferRequest(0, 1, 3, witness=0, mode=TransferMode.SYNC)
        new, resp = handle_request(state, req)
        assert resp.status is TransferStatus.GRANTED
        assert resp.granted == 3
        assert new.local_rights(0) == 0
        assert BoundedCounter.decode(resp.state) == new

    def test_sync_grant_capped_by_available(self):
        state = counter_with({(0, 0): 2})
        req = TransferRequest(0, 1, 9, witness=0, mode=TransferMode.SYNC)
        _, resp = handle_request(state, req)
        assert resp.granted == 2

    def test_denied_when_nothing_available(self):
        state = counter_with({(0, 0): 4}, used={0: 4})
        for mode in TransferMode:
            new, resp = handle_request(
                state, TransferRequest(0, 1, 1, witness=0, mode=mode)
            )
            assert resp.status is TransferStatus.DENIED
            assert new == state

    def test_async_single_right_denied(self):
        # floor(1/2) == 0: a lone right is never split
        state = counter_with({(0, 0): 1})
        _, resp = handle_request(state, TransferRequest(0, 1, 1, 0, TransferMode.ASYNC))
        assert resp.status is TransferStatus.DENIED

    def test_stale_witness_ignored(self):
        state = counter_with({(0, 0): 10, (0, 1): 4})
        req = TransferRequest(0, 1, 2, witness=0, mode=TransferMode.ASYNC)
        new, resp = handle_request(state, req)
        assert resp.status is TransferStatus.IGNORED
        assert new == state

    def test_current_witness_accepted(self):
        state = counter_with({(0, 0): 10, (0, 1): 4})
        req = TransferRequest(0, 1, 2, witness=4, mode=TransferMode.ASYNC)
        _, resp = handle_request(state, req)
        assert resp.status is TransferStatus.GRANTED

    def test_grantor_never_goes_negative(self):
        rng = random.Random(13)
        for _ in range(300):
            held = rng.randint(0, 20)
            state = counter_with({(0, 0): held} if held else {})
            req = TransferRequest(
                0, 1, rng.randint(1, 30), witness=0, mode=rng.choice(list(TransferMode))
            )
            new, resp = handle_request(state, req)
            assert new.local_rights(0) >= 0
            if resp.status is TransferStatus.GRANTED:
                assert resp.granted <= held

    def test_duplicated_reordered_stream_equals_deduplicated(self):
        """Replayed and shuffled requests must land on the same final state."""
        rng = random.Random(7)
        for _ in range(100):
            base = counter_with({(0, 0): rng.randint(5, 40)})
            reqs = []
            probe = base
            for _ in range(rng.randint(1, 4)):
                r = make_request(probe, 0, 1, rng.randint(1, 6), TransferMode.SYNC)
                probe, _ = handle_request(probe, r)
                reqs.append(r)

            # clean in-order, deduplicated delivery
            clean = base
            for r in reqs:
                clean, _ = handle_request(clean, r)

            # duplicated and reordered delivery of the same stream
            noisy_stream = reqs + [rng.choice(reqs) for _ in range(4)]
            rng.shuffle(noisy_stream)
            noisy = base
            for r in noisy_stream:
                noisy, _ = handle_request(noisy, r)

            # every request that was IGNORED in the noisy run was either a
            # duplicate or overtaken; the grantor never over-grants
            assert noisy.local_rights(0) >= clean.local_rights(0)
            assert noisy.rights.get((0, 1), 0) <= clean.rights.get((0, 1), 0)
            # a duplicate of an already-applied request changes nothing
            settled, _ = handle_request(clean, reqs[-1])
            assert settled == clean

    def test_transfer_preserves_value(self):
        state = counter_with({(0, 0): 10}, used={0: 2})
        new, _ = handle_request(state, TransferRequest(0, 2, 4, 0, TransferMode.SYNC))
        assert new.value() == state.value()


class TestRebalance:
    def test_quiet_above_threshold(self):
        state = counter_with({(0, 0): 10, (1, 1): 50})
        assert rebalance_tick(state, 0, threshold=10) == []

    def test_asks_half_the_difference(self):
        state = counter_with({(0, 0): 2, (1, 1): 10})
        reqs = rebalance_tick(state, 0, threshold=5)
        assert len(reqs) == 1
        (r,) = reqs
        assert r.grantor == 1 and r.requester == 0
        assert r.amount == 4  # (10 - 2) / 2
        assert r.mode is TransferMode.ASYNC

    def test_skips_poorer_replicas(self):
        state = counter_with({(0, 0): 3, (1, 1): 2, (2, 2): 9})
        reqs = rebalance_tick(state, 0, threshold=5)
        assert [r.grantor for r in reqs] == [2]
        assert reqs[0].amount == 3

    def test_silent_when_everyone_is_exhausted(self):
        state = counter_with({(0, 0): 4, (1, 1): 4}, used={0: 4, 1: 4})
        assert rebalance_tick(state, 0, threshold=5) == []

    def test_witness_carried_from_state(self):
        state = counter_with({(1, 1): 20, (1, 0): 6})
        reqs = rebalance_tick(state, 0, threshold=7)
        (r,) = reqs
        assert r.witness == 6


class TestSyncCandidates:
    def test_descending_by_visible_rights(self):
        state = counter_with({(0, 0): 1, (1, 1): 9, (2, 2): 4})
        assert sync_candidates(state, 0) == [1, 2]

    def test_exhausted_excluded(self):
        state = counter_with({(1, 1): 5}, used={1: 5})
        assert sync_candidates(state, 0) == []

    def test_ties_by_id(self):
        state = counter_with({(1, 1): 5, (2, 2): 5})
        assert sync_candidates(state, 0) == [1, 2]

    def test_self_excluded(self):
        state = counter_with({(0, 0): 50, (1, 1): 1})
        assert 0 not in sync_candidates(state, 0)


DENIED = TransferResponse(TransferStatus.DENIED)
IGNORED = TransferResponse(TransferStatus.IGNORED)


def granted(n):
    return TransferResponse(TransferStatus.GRANTED, n)


class Script:
    """Scripted callbacks for ``acquire`` at replica 0; no simulator, no network.

    Each request is answered with the next scripted reply; ``between`` may
    change the view before the reply is delivered.
    """

    def __init__(self, state, replies, between=None):
        self.state = state
        self.replies = list(replies)
        self.between = between
        self.asked = []  # (request, the view it was built from)
        self.merged = []

    def view(self):
        return self.state

    def ask(self, req, state):
        self.asked.append((req, state))
        return "reply"

    def merge(self, resp):
        self.merged.append(resp)
        yield "merging"  # acquire passes the merge's own waits through

    def run(self, deficit, threshold):
        gen = acquire(self.view, 0, deficit, threshold, self.ask, self.merge)
        try:
            waited = next(gen)
            while True:
                if waited == "reply":
                    reply = self.replies.pop(0)
                    if self.between is not None:
                        self.between(self)
                    waited = gen.send(reply)
                else:
                    assert waited == "merging"
                    waited = gen.send(None)
        except StopIteration as stop:
            return stop.value


class TestAcquire:
    RICH = {(1, 1): 5, (2, 2): 9, (3, 3): 7}

    def test_refusals_move_on_best_first_until_candidates_run_out(self):
        script = Script(counter_with(self.RICH, n=4), [DENIED, IGNORED, TIMEOUT])
        assert script.run(deficit=2, threshold=6) == (False, True)
        assert [req.grantor for req, _ in script.asked] == [2, 3, 1]
        assert script.merged == []
        assert script.replies == []

    def test_every_request_asks_for_the_chunk(self):
        for deficit, threshold in [(2, 6), (6, 2), (3, 3)]:
            script = Script(counter_with(self.RICH, n=4), [DENIED, DENIED, DENIED])
            script.run(deficit, threshold)
            amounts = {req.amount for req, _ in script.asked}
            assert amounts == {max(deficit, threshold)}
            assert all(req.mode is TransferMode.SYNC for req, _ in script.asked)
            assert all(req.requester == 0 for req, _ in script.asked)

    def test_two_partial_grants_cover_the_deficit(self):
        script = Script(counter_with(self.RICH, n=4), [granted(3), DENIED, granted(2)])
        assert script.run(deficit=5, threshold=1) == (True, True)
        assert [req.grantor for req, _ in script.asked] == [2, 3, 1]
        assert script.merged == [granted(3), granted(2)]

    def test_stops_once_covered(self):
        script = Script(counter_with(self.RICH, n=4), [granted(4)])
        assert script.run(deficit=4, threshold=1) == (True, True)
        assert len(script.asked) == 1
        assert script.merged == [granted(4)]

    def test_nothing_asked_without_candidates(self):
        script = Script(counter_with({(0, 0): 1}), [])
        assert script.run(deficit=3, threshold=1) == (False, False)
        assert script.asked == []

    def test_each_request_is_built_from_the_view_when_sent(self):
        # between replies the view learns that replicas 1 and then 3 already
        # sent rights to replica 0; the first change also re-ranks 1 above 3
        later = [
            counter_with({**self.RICH, (1, 1): 12, (1, 0): 1}, n=4),
            counter_with({**self.RICH, (1, 1): 12, (1, 0): 1, (3, 0): 2}, n=4),
        ]
        first = counter_with(self.RICH, n=4)
        views = [first, *later]

        def between(script):
            if later:
                script.state = later.pop(0)

        script = Script(first, [DENIED, TIMEOUT, granted(1)], between)
        assert script.run(deficit=1, threshold=1) == (True, True)
        assert [req.grantor for req, _ in script.asked] == [2, 1, 3]
        for (req, state), view in zip(script.asked, views):
            assert state is view
            assert req.witness == view.rights.get((req.grantor, 0), 0)
        assert [req.witness for req, _ in script.asked] == [0, 1, 2]


def test_visible_rights_is_local_view():
    state = counter_with({(1, 1): 8}, used={1: 3})
    assert visible_rights(state, 1) == 5


def test_rights_elsewhere_needs_one_other_replica_covering_the_deficit():
    state = counter_with({(0, 0): 9, (1, 1): 4, (2, 2): 4})
    assert rights_elsewhere(state, 1, 4)
    assert not rights_elsewhere(state, 0, 5)  # 4 + 4 elsewhere, but split
    assert rights_elsewhere(state, 1, 9)  # replica 0 alone covers it
    assert not rights_elsewhere(state, 0, 9)  # own rights never count


@pytest.mark.parametrize(
    "slack,n,expected", [(6000, 3, 200), (30, 3, 1), (0, 3, 1), (100, 2, 5)]
)
def test_default_threshold(slack, n, expected):
    assert default_threshold(slack, n) == expected
