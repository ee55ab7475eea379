"""Client-side middleware: ops against the local store, sync rights pulls,
grant durability, and the background state push."""

import random

from bcounter.crdt import BoundedCounter, Polarity
from bcounter.middleware_client import ClientMiddleware
from bcounter.sim.kernel import Simulator
from bcounter.sim.metrics import Metrics
from bcounter.sim.net import Network
from bcounter.store import Consistency, DCStore

RTTS = {(0, 1): 80.0, (0, 2): 96.0, (1, 2): 160.0}


def wire(n_dcs=3, threshold=1, initial=12, seed=0, state=None):
    sim = Simulator()
    net = Network(sim, n_dcs, RTTS, intra_ms=0.2, jitter_frac=0.0,
                  rng=random.Random(seed))
    stores = [DCStore(dc, 0.5, 1.0, net.intra_delay) for dc in range(n_dcs)]
    metrics = Metrics("bcclt", n_dcs)
    mws = [
        ClientMiddleware(sim, net, stores[dc], dc, n_dcs, metrics,
                         sync_period_ms=50.0, rebalance_period_ms=10_000.0)
        for dc in range(n_dcs)
    ]
    for mw in mws:
        mw.peers = mws
        mw.register("k", threshold)
    # create at DC 0, then hand every other DC a fully synced copy
    if state is None:
        state = BoundedCounter.new(Polarity.LOWER, 0, n_dcs, 0, initial)
    for store in stores:
        store.seed("k", state, Consistency.STRONG)
    for mw in mws:
        mw.start()
    return sim, net, stores, metrics, mws


def run_op(sim, gen, horizon_ms=60_000.0):
    """Drive one generator to completion under the background loops."""
    out = {}

    def wrapper():
        out["result"] = yield from gen

    sim.spawn(wrapper())
    deadline = sim.now + horizon_ms
    while "result" not in out and sim.now < deadline:
        sim.run(until=min(sim.now + 100.0, deadline))
    assert "result" in out, "op did not finish within the horizon"
    return out["result"]


def test_create_then_read():
    sim, net, stores, metrics, mws = wire()

    def script():
        st = yield from mws[1].create("fresh", Polarity.LOWER, 0, 7)
        assert st == "ok"
        dup = yield from mws[1].create("fresh", Polarity.LOWER, 0, 7)
        assert dup == "exists"
        v = yield from mws[1].read("fresh")
        return v

    assert run_op(sim, script()) == 7


def test_created_counter_reaches_every_dc():
    # a DC that has never seen the key installs the first state pushed to it
    sim, net, stores, metrics, mws = wire()
    for mw in mws:
        mw.register("fresh", 1)
    assert run_op(sim, mws[1].create("fresh", Polarity.LOWER, 0, 7)) == "ok"

    def settle():
        yield 2_000.0

    run_op(sim, settle())
    assert [run_op(sim, mw.read("fresh")) for mw in mws] == [7, 7, 7]
    # DC 0 holds no rights of its own, so its dec pulls some from DC 1
    assert run_op(sim, mws[0].update("fresh", "dec", 1)) == ("ok", "ok", True)
    assert run_op(sim, mws[0].read("fresh")) == 6


def test_read_missing_key_returns_none():
    sim, net, stores, metrics, mws = wire()
    assert run_op(sim, mws[0].read("nope")) is None


def test_update_with_local_rights_never_contacts_peers():
    sim, net, stores, metrics, mws = wire(initial=12)
    res = run_op(sim, mws[0].update("k", "dec", 1))
    assert res == ("ok", "ok", False)
    assert metrics.counts["transfer_requests"] == 0
    assert run_op(sim, mws[0].read("k")) == 11


def test_increment_needs_no_rights_under_lower_bound():
    sim, net, stores, metrics, mws = wire(initial=0)
    res = run_op(sim, mws[1].update("k", "inc", 5))
    assert res == ("ok", "ok", False)
    assert run_op(sim, mws[1].read("k")) == 5


def test_local_flag_fails_fast_with_remote_hint():
    # all rights live at DC 0; DC 1 sees them in its replica of the state
    sim, net, stores, metrics, mws = wire(initial=12)
    res = run_op(sim, mws[1].update("k", "dec", 1, flag="local"))
    assert res == ("retry", "rights", False)
    assert metrics.counts["transfer_requests"] == 0


def test_local_flag_fails_hard_when_no_rights_visible_anywhere():
    sim, net, stores, metrics, mws = wire(initial=0)
    res = run_op(sim, mws[1].update("k", "dec", 1, flag="local"))
    assert res == ("failed", "rights", False)


def test_global_flag_pulls_rights_synchronously():
    sim, net, stores, metrics, mws = wire(initial=12)
    res = run_op(sim, mws[1].update("k", "dec", 1))
    assert res == ("ok", "ok", True)
    assert metrics.counts["transfer_requests"] == 1
    assert metrics.counts["transfer_responses"] == 1
    assert run_op(sim, mws[1].read("k")) == 11


def test_acquired_chunk_covers_following_ops():
    # threshold-sized pulls: the first deficient op pays one round trip,
    # later ops spend the surplus without any new requests
    sim, net, stores, metrics, mws = wire(initial=12, threshold=4)
    first = run_op(sim, mws[1].update("k", "dec", 1))
    assert first == ("ok", "ok", True)
    for _ in range(2):
        res = run_op(sim, mws[1].update("k", "dec", 1))
        assert res == ("ok", "ok", False)
    assert metrics.counts["transfer_requests"] == 1


def test_grant_is_durable_before_response_arrives():
    sim, net, stores, metrics, mws = wire(initial=12)
    grantor_rights_at_reply = []
    original = mws[0].on_transfer_request

    def spy_on_reply(key, req, reply):
        # the reply callback runs at the requester when the response arrives
        def spy(resp):
            rec = stores[0].peek("k")
            merged = None
            for st in rec.siblings:
                merged = st if merged is None else merged.merge(st)
            grantor_rights_at_reply.append(merged.local_rights(0))
            reply(resp)

        original(key, req, spy if reply is not None else None)

    mws[0].on_transfer_request = spy_on_reply
    res = run_op(sim, mws[1].update("k", "dec", 1))
    assert res == ("ok", "ok", True)
    assert grantor_rights_at_reply, "no transfer response observed"
    assert grantor_rights_at_reply[0] < 12


def merged_at(store, key="k"):
    rec = store.peek(key)
    states = list(rec.siblings)
    merged = states[0]
    for st in states[1:]:
        merged = merged.merge(st)
    return merged


def test_late_grant_is_dropped_and_arrives_by_sync():
    # DC 0 holds 8 rights and DC 2 holds 4; DC 1 asks DC 0 first. DC 0's write
    # of the grant outlasts DC 1's 2xRTT wait, so its reply comes too late
    split = BoundedCounter.new(Polarity.LOWER, 0, 3, 0, 12).transfer(0, 2, 4)
    sim, net, stores, metrics, mws = wire(state=split)
    stores[0].write_ms = 200.0
    arrived, replied = {}, {}
    original = mws[0].on_transfer_request

    def spy_on_reply(key, req, reply):
        arrived[req.requester] = sim.now

        def spy(resp):
            replied[req.requester] = (sim.now, resp)
            reply(resp)

        original(key, req, spy if reply is not None else None)

    mws[0].on_transfer_request = spy_on_reply
    res = run_op(sim, mws[1].update("k", "dec", 1))
    assert res == ("ok", "ok", True)  # it moved on to DC 2
    assert metrics.counts["transfer_requests"] == 2

    def settle():
        yield 1_000.0

    run_op(sim, settle())
    sent_at = arrived[1] - net.rtt(1, 0) / 2
    late_at, late = replied[1]
    assert late.status.value == "granted"
    assert late_at - sent_at > 2 * net.rtt(1, 0)
    # both grants reached DC 1, each once: the late one by the sync push
    states = [merged_at(store) for store in stores]
    assert states[1].rights[(0, 1)] == late.granted == 1
    assert states[1].rights[(2, 1)] == 1
    assert states[1].local_rights(1) == 1
    # converged, and no replica's rights cross the bound
    assert states[0] == states[1] == states[2]
    assert states[0].value() == 11
    assert sum(states[0].local_rights(i) for i in range(3)) == 11


def test_sync_loop_propagates_updates():
    sim, net, stores, metrics, mws = wire(initial=12)
    assert run_op(sim, mws[0].update("k", "dec", 3)) == ("ok", "ok", False)

    def poll():
        for _ in range(10):
            v = yield from mws[2].read("k")
            if v == 9:
                return v
            yield 50.0
        return v

    assert run_op(sim, poll()) == 9


def test_merged_in_state_is_not_rebroadcast():
    sim, net, stores, metrics, mws = wire(initial=12)
    run_op(sim, mws[0].update("k", "dec", 1))

    def settle():
        yield 300.0  # several sync periods

    run_op(sim, settle())
    quiet = metrics.counts["sync_msgs"]

    run_op(sim, settle())
    # receivers fold the pushed state in without marking it dirty, so a
    # quiescent system stops sending
    assert metrics.counts["sync_msgs"] == quiet


def test_partition_times_out_then_fails():
    sim, net, stores, metrics, mws = wire(n_dcs=2, initial=6)
    net.partition([[0], [1]])
    res = run_op(sim, mws[1].update("k", "dec", 1))
    # request was sent (so the op counts as sync) but no grant ever landed
    assert res == ("failed", "rights", True)
    assert metrics.counts["transfer_requests"] == 1
    assert metrics.counts["transfer_responses"] == 0


def test_heal_triggers_full_resend():
    sim, net, stores, metrics, mws = wire(n_dcs=2, initial=6)
    run_op(sim, mws[0].update("k", "dec", 2))
    net.partition([[0], [1]])

    def wait(ms):
        yield ms

    run_op(sim, wait(200.0))
    net.heal()
    run_op(sim, wait(200.0))
    assert run_op(sim, mws[1].read("k")) == 4


def test_concurrent_same_dc_updates_both_land():
    sim, net, stores, metrics, mws = wire(initial=12)
    results = []

    def op():
        res = yield from mws[0].update("k", "dec", 1)
        results.append(res)

    sim.spawn(op())
    sim.spawn(op())
    while len(results) < 2:
        sim.run(until=sim.now + 100.0)
    assert [r[0] for r in results] == ["ok", "ok"]
    assert run_op(sim, mws[0].read("k")) == 10
