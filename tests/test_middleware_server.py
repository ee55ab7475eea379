"""Owner-node middleware: routing, write batching, failover, deadlines,
and grant durability."""

import random

from bcounter.crdt import BoundedCounter, Polarity
from bcounter.middleware_server import ServerCluster, _route_hash
from bcounter.sim.kernel import TIMEOUT, Future, Simulator
from bcounter.sim.metrics import Metrics
from bcounter.sim.net import Network
from bcounter.store import CONFLICT, Consistency, DCStore

RTTS = {(0, 1): 80.0}


def wire(n_dcs=1, n_nodes=3, batching=True, initial=1000, threshold=5):
    sim = Simulator()
    net = Network(sim, n_dcs, RTTS if n_dcs > 1 else {}, intra_ms=0.2,
                  jitter_frac=0.0, rng=random.Random(1))
    stores = [DCStore(dc, 0.5, 2.0, net.intra_delay) for dc in range(n_dcs)]
    metrics = Metrics("bcsrv", n_dcs)
    clusters = [
        ServerCluster(sim, net, stores[dc], dc, metrics, n_nodes=n_nodes,
                      batching=batching, sync_period_ms=50.0,
                      rebalance_period_ms=10_000.0)
        for dc in range(n_dcs)
    ]
    for c in clusters:
        c.peers = clusters
        c.register("k", threshold)
    state = BoundedCounter.new(Polarity.LOWER, 0, n_dcs, 0, initial)
    for store in stores:
        store.seed("k", state, Consistency.STRONG)
    for c in clusters:
        c.start()
    return sim, net, stores, metrics, clusters


def submit(sim, cluster, kind="dec", delta=1, flag="global", deadline=None,
           key="k"):
    fut = Future(sim)
    cluster.client_request(key, kind, delta, flag, fut.resolve, deadline)
    return fut


def drain(sim, futures, horizon_ms=30_000.0):
    deadline = sim.now + horizon_ms
    while sim.now < deadline and not all(f.done for f in futures):
        sim.run(until=min(sim.now + 50.0, deadline))
    return [f.value for f in futures]


def durable_value(store, key="k"):
    rec = store.peek(key)
    merged = None
    for st in rec.siblings:
        merged = st if merged is None else merged.merge(st)
    return merged.value()


# -- routing -----------------------------------------------------------------


def test_route_is_deterministic():
    sim, net, stores, metrics, (c,) = wire()
    picks = {c.route(f"key{i}").idx for i in range(50)}
    assert picks == {0, 1, 2}
    again = [c.route(f"key{i}").idx for i in range(50)]
    assert again == [c.route(f"key{i}").idx for i in range(50)]


def test_route_spreads_keys_evenly():
    counts = [0, 0, 0]
    for i in range(10_000):
        counts[_route_hash(f"key-{i}", 0) % 3] += 1
    for c in counts:
        assert 3000 < c < 3700, counts


def test_epoch_change_moves_some_keys():
    moved = sum(
        1
        for i in range(1000)
        if _route_hash(f"key-{i}", 0) % 3 != _route_hash(f"key-{i}", 1) % 3
    )
    assert 400 < moved < 800  # roughly 2/3 expected


def test_route_memo_matches_uncached_hash_across_failover():
    sim, net, stores, metrics, (c,) = wire()
    keys = [f"key-{i}" for i in range(60)]

    def uncached(key):
        alive = c._alive
        return c.nodes[alive[_route_hash.__wrapped__(key, c.epoch) % len(alive)]]

    def check():
        for key in keys:
            c.route(key)  # warm the memo at this epoch, then compare
            assert c.route(key) is uncached(key)

    check()
    c.crash_node(1)
    c.mark_failed(1)
    check()
    assert 1 not in {c.route(key).idx for key in keys}
    c.recover_node(1)
    check()
    assert 1 in {c.route(key).idx for key in keys}


# -- batching ----------------------------------------------------------------


def test_batching_many_ops_few_writes():
    sim, net, stores, metrics, (c,) = wire(batching=True)
    futs = [submit(sim, c) for _ in range(40)]
    replies = drain(sim, futs)
    assert all(r.status == "ok" for r in replies)
    assert durable_value(stores[0]) == 960
    assert metrics.counts["op_writes"] < 40


def test_nobatch_one_write_per_op():
    sim, net, stores, metrics, (c,) = wire(batching=False)
    futs = [submit(sim, c) for _ in range(25)]
    replies = drain(sim, futs)
    assert all(r.status == "ok" for r in replies)
    assert durable_value(stores[0]) == 975
    assert metrics.counts["op_writes"] == 25


def test_nobatch_grant_does_not_wait_behind_ops():
    # DC 1 holds no rights and asks DC 0, whose owner has 100 ops queued;
    # the grant rides DC 0's next write, not the write after the 100th op
    sim, net, stores, metrics, clusters = wire(n_dcs=2, batching=False)
    futs = [submit(sim, clusters[0]) for _ in range(100)]
    futs.append(submit(sim, clusters[1]))
    replies = drain(sim, futs)
    assert (replies[-1].status, replies[-1].used_sync) == ("ok", True)
    oks = sum(1 for r in replies if r.status == "ok")
    assert metrics.counts["op_writes"] == oks


def test_nobatch_replies_in_submission_order():
    sim, net, stores, metrics, (c,) = wire(batching=False)
    order = []

    def await_reply(i, fut):
        yield fut
        order.append(i)

    for i in range(10):
        fut = Future(sim)
        sim.spawn(await_reply(i, fut))
        c.client_request("k", "dec", 1, "global", fut.resolve, None)
    sim.run(until=5_000.0)
    assert order == list(range(10))


# -- rights gate ---------------------------------------------------------------


def test_local_flag_denied_without_rights_single_dc():
    sim, net, stores, metrics, (c,) = wire(initial=0)
    (r,) = drain(sim, [submit(sim, c, flag="local")])
    assert r.status == "failed"
    assert r.reason == "rights"
    assert durable_value(stores[0]) == 0


def test_exhaustion_is_exact_under_concurrency():
    sim, net, stores, metrics, (c,) = wire(initial=10)
    futs = [submit(sim, c) for _ in range(30)]
    replies = drain(sim, futs)
    oks = sum(1 for r in replies if r.status == "ok")
    assert oks == 10
    assert durable_value(stores[0]) == 0


# -- deadlines -----------------------------------------------------------------


def test_expired_ops_are_shed_silently():
    sim, net, stores, metrics, (c,) = wire()
    fut = submit(sim, c, deadline=sim.now + 1.0)  # inside the shed margin
    sim.run(until=5_000.0)
    assert not fut.done
    assert durable_value(stores[0]) == 1000


# -- failover ------------------------------------------------------------------


def test_crash_drops_inflight_then_failover_succeeds():
    sim, net, stores, metrics, (c,) = wire()
    owner = c.route("k")
    fut = submit(sim, c)
    c.crash_node(owner.idx)
    sim.run(until=3_000.0)
    assert not fut.done  # crashed owner never replies; the caller times out

    c.mark_failed(owner.idx)
    assert c.route("k") is not owner
    (r,) = drain(sim, [submit(sim, c)])
    assert r.status == "ok"
    assert durable_value(stores[0]) == 999  # durable state survived the crash


def test_recovered_node_rejoins_routing():
    sim, net, stores, metrics, (c,) = wire()
    owner = c.route("k")
    c.crash_node(owner.idx)
    c.mark_failed(owner.idx)
    c.recover_node(owner.idx)
    assert sorted(c._alive) == [0, 1, 2]
    (r,) = drain(sim, [submit(sim, c)])
    assert r.status == "ok"


def test_reconfigure_race_applies_each_ok_exactly_once():
    # ops admitted under the old epoch race the new owner; conditional
    # writes guarantee each acknowledged op lands exactly once
    sim, net, stores, metrics, (c,) = wire()
    first = [submit(sim, c) for _ in range(10)]
    sim.run(until=1.0)  # ops admitted, writes still in flight
    old = c.route("k")
    while c.route("k") is old:
        c.reconfigure()
    second = [submit(sim, c) for _ in range(10)]
    replies = drain(sim, first + second)
    oks = sum(1 for r in replies if r is not None and r.status == "ok")
    retries = sum(1 for r in replies if r is not None and r.status in ("retry", "stale"))
    assert oks + retries >= 10  # no reply vanishes except via shedding
    assert durable_value(stores[0]) == 1000 - oks


# -- cross-DC ------------------------------------------------------------------


def test_sync_transfer_grant_durable_before_reply():
    sim, net, stores, metrics, clusters = wire(n_dcs=2, initial=100)
    seen = []
    original = clusters[0].on_transfer_request

    def spy_on_reply(key, req, reply):
        # the reply callback runs at the requester when the response arrives
        def spy(resp):
            seen.append(durable_value(stores[0]))
            reply(resp)

        original(key, req, spy if reply is not None else None)

    clusters[0].on_transfer_request = spy_on_reply
    (r,) = drain(sim, [submit(sim, clusters[1])])
    assert r.status == "ok"
    assert r.used_sync
    assert seen and seen[0] == 100  # value unchanged; rights moved, not spent
    rec = stores[0].peek("k")
    merged = None
    for st in rec.siblings:
        merged = st if merged is None else merged.merge(st)
    assert merged.local_rights(0) < 100  # the deduction was already durable


def test_late_grant_is_dropped_and_arrives_by_sync():
    # DC 0's write of the grant outlasts DC 1's 2xRTT wait, so its reply comes
    # after the requester gave up on DC 0, its only candidate
    sim, net, stores, metrics, clusters = wire(n_dcs=2, initial=100)
    stores[0].write_ms = 200.0
    sent, replied = [], []
    original = clusters[0].on_transfer_request

    def spy_on_reply(key, req, reply):
        sent.append(sim.now - net.rtt(1, 0) / 2)

        def spy(resp):
            replied.append((sim.now, resp))
            reply(resp)

        original(key, req, spy if reply is not None else None)

    clusters[0].on_transfer_request = spy_on_reply
    (r,) = drain(sim, [submit(sim, clusters[1])])
    assert (r.status, r.reason, r.used_sync) == ("failed", "rights", True)
    sim.run(until=sim.now + 1_000.0)
    (late_at, late), = replied
    assert late.status.value == "granted"
    assert late_at - sent[0] > 2 * net.rtt(1, 0)
    # the grant reaches DC 1 once, by propagation, and pays for the next op
    (r,) = drain(sim, [submit(sim, clusters[1])])
    assert (r.status, r.used_sync) == ("ok", False)
    assert metrics.counts["transfer_requests"] == 1
    sim.run(until=sim.now + 1_000.0)
    states = []
    for store in stores:
        rec = store.peek("k")
        merged = None
        for st in rec.siblings:
            merged = st if merged is None else merged.merge(st)
        states.append(merged)
    assert states[0] == states[1]
    assert states[1].rights[(0, 1)] == late.granted == 5
    assert states[1].local_rights(1) == 4
    assert states[0].value() == 99
    assert states[0].local_rights(0) + states[0].local_rights(1) == 99


def test_propagation_converges_across_dcs():
    sim, net, stores, metrics, clusters = wire(n_dcs=2, initial=100)
    futs = [submit(sim, clusters[0]) for _ in range(5)]
    replies = drain(sim, futs)
    assert all(r.status == "ok" for r in replies)

    deadline = sim.now + 10_000.0
    while sim.now < deadline and durable_value(stores[1]) != 95:
        sim.run(until=sim.now + 50.0)
    assert durable_value(stores[1]) == 95


def test_grant_landing_during_conflict_reload_is_not_lost():
    # DC 1 holds no rights, so its dec waits on a sync grant from DC 0. An
    # outside write makes DC 1's next conditional write conflict; a grant that
    # lands while the owner reloads must not ride the discarded working copy
    reloads = 0
    for tenth in range(700, 901):
        t = tenth / 10
        sim, net, stores, metrics, clusters = wire(n_dcs=2, n_nodes=1, initial=10)
        futs = {"dec": submit(sim, clusters[1])}
        sim.run(until=t)
        # issued before the inc, the outside write lands ahead of the owner's
        rec = stores[1].peek("k")
        outside = Future(sim)

        def write():
            res = yield from stores[1].put_conditional("k", rec.siblings[0], rec.version)
            outside.resolve(res)

        sim.spawn(write())
        futs["inc"] = submit(sim, clusters[1], kind="inc")
        drain(sim, list(futs.values()))
        assert outside.done
        owner_conflicts = stores[1].conflicts - (outside.value is CONFLICT)
        reloads += owner_conflicts > 0
        acked = sum(
            (1 if kind == "inc" else -1)
            for kind, f in futs.items()
            if f.done and f.value.status == "ok"
        )
        state = stores[1].peek("k").siblings[0]
        durable = state.rights.get((1, 1), 0) - state.used.get(1, 0)
        assert durable == acked, (t, {kind: f.value for kind, f in futs.items()})
    assert reloads > 0
