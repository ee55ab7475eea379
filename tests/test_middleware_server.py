"""Owner-node middleware: routing, write batching, failover, deadlines,
and grant durability."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter.crdt import (
    INT64_MAX,
    INT64_MIN,
    BoundedCounter,
    NotEnoughRights,
    Overflow,
    Polarity,
)
from bcounter.middleware_server import ServerCluster, _OpItem, _route_hash
from bcounter.sim.kernel import TIMEOUT, Future, Simulator
from bcounter.sim.metrics import Metrics
from bcounter.sim.net import Network
from bcounter.store import CONFLICT, Consistency, DCStore
from bcounter.transfer import TransferMode, handle_request, make_request

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
    # no op has a deadline, so none is shed and every one is answered
    assert all(f.done for f in first + second)
    oks = sum(1 for r in replies if r.status == "ok")
    retries = sum(1 for r in replies if r.status == "retry")
    assert oks + retries == 20
    assert durable_value(stores[0]) == 1000 - oks


# -- the DC's sync and rebalance loops -----------------------------------------


def test_an_idle_dcs_events_do_not_depend_on_its_node_count():
    # a DC runs one sync loop and one rebalance loop however many owner
    # nodes it has, and a crash or a recovery starts or stops neither: each
    # of the two DCs dispatches its sync loop's start and 20 ticks and its
    # rebalance loop's start
    events = []
    for n_nodes in (1, 3, 5):
        sim, net, stores, metrics, clusters = wire(n_dcs=2, n_nodes=n_nodes)
        sim.run(until=300.0)
        clusters[0].crash_node(0)
        clusters[0].mark_failed(0)
        sim.run(until=600.0)
        clusters[0].recover_node(0)
        sim.run(until=1_000.0)
        events.append(sim.events)
    assert events == [44, 44, 44]


def test_a_dc_pushes_the_stores_state_after_reconfigure():
    # the newest durable state a node of DC 0 saw leaves it, whichever node
    # owns ``k``: the new owner is cold until DC 1's full round reaches it at
    # 540 ms, yet each of DC 0's full rounds at 0.5, 1, 1.5 and 2 s pushes
    # exactly what DC 0's store holds
    sim, net, stores, metrics, clusters = wire(n_dcs=2)
    c = clusters[0]
    (r,) = drain(sim, [submit(sim, c)])
    assert r.status == "ok"
    sim.run(until=200.0)  # DC 1's push of the op has reached the owner
    old = c.route("k")
    while c.route("k") is old:
        c.reconfigure()
    assert "k" not in c.route("k").pipelines
    pushed = []
    push = c._push_state

    def spy(key, state):
        pushed.append((sim.now, state is stores[0].peek(key).siblings[0]))
        push(key, state)

    c._push_state = spy
    sim.run(until=2_200.0)
    assert pushed == [(500.0, True), (1_000.0, True), (1_500.0, True), (2_000.0, True)]


def test_a_former_owners_write_landing_after_reconfigure_leaves_the_dc():
    # the owner's write lands at 3.1 ms; the key moves at 1 ms, and a merge
    # that adds nothing warms the new owner from the store at 1.7 ms, so the
    # new owner never holds the op and never writes. The former owner's
    # landed write marks the key dirty, DC 0's next tick pushes it as the
    # newest durable state, and DC 1 gets the op with no further traffic
    sim, net, stores, metrics, clusters = wire(n_dcs=2)
    c = clusters[0]
    fut = submit(sim, c)
    old = c.route("k")
    sim.run(until=1.0)
    assert old.pipelines["k"].writer_running
    while c.route("k") is old:
        c.reconfigure()
    c.on_state("k", stores[0].peek("k").siblings[0])
    sim.run(until=2.0)
    assert c.route("k").pipelines["k"].base_state.value() == 1000
    sim.run(until=2_200.0)
    assert fut.value.status == "ok"
    assert durable_value(stores[0]) == durable_value(stores[1]) == 999


@pytest.mark.parametrize("mark_failed", [False, True], ids=["undetected", "marked-failed"])
def test_a_write_landed_before_its_owner_crashed_leaves_the_dc(mark_failed):
    # the op's write lands at 3.1 ms and its owner crashes at 10 ms, before
    # DC 0's first tick: the dirty mark outlives the owner, and the tick
    # pushes the newest state a node saw though the owner is dead or its
    # successor cold. Before, DC 1 stayed at 1000 with no sync message sent
    sim, net, stores, metrics, clusters = wire(n_dcs=2)
    c = clusters[0]
    fut = submit(sim, c)
    owner = c.route("k")
    sim.run(until=10.0)
    assert fut.value.status == "ok"
    c.crash_node(owner.idx)
    if mark_failed:
        sim.run(until=20.0)
        c.mark_failed(owner.idx)
    sim.run(until=20_000.0)
    assert durable_value(stores[0]) == durable_value(stores[1]) == 999


def test_a_write_landing_as_its_owner_crashes_leaves_the_dc_once_marked_failed():
    # the op's write lands at 3.1 ms and its owner crashes at 3.2 ms, before
    # it resumes, so no node saw the write and its client is never answered.
    # Once the crash is detected, DC 0's full round at 500 ms warms DC 1,
    # whose full round at 1 s makes DC 0's new owner load the write from the
    # store; DC 0's round at 1.5 s pushes it. Before, DC 1 stayed at 1000
    sim, net, stores, metrics, clusters = wire(n_dcs=2)
    c = clusters[0]
    fut = submit(sim, c)
    owner = c.route("k")
    sim.run(until=3.2)
    assert stores[0].peek("k").siblings[0].value() == 999
    c.crash_node(owner.idx)
    sim.run(until=20.0)
    c.mark_failed(owner.idx)
    sim.run(until=20_000.0)
    assert not fut.done
    assert durable_value(stores[0]) == durable_value(stores[1]) == 999


# -- cross-DC ------------------------------------------------------------------


def test_sync_transfer_grant_durable_before_reply():
    sim, net, stores, metrics, clusters = wire(n_dcs=2, initial=100)
    seen = []
    original = clusters[0].on_transfer_request

    def spy_on_reply(key, req, reply):
        # the answer runs at the grantor as it answers, a hop before it arrives
        def spy(resp):
            seen.append(durable_value(stores[0]))
            reply(resp)

        original(key, req, spy)

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

        original(key, req, spy)

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
            res = yield stores[1].put_conditional("k", rec.siblings[0], rec.version)
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


def test_grant_whose_write_conflicts_is_denied_and_never_spent():
    # DC 1 holds no rights and asks DC 0, whose owner loads the key and then
    # writes the grant; an outside write issued as the request arrives lands
    # between the two, so the grant is dropped with the working copy
    sim, net, stores, metrics, clusters = wire(n_dcs=2, n_nodes=1, initial=10)
    heard = []
    original = clusters[0].on_transfer_request

    def conflicting(key, req, reply):
        rec = stores[0].peek(key)

        def outside():
            yield stores[0].put_conditional(key, rec.siblings[0], rec.version)

        sim.spawn(outside())

        def spy(resp):
            heard.append(resp.status.value)
            reply(resp)

        original(key, req, spy)

    clusters[0].on_transfer_request = conflicting
    (r,) = drain(sim, [submit(sim, clusters[1])])
    assert (r.status, r.reason, r.used_sync) == ("failed", "rights", True)
    assert heard == ["denied"]
    assert stores[0].conflicts == 1
    sim.run(until=sim.now + 1_000.0)
    for store in stores:
        state = store.peek("k").siblings[0]
        assert state.rights.get((0, 1), 0) == 0
        assert state.used.get(1, 0) == 0
    assert stores[0].peek("k").siblings[0].local_rights(0) == 10


# -- counted admission ---------------------------------------------------------


def start_state(polarity, limit):
    """DC 0's seeded state of a 3-DC counter, well inside int64 or near a limit."""
    lower = polarity is Polarity.LOWER
    if limit == "value":  # the value is 4 from the int64 limit that creating moves it to
        bound, initial = (INT64_MAX - 24, INT64_MAX - 4) if lower else (INT64_MIN + 24, INT64_MIN + 4)
        return BoundedCounter.new(polarity, bound, 3, 0, initial)
    if limit == "entry":  # DC 0's creation entry is 3 from INT64_MAX
        return BoundedCounter.new(polarity, 3 - INT64_MAX if lower else INT64_MAX - 3, 3, 0, 0)
    if limit == "used":  # rights from DC 1 took the used entry to 4 from INT64_MAX
        rights = {(0, 0): 10, (1, 1): INT64_MAX, (1, 0): INT64_MAX - 5}
        return BoundedCounter(polarity, 0, 3, rights, {0: INT64_MAX - 4})
    return BoundedCounter.new(polarity, 0 if lower else 3, 3, 0, 3 if lower else 0)


def lone_owner(start, batching=True):
    """DC 0's one owner node, warm on ``start``, with no sync or rebalance loop."""
    sim = Simulator()
    net = Network(sim, 3, jitter_frac=0.0, rng=random.Random(1))
    store = DCStore(0, 0.5, 2.0, net.intra_delay)
    store.seed("k", start, Consistency.STRONG)
    metrics = Metrics("bcsrv" if batching else "bcsrv-nobatch", 3)
    cluster = ServerCluster(sim, net, store, 0, metrics, n_nodes=1, batching=batching)
    cluster.register("k", 5)
    cluster.on_state("k", start)  # loads the key
    sim.run(until=10.0)
    node = cluster.nodes[0]
    return sim, store, cluster, node, node.pipelines["k"]


def update(state, dc, kind, delta):
    return state.increment(dc, delta) if kind == "inc" else state.decrement(dc, delta)


def creating_consuming(polarity):
    """The op kinds that create and that consume rights."""
    return ("inc", "dec") if polarity is Polarity.LOWER else ("dec", "inc")


# a step: what happens, an op's kind or a remote DC's action (a "give" op is
# a "dec"), a delta (a transfer asks for twice it, a tick runs that many ms),
# the remote DC, and the mode of a transfer request; ops are drawn most
# often, to reach the limits
STEP = st.tuples(
    st.sampled_from(
        ["op"] * 4 + ["remote"] * 2 + ["merge", "transfer", "write", "tick", "conflict"]
    ),
    st.sampled_from(["inc", "dec", "give"]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from(TransferMode),
)


@settings(max_examples=300, deadline=None)
@given(
    polarity=st.sampled_from(Polarity),
    limit=st.sampled_from(["plain", "value", "entry", "used"]),
    steps=st.lists(STEP, max_size=40),
    batching=st.booleans(),
)
def test_counted_admission_builds_what_one_update_per_op_builds(polarity, limit, steps, batching):
    # the reference applies one increment/decrement per admitted op; after
    # every step the owner's built working copy equals it, its held rights
    # are the reference's, each op is admitted, refused for rights or raises
    # Overflow exactly as the reference update does, and ``ops`` counts the
    # unanswered ops. Without batching an op would wait while another is
    # unanswered, so the unanswered one's write lands first
    start = start_state(polarity, limit)
    sim, store, cluster, node, p = lone_owner(start, batching)
    ref, others = start, {1: start, 2: start}
    conflicts, rival = 0, False

    def land():
        nonlocal ref, conflicts, rival
        sim.run(until=sim.now + 50.0)
        if store.conflicts > conflicts:  # the owner reloaded the store's state
            conflicts, rival = store.conflicts, False
            ref = store.peek("k").siblings[0]
        elif not rival:
            assert not p.batch
            assert store.peek("k").siblings[0] == ref

    for what, action, delta, j, mode in steps:
        if what == "op" and not batching and p.ops:
            land()
        if what == "op":
            op = "inc" if action == "inc" else "dec"
            answers = []
            try:
                ref = update(ref, 0, op, delta)
                outcome = "admitted"
            except NotEnoughRights:
                outcome = "refused"
            except Overflow:
                with pytest.raises(Overflow):
                    cluster.client_request("k", op, delta, "local", answers.append)
                outcome = "overflow"
            if outcome == "overflow":
                assert answers == []  # told nothing, least of all ok
            else:
                before = len(p.batch)
                cluster.client_request("k", op, delta, "local", answers.append)
                if outcome == "admitted":
                    assert len(p.batch) == before + 1 and answers == []
                else:
                    assert len(p.batch) == before
                    assert [a.reason for a in answers] == ["rights"]
        elif what == "remote":  # another DC's own update, or a gift to DC 0
            try:
                if action == "give":
                    others[j] = others[j].transfer(j, 0, delta)
                else:
                    others[j] = update(others[j], j, action, delta)
            except (NotEnoughRights, Overflow):
                pass
        elif what == "merge":
            cluster.on_state("k", others[j])
            ref = ref.merge(others[j])
            others[j] = others[j].merge(ref)
        elif what == "transfer":
            req = make_request(others[j], 0, j, 2 * delta, mode)
            cluster.on_transfer_request("k", req, lambda resp: None)
            ref = handle_request(ref, req)[0]
        elif what == "write":
            land()
        elif what == "tick":  # a write may land and the next one start; none conflicts
            sim.run(until=sim.now + (0.0 if rival else delta))
        else:  # a rival write lands at once; the owner's next write conflicts
            rec = store.peek("k")
            store._put_conditional("k", rec.siblings[0].merge(others[1]), rec.version)
            rival = True
        assert p.state == p.WARM
        assert p.ops == sum(type(w) is _OpItem for w in p.batch)
        q = copy.copy(p)
        assert node._working(q) == ref
        if q.held is None:  # not taken since the working copy was replaced
            node._count(q)
        assert q.held == ref.local_rights(0)


@pytest.mark.parametrize("polarity", list(Polarity))
def test_an_op_may_spend_rights_created_since_the_last_build(polarity):
    # DC 0 holds 3 rights; an op creates 2 and the next spends all 5, so the
    # build must create before it consumes
    start = start_state(polarity, "plain")
    sim, store, cluster, node, p = lone_owner(start)
    creating, consuming = creating_consuming(polarity)
    answers = []
    cluster.client_request("k", creating, 2, "local", answers.append)
    cluster.client_request("k", consuming, 5, "local", answers.append)
    ref = update(update(start, 0, creating, 2), 0, consuming, 5)
    sim.run(until=sim.now + 50.0)
    assert [a.status for a in answers] == ["ok", "ok"]
    assert store.peek("k").siblings[0] == ref


@pytest.mark.parametrize("limit", ["value", "entry"])
@pytest.mark.parametrize("polarity", list(Polarity))
def test_an_op_out_of_int64_raises_overflow_before_any_ok(polarity, limit):
    sim, store, cluster, node, p = lone_owner(start_state(polarity, limit))
    creating, _ = creating_consuming(polarity)
    answers = []
    cluster.client_request("k", creating, 2, "local", answers.append)  # counted
    with pytest.raises(Overflow):
        for _ in range(5):
            cluster.client_request("k", creating, 2, "local", answers.append)
    assert answers == []


@pytest.mark.parametrize("polarity", list(Polarity))
def test_ops_after_a_merge_past_int64_take_the_exact_path(polarity):
    # DCs 1 and 2 each create 3 rights 4 from the limit; merged, the value
    # lies past int64, which merge does not check but a creating update does
    start = start_state(polarity, "value")
    sim, store, cluster, node, p = lone_owner(start)
    creating, consuming = creating_consuming(polarity)
    ref = start
    for j in (1, 2):
        other = update(start, j, creating, 3)
        cluster.on_state("k", other)
        ref = ref.merge(other)
    answers = []
    cluster.client_request("k", consuming, 1, "local", answers.append)
    ref = update(ref, 0, consuming, 1)
    with pytest.raises(Overflow):
        update(ref, 0, creating, 1)
    with pytest.raises(Overflow):
        cluster.client_request("k", creating, 1, "local", answers.append)
    assert node._working(p) == ref
    assert len(p.batch) == 1 and answers == []
