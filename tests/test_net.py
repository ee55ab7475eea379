"""Network model: latency shaping, partitions, epoch bumps, request and answer."""

import random

import pytest

from bcounter.sim.kernel import TIMEOUT, Simulator
from bcounter.sim.net import DEFAULT_RTTS, Network, symmetric_rtts


def make_net(jitter=0.0, seed=1):
    sim = Simulator()
    net = Network(sim, 3, jitter_frac=jitter, rng=random.Random(seed))
    return sim, net


def test_one_way_is_half_rtt():
    sim, net = make_net(jitter=0.0)
    stamps = []
    net.send(0, 2, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [DEFAULT_RTTS[(0, 2)] / 2]


def test_intra_dc_is_short_hop():
    sim, net = make_net(jitter=0.0)
    stamps = []
    net.send(1, 1, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [1.0]


def test_jitter_stays_in_band():
    sim, net = make_net(jitter=0.1, seed=7)
    base = DEFAULT_RTTS[(0, 1)] / 2
    for _ in range(200):
        d = net.delay(0, 1)
        assert base * 0.9 <= d <= base * 1.1


def test_rtt_table_is_symmetric_by_default():
    _, net = make_net()
    for a in range(3):
        for b in range(3):
            if a != b:
                assert net.rtts[(a, b)] == net.rtts[(b, a)]


def test_symmetric_rtts_keeps_explicit_asymmetry():
    t = symmetric_rtts({(0, 1): 80.0, (1, 0): 83.0})
    assert t[(0, 1)] == 80.0
    assert t[(1, 0)] == 83.0


def test_missing_rtt_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, 4)  # default table only covers 3 DCs


def test_partition_drops_at_send():
    sim, net = make_net()
    got = []
    net.partition([{0, 1}, {2}])
    net.send(0, 2, lambda: got.append("x"))
    net.send(2, 0, lambda: got.append("y"))
    sim.run()
    assert got == []
    assert net.dropped == 2


def test_partition_allows_same_side_traffic():
    sim, net = make_net()
    got = []
    net.partition([{0, 1}, {2}])
    net.send(0, 1, lambda: got.append("ok"))
    sim.run()
    assert got == ["ok"]


def test_partition_drops_in_flight_messages():
    sim, net = make_net(jitter=0.0)
    got = []
    net.send(0, 2, lambda: got.append("x"))  # lands at t=48
    sim.schedule(10, lambda: net.partition([{0, 1}, {2}]))
    sim.run()
    assert got == []
    assert net.dropped == 1


def test_heal_restores_delivery():
    sim, net = make_net()
    got = []
    net.partition([{0}, {1}, {2}])
    sim.schedule(5, net.heal)
    sim.schedule(6, lambda: net.send(0, 2, lambda: got.append("x")))
    sim.run()
    assert got == ["x"]


def test_epoch_bumps_on_every_change():
    _, net = make_net()
    assert net.partition_epoch == 0
    net.partition([{0}, {1, 2}])
    net.partition([{0, 1}, {2}])
    net.heal()
    assert net.partition_epoch == 3


def test_overlapping_groups_rejected():
    _, net = make_net()
    with pytest.raises(ValueError):
        net.partition([{0, 1}, {1, 2}])


@pytest.mark.parametrize("jitter", [0.1, 0.35])
def test_jitter_draws_match_random_uniform(jitter):
    _, net = make_net(jitter=jitter, seed=11)
    ref = random.Random(11)
    half = DEFAULT_RTTS[(0, 2)] / 2
    for i in range(10_000):
        if i % 2:
            got, base = net.intra_delay(), net.intra_ms
        else:
            got, base = net.delay(0, 2), half
        assert got == base * ref.uniform(1 - jitter, 1 + jitter)


def hop_reference(jitter, seed):
    """The hop ``delay`` draws for each (src, dst), from a twin of the rng."""
    ref = random.Random(seed)
    rtts = symmetric_rtts(DEFAULT_RTTS)

    def hop(src, dst):
        base = 1.0 if src == dst else rtts[(src, dst)] / 2
        return base * ref.uniform(1 - jitter, 1 + jitter) if jitter > 0 else base

    return hop


@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_send_arrivals_match_random_uniform(jitter):
    # each message sent through send arrives at its send time plus the hop
    # delay would draw, bit for bit, within a DC and across DCs
    sim, net = make_net(jitter=jitter, seed=11)
    hop = hop_reference(jitter, 11)
    pairs = [(0, 0), (0, 2), (2, 1), (1, 1), (1, 0)]
    expected, arrived = {}, {}

    def send(i):
        src, dst = pairs[i % len(pairs)]
        expected[i] = sim.now + hop(src, dst)
        net.send(src, dst, lambda: arrived.__setitem__(i, sim.now))

    for i in range(2_000):
        sim.schedule(i * 0.37, lambda i=i: send(i))
    sim.run()
    assert arrived == expected
    if not jitter:
        assert net.rng.getstate() == random.Random(11).getstate()


def test_same_side_traffic_arrives_on_time_while_partitioned():
    # under a partition, messages within a group, sent before it formed or
    # while it holds, arrive at their drawn times; the one across is dropped
    sim, net = make_net(jitter=0.1, seed=5)
    hop = hop_reference(0.1, 5)
    arrived, expected = [], []
    for src, dst in [(0, 1), (1, 1)]:
        expected.append((dst, hop(src, dst)))
        net.send(src, dst, lambda dst=dst: arrived.append((dst, sim.now)))
    net.partition([{0, 1}, {2}])
    for src, dst in [(1, 0), (0, 2), (0, 0)]:
        if dst != 2:
            expected.append((dst, hop(src, dst)))
        net.send(src, dst, lambda dst=dst: arrived.append((dst, sim.now)))
    sim.run()
    assert sorted(arrived) == sorted(expected)
    assert net.dropped == 1


def test_zero_jitter_draws_nothing():
    _, net = make_net(jitter=0.0, seed=11)
    for _ in range(100):
        assert net.intra_delay() == net.intra_ms
        assert net.delay(0, 2) == DEFAULT_RTTS[(0, 2)] / 2
    assert net.rng.getstate() == random.Random(11).getstate()


# -- call: a request and its answer --------------------------------------------


def waiter(sim, fut, timeout):
    """Wait on ``fut`` for ``timeout`` ms; the list gets (time, value) once."""
    got = []

    def wait():
        value = yield (fut, timeout)
        got.append((sim.now, value))

    sim.spawn(wait())
    return got


def test_call_answer_comes_back_one_hop_later():
    sim, net = make_net(jitter=0.0)
    handled = []

    def handle(answer):
        handled.append(sim.now)
        sim.schedule(5.0, lambda: answer("done"))

    got = waiter(sim, net.call(0, 2, handle), 1_000.0)
    sim.run()
    half = DEFAULT_RTTS[(0, 2)] / 2
    assert handled == [half]
    assert got == [(half + 5.0 + half, "done")]
    assert net.sent == 2


@pytest.mark.parametrize("cut_at", [10.0, 60.0], ids=["request", "answer"])
def test_call_partition_drops_the_request_or_the_answer(cut_at):
    # the request lands at 48 ms and is answered at once: a cut at 10 ms
    # drops the request in flight, one at 60 ms drops the answer
    sim, net = make_net(jitter=0.0)
    handled = []

    def handle(answer):
        handled.append(sim.now)
        answer("done")

    got = waiter(sim, net.call(0, 2, handle), 200.0)
    sim.schedule(cut_at, lambda: net.partition([{0, 1}, {2}]))
    sim.run()
    assert handled == ([] if cut_at < 48.0 else [48.0])
    assert got == [(200.0, TIMEOUT)]
    assert net.dropped == 1


def test_unanswered_call_times_out():
    sim, net = make_net(jitter=0.0)
    handled = []
    got = waiter(sim, net.call(1, 1, handled.append), 30.0)
    sim.run()
    assert len(handled) == 1  # the handler ran and kept its answer
    assert got == [(30.0, TIMEOUT)]
    assert net.sent == 1


def test_call_within_a_dc_draws_two_hops_request_first():
    # the request's hop is drawn when call sends it, the answer's when the
    # handler answers: two draws from the shared rng, in that order, each
    # one kernel entry and one message in sent
    sim, net = make_net(jitter=0.1, seed=3)
    hop = hop_reference(0.1, 3)
    out = hop(1, 1)
    handled = []

    def handle(answer):
        handled.append(sim.now)
        sim.schedule(5.0, lambda: answer("done"))

    got = waiter(sim, net.call(1, 1, handle), 1_000.0)
    events = sim.events
    sim.run()
    back = hop(1, 1)
    assert handled == [out]
    assert got == [(out + 5.0 + back, "done")]
    assert net.sent == 2 and net.dropped == 0
    # the waiter's spawn, the request, the scheduled answer, the answer's
    # hop, the waiter's resume and its served deadline
    assert sim.events - events == 6
    twin = random.Random(3)
    twin.random(), twin.random()
    assert net.rng.getstate() == twin.getstate()


@pytest.mark.parametrize("cut_at", [0.5, 3.0], ids=["request", "answer"])
def test_call_within_a_dc_crosses_a_partition_that_forms_in_flight(cut_at):
    # DC 1 alone is cut off while the request (landing at 1 ms) or the answer
    # (sent at 3 ms, landing at 4 ms) is in flight; neither is dropped
    sim, net = make_net(jitter=0.0)
    handled = []

    def handle(answer):
        handled.append(sim.now)
        sim.schedule(2.0, lambda: answer("done"))

    got = waiter(sim, net.call(1, 1, handle), 30.0)
    sim.schedule(cut_at, lambda: net.partition([{0, 2}, {1}]))
    sim.run()
    assert handled == [1.0]
    assert got == [(4.0, "done")]
    assert net.sent == 2 and net.dropped == 0
