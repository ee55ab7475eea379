"""End-to-end simulation runs: determinism, convergence, bound safety,
depletion, partitions, and crashes. Desk-scale versions of the larger
benchmark sweeps."""

import dataclasses
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter.middleware_server import OwnerReply
from bcounter.sim.config import (
    CounterSpec,
    CrashFault,
    OpFlag,
    PartitionFault,
    SimConfig,
    Strategy,
)
from bcounter.sim.harness import Run, run
from bcounter.sim.kernel import RoundTrip
from bcounter.sim.metrics import csv_lines
from bcounter.sim.strategies import TallyCounter, WeakDriver
from bcounter.store import DCStore
from bcounter.transfer import Replica, TransferMode

from test_golden import CONFIGS as GOLDEN_CONFIGS

BOUNDED = [Strategy.BCCLT, Strategy.BCSRV, Strategy.BCSRV_NOBATCH, Strategy.STRONG]


def small(strategy, **kw):
    base = dict(
        strategy=strategy,
        clients_per_dc=3,
        duration_ms=2_000.0,
        think_ms=50.0,
        counters=[CounterSpec("k", bound=0, initial=500)],
        seed=4,
    )
    base.update(kw)
    return SimConfig(**base)


def test_same_seed_same_bytes():
    cfg_a = small(Strategy.BCSRV)
    out_a = csv_lines(cfg_a.describe(), *run(cfg_a))
    cfg_b = small(Strategy.BCSRV)
    out_b = csv_lines(cfg_b.describe(), *run(cfg_b))
    assert out_a == out_b


def test_different_seed_changes_schedule():
    a = run(small(Strategy.BCSRV))[1]
    b = run(small(Strategy.BCSRV, seed=5))[1]
    assert (a.ok, a.p50_ms) != (b.ok, b.p50_ms)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_quiescent_convergence_matches_observer(strategy):
    metrics, report = run(small(strategy))
    assert report.ok > 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


@pytest.mark.parametrize("strategy", BOUNDED, ids=lambda s: s.value)
def test_bounded_strategies_never_violate(strategy):
    cfg = small(strategy, inc_fraction=0.0, think_ms=10.0,
                counters=[CounterSpec("k", bound=0, initial=30)])
    metrics, report = run(cfg)
    assert report.violations == 0
    assert report.observer_values["k"] >= 0
    assert report.converged is True


def test_weak_overdraws_under_contention():
    cfg = small(Strategy.WEAK, clients_per_dc=10, inc_fraction=0.0,
                think_ms=10.0, duration_ms=3_000.0,
                counters=[CounterSpec("k", bound=0, initial=40)])
    metrics, report = run(cfg)
    assert report.violations > 0
    assert report.observer_values["k"] < 0
    assert report.converged is True  # replicas still agree on the bad value


def test_depletion_run_exhausts_exactly():
    cfg = small(
        Strategy.BCSRV,
        clients_per_dc=5,
        inc_fraction=0.0,
        think_ms=10.0,
        run_until_depleted=True,
        post_depletion_ms=400.0,
        max_duration_ms=60_000.0,
        counters=[CounterSpec("k", bound=0, initial=200)],
    )
    metrics, report = run(cfg)
    assert report.depletion_time_ms is not None
    assert report.converged_values["k"] == 0
    assert report.violations == 0
    assert report.ok == 200
    assert report.requests_to_exhausted == 0


def test_partition_progress_and_postheal_convergence():
    cfg = small(
        Strategy.BCSRV,
        clients_per_dc=4,
        duration_ms=6_000.0,
        counters=[CounterSpec("k", bound=0, initial=2_000)],
        partitions=[PartitionFault(groups=((0, 1), (2,)), start_ms=2_000.0,
                                   end_ms=4_000.0)],
    )
    metrics, report = run(cfg)
    assert report.violations == 0
    assert all(d.ok > 0 for d in report.per_dc.values())
    assert report.converged is True
    assert report.convergence_sync_periods <= 3


def test_crash_fault_preserves_correctness():
    cfg = small(
        Strategy.BCSRV,
        clients_per_dc=4,
        duration_ms=6_000.0,
        counters=[CounterSpec("k", bound=0, initial=2_000)],
        crashes=[CrashFault(dc=0, node=1, start_ms=2_000.0, end_ms=4_000.0)],
    )
    metrics, report = run(cfg)
    assert report.violations == 0
    assert report.ok > 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize(
    "strategy", [Strategy.BCSRV, Strategy.BCSRV_NOBATCH], ids=lambda s: s.value
)
def test_a_dc_whose_owner_nodes_all_fail_runs_on(strategy, nodes):
    # every owner node at DC 0 is down and detected for 2 s; its keys still
    # route, to a dead node that drops what it is sent, until they recover
    cfg = SimConfig(
        strategy=strategy,
        nodes_per_dc=nodes,
        crashes=[CrashFault(0, node, 1_000.0, 3_000.0) for node in range(nodes)],
        clients_per_dc=3,
        duration_ms=4_000.0,
        seed=1,
    )
    metrics, report = run(cfg)
    assert report.per_dc[0].retry > 0  # DC 0's clients timed out meanwhile
    assert report.violations == 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


OWNER_STRATEGIES = [Strategy.BCSRV, Strategy.BCSRV_NOBATCH]


def assert_safe_and_converged(report, label) -> None:
    """What every swept or fuzzed run must end with: no bound violation, and
    every replica converged to the observer's values. ``label`` names the run."""
    assert report.violations == 0, label
    assert report.converged is True, (label, report.converged_values, report.observer_values)


def one_crash_window(strategy, node, start_ms):
    """Two DCs, one client at DC 0 and one key, with one 300 ms crash window
    of ``node`` at DC 0 from ``start_ms``."""
    return SimConfig(
        strategy=strategy,
        n_dcs=2,
        rtts={(0, 1): 83.0},
        clients_per_dc=[1, 0],
        think_ms=400.0,
        duration_ms=1_500.0,
        counters=[CounterSpec("k", bound=0, initial=100)],
        crashes=[CrashFault(0, node, start_ms, start_ms + 300.0)],
        seed=0,
    )


@pytest.mark.parametrize("strategy", OWNER_STRATEGIES, ids=lambda s: s.value)
def test_a_returning_owner_pushes_no_stale_cache(strategy):
    # node 2 owns the key until node 0's crash at 865 ms is detected at
    # 1,065 ms; then node 1 loads it and writes the next op, and node 0's
    # recovery at 1,165 ms routes the key back to node 2, whose warm cache
    # still holds the state before that write. DC 0 must push the newest
    # state its store holds, not that cache: before, DC 1 ended at 98
    # against DC 0's 97
    metrics, report = run(one_crash_window(strategy, 0, 865.0))
    assert_safe_and_converged(report, (strategy.value, 0, 865.0))


@pytest.mark.parametrize("strategy", OWNER_STRATEGIES, ids=lambda s: s.value)
def test_every_crash_window_of_every_node_ends_converged(strategy):
    # each node's 300 ms crash window, starting every 5 ms of the run: 900
    # tiny runs, about a second in all
    for node in range(3):
        for start in range(0, 1_500, 5):
            metrics, report = run(one_crash_window(strategy, node, float(start)))
            assert_safe_and_converged(report, (strategy.value, node, start))


@pytest.mark.parametrize("strategy", [Strategy.BCCLT, Strategy.BCSRV], ids=lambda s: s.value)
def test_late_sync_grants_end_converged_without_violations(strategy, monkeypatch):
    # DC 0 starts with every right, and its writes outlast any requester's
    # 2xRTT wait: its synchronous grants reach the requester after it moved on
    waits = []

    def timed(send):
        def send_request(self, key, req, view):
            answered = send(self, key, req, view)
            if req.mode is TransferMode.SYNC:
                sent_at, wait = self.sim.now, 2 * self.net.rtt(self.dc, req.grantor)

                def watch():  # resumed when the answer reaches the requester
                    resp = yield answered
                    waits.append((self.sim.now - sent_at > wait, resp.status.value))

                self.sim.spawn(watch())
            return answered

        return send_request

    monkeypatch.setattr(Replica, "_send_request", timed(Replica._send_request))
    cfg = small(strategy, clients_per_dc=4, inc_fraction=0.2, think_ms=20.0,
                write_ms=[250.0, 5.0, 5.0],
                counters=[CounterSpec("k", bound=0, initial=60)])
    metrics, report = run(cfg)
    assert (True, "granted") in waits
    assert report.violations == 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_nobatch_with_a_slow_store_converges(seed):
    # DC 0's writes take 250 ms; merges and grants arriving there ride its
    # next write instead of queueing one slow write each behind its ops
    cfg = small(Strategy.BCSRV_NOBATCH, clients_per_dc=4, inc_fraction=0.2, think_ms=20.0,
                write_ms=[250.0, 5.0, 5.0],
                counters=[CounterSpec("k", bound=0, initial=60)], seed=seed)
    metrics, report = run(cfg)
    assert report.violations == 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


@pytest.mark.parametrize("seed", [1, 2, 3, 961])
def test_a_client_merge_that_gives_up_is_delivered_again(seed):
    # with retry_limit=2, a receiving DC's merge loses both its races for
    # the key its own client keeps writing, and gives up; once writes stop,
    # only the sender's full sync rounds deliver that state again
    cfg = SimConfig(
        strategy=Strategy.BCCLT,
        clients_per_dc=1,
        write_ms=30.0,
        think_ms=5.0,
        inc_fraction=0.0,
        counters=[CounterSpec("k0", "upper", bound=5, initial=0)],
        op_flag=OpFlag.LOCAL,
        retry_limit=2,
        duration_ms=3_000.0,
        seed=seed,
    )
    metrics, report = run(cfg)
    assert report.converged is True
    assert report.convergence_sync_periods <= 5
    assert report.converged_values == report.observer_values


@pytest.mark.parametrize(
    "last, expected",
    [("ok", ("ok", "ok", True)), ("conflict", ("failed", "retries", True))],
)
def test_server_driver_keeps_used_sync_across_conflict_retries(last, expected):
    # a stub cluster answers the first attempt retry/conflict after a
    # synchronous acquisition, then ok, or conflict until the retries run out
    run_ = Run(small(Strategy.BCSRV))
    limit = run_.cfg.retry_limit
    conflict = OwnerReply("retry", "conflict", True)
    replies = [conflict] + ([OwnerReply("ok", "ok")] if last == "ok" else [conflict] * (limit - 1))

    class StubCluster:
        def client_request(self, key, kind, delta, flag, reply, deadline_ms):
            reply(replies.pop(0))

    run_.driver.replicas[0] = StubCluster()
    results = []

    def op():
        results.append((yield from run_.driver.client_op(0, "c0", "k", "dec", 1, "global")))

    run_.sim.spawn(op())
    run_.sim.run()
    assert results == [expected]
    assert replies == []


def test_multiple_counters_tracked_independently():
    cfg = small(
        Strategy.BCCLT,
        counters=[CounterSpec("a", bound=0, initial=100),
                  CounterSpec("b", bound=0, initial=300)],
    )
    metrics, report = run(cfg)
    assert set(report.observer_values) == {"a", "b"}
    assert report.converged is True
    assert report.converged_values == report.observer_values


def reference_merge(a: TallyCounter, b: TallyCounter) -> TallyCounter:
    def entrywise_max(x, y):
        return {actor: max(x.get(actor, 0), y.get(actor, 0)) for actor in x.keys() | y.keys()}

    return TallyCounter(entrywise_max(a.incs, b.incs), entrywise_max(a.decs, b.decs))


# a few actors, so the two sides share some and hold others alone; 0 included
_tallies = st.dictionaries(st.sampled_from("abcde"), st.integers(0, 4), max_size=5)
tally_counters = st.builds(TallyCounter, _tallies, _tallies)


@settings(max_examples=300, deadline=None)
@given(tally_counters, tally_counters, tally_counters)
def test_tally_merge_is_the_per_actor_max(a, b, c):
    assert a.merge(b) == reference_merge(a, b)
    assert a.merge(b) == b.merge(a)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.merge(a) == a
    assert a.merge(TallyCounter()) == a


def apply_to(tally: TallyCounter, ops):
    for actor, kind, delta in ops:
        tally = tally.apply(actor, kind, delta)
    return tally


# a few updates, each an actor, a kind and a delta
_updates = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from(["inc", "dec"]), st.integers(0, 3)),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    tally_counters,
    tally_counters,
    tally_counters,
    _updates,
    st.sampled_from("abcdef"),
    st.sampled_from(["inc", "dec"]),
    st.integers(0, 3),
)
def test_tally_join_raised_is_the_merge_over_a_dominated_parent(p, q, r, ups, actor, kind, delta):
    """A tally that dominates the parent of an ``apply`` or ``merge`` joins
    only its raised entries and gets the whole merge."""
    m = apply_to(p.merge(r), ups)  # any m >= p
    for child in (p.apply(actor, kind, delta), p.merge(q)):
        if child is not p:
            assert m.join_raised(child) == m.merge(child)


def sums_hold(tally: TallyCounter) -> bool:
    return tally.sums == (sum(tally.incs.values()), sum(tally.decs.values()))


@settings(max_examples=300, deadline=None)
@given(tally_counters, st.lists(st.one_of(_updates, tally_counters), max_size=6))
def test_tally_running_sums_follow_apply_and_merge(tally, steps):
    for step in steps:
        tally = tally.merge(step) if isinstance(step, TallyCounter) else apply_to(tally, step)
        assert sums_hold(tally)
        assert tally.value() == sum(tally.incs.values()) - sum(tally.decs.values())


@settings(max_examples=300, deadline=None)
@given(tally_counters, tally_counters, _updates)
def test_tally_equality_is_dict_equality(a, b, ups):
    for x, y in ((a, b), (a, apply_to(b, ups)), (a.merge(b), b.merge(a))):
        assert (x == y) == (snapshot(x) == snapshot(y))
        assert (x != y) == (snapshot(x) != snapshot(y))


def snapshot(tally: TallyCounter):
    return dict(tally.incs), dict(tally.decs)


@settings(max_examples=300, deadline=None)
@given(
    tally_counters,
    tally_counters,
    st.sampled_from("abcdef"),
    st.sampled_from(["inc", "dec"]),
    st.integers(0, 3),
)
def test_tally_apply_and_merge_leave_their_operands_alone(a, b, actor, kind, delta):
    """Stores and fold caches share tallies, so neither operation may write
    into an operand's dicts."""
    before = snapshot(a), snapshot(b)
    a.apply(actor, kind, delta)
    b.apply(actor, kind, delta)
    a.merge(b)
    b.merge(a)
    assert (snapshot(a), snapshot(b)) == before


def test_tally_shares_what_it_leaves():
    parent = TallyCounter({"_init": 9, "m": 1}, {"0:1": 2, "0:12": 0})
    child = parent.apply("0:1", "dec", 5)
    assert child.incs is parent.incs and child.decs is not parent.decs
    grown = child.apply("", "inc", 1).apply("n", "inc", 2).apply("zz", "dec", 1)
    assert grown.merge(parent) is grown  # nothing rose: the tally itself
    assert parent.merge(grown) == grown


def step_all(gens, rng):
    """Step generators in a random interleaving until all finish. Driver ops
    yield only their store round trips, so no kernel is needed: a round
    trip's effect is a step of its own, between the step that issued it and
    the step that resumes its generator with the result."""
    pending = {gen: (None, None) for gen in gens}  # gen -> (trip in flight, result to send)
    while gens:
        gen = rng.choice(gens)
        trip, result = pending[gen]
        if trip is not None:
            pending[gen] = None, trip.effect(*trip.args)
            continue
        try:
            pending[gen] = gen.send(result), None
        except StopIteration:
            gens.remove(gen)


def same(xs, ys) -> bool:
    """The same objects, in order."""
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_weak_fold_cache_matches_a_fresh_fold(monkeypatch):
    keys = ("a", "b")
    driver = Run(small(Strategy.WEAK)).driver
    for key in keys:
        driver.seed(CounterSpec(key, bound=0, initial=10_000))
    stores = driver.stores
    rng = random.Random(7)
    merge = TallyCounter.merge

    outside = []  # the tallies outside_put wrote

    def fresh(siblings):
        return reduce(merge, siblings)

    def outside_put(dc, key):
        # a writer other than the driver: reads, merges, bumps and puts with
        # its read as context, as every weak writer does
        rec = yield stores[dc].get(key)
        tally = fresh(rec.siblings).apply(f"x{dc}", rng.choice(["inc", "dec"]), 1)
        outside.append(tally)
        yield stores[dc].put(key, tally, context=rec.version)

    def merge_in(dc, key):
        other = rng.choice([d for d in range(len(stores)) if d != dc])
        yield from driver._merge_in(dc, key, fresh(stores[other].peek(key).siblings))

    def client_op(dc, key):
        kind = rng.choice(["inc", "dec"])
        yield from driver.client_op(dc, f"c{rng.randrange(6)}", key, kind, 1, "global")

    # the test's own model of the fold contract, per (dc, key): the version
    # and tuple last folded; joined collects the tallies a fold merges in,
    # whole or by their raised entries
    last, joined = {}, []
    fold = driver._fold
    stats = {"widest": 0, "cached": 0, "joined": 0, "overtaken": 0, "raised": 0, "outside": 0}

    def checked_fold(dc, rec):
        joined.clear()
        got = fold(dc, rec)
        seen = list(joined)
        assert got == fresh(rec.siblings)
        version, before = last.get((dc, rec.key), (0, ()))
        if rec.version == version:
            assert seen == []
            return got
        if rec.version < version:
            # an overtaken read of an earlier version is folded whole
            assert same(seen, rec.siblings[1:])
            stats["overtaken"] += 1
            return got
        if len(rec.siblings) == 1:
            before = ()  # a lone sibling is its own merge
        new = [s for s in rec.siblings if s not in before]
        # with no merge cached, the first new sibling starts it
        assert same(seen, new if before else new[1:])
        last[(dc, rec.key)] = rec.version, rec.siblings
        stats["widest"] = max(stats["widest"], len(rec.siblings))
        stats["cached"] += len(rec.siblings) - len(new)
        stats["joined"] += len(seen)
        stats["outside"] += sum(any(s is t for t in outside) for s in seen)
        return got

    def recorded_merge(self, other, stamp=None):
        joined.append(other)
        return merge(self, other, stamp)

    join_raised = TallyCounter.join_raised

    def recorded_join_raised(self, other):
        # only the driver's own puts are joined by their raised entries
        assert other.stamp is not None and not any(other is t for t in outside)
        joined.append(other)
        stats["raised"] += 1
        return join_raised(self, other)

    monkeypatch.setattr(driver, "_fold", checked_fold)
    monkeypatch.setattr(TallyCounter, "merge", recorded_merge)
    monkeypatch.setattr(TallyCounter, "join_raised", recorded_join_raised)
    ops = [client_op] * 6 + [outside_put, merge_in]
    for _ in range(60):
        gens = [rng.choice(ops)(rng.randrange(len(stores)), rng.choice(keys))
                for _ in range(rng.randint(1, 16))]
        step_all(gens, rng)
    # the interleavings built wide sibling sets and overtaken reads, and the
    # folds both joined new siblings and skipped ones already in the cache
    assert stats["widest"] >= 4 and stats["overtaken"] > 0
    assert stats["cached"] > 0 and stats["joined"] > 0
    # outside puts were merged whole, and driver puts joined by raised entries
    assert stats["outside"] > 0 and stats["raised"] > 0


def weak_golden(name, seed=None):
    cfg = GOLDEN_CONFIGS[name](Strategy.WEAK)
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["single-counter", "violation-count", "faults"])
def test_weak_fold_equals_a_fresh_fold_over_whole_runs(name, seed, monkeypatch):
    """Under a real run's interleavings, every fold equals a fresh merge of
    the siblings read."""
    fold = WeakDriver._fold
    widest = 0

    def checked(self, dc, rec):
        nonlocal widest
        got = fold(self, dc, rec)
        assert got == reduce(TallyCounter.merge, rec.siblings)
        widest = max(widest, len(rec.siblings))
        return got

    monkeypatch.setattr(WeakDriver, "_fold", checked)
    run(weak_golden(name, seed))
    assert widest > 1


def test_weak_run_never_changes_a_stored_tally(monkeypatch):
    """Every tally a store receives keeps its entries to the end of the run,
    as the stores of every DC and the fold caches share them."""
    put, seed = DCStore.put, DCStore.seed
    stored = []

    def snapped_put(self, key, data, context=None):
        stored.append((data, snapshot(data)))
        return put(self, key, data, context)

    def snapped_seed(self, key, data, mode):
        stored.append((data, snapshot(data)))
        seed(self, key, data, mode)

    monkeypatch.setattr(DCStore, "put", snapped_put)
    monkeypatch.setattr(DCStore, "seed", snapped_seed)
    run(weak_golden("single-counter"))
    assert len(stored) > 100
    assert all(snapshot(tally) == snap for tally, snap in stored)


def test_weak_sync_sends_the_lone_sibling_itself(monkeypatch):
    driver = Run(small(Strategy.WEAK)).driver
    driver.seed(CounterSpec("x", bound=0, initial=100))
    store, sent, puts, rng = driver.stores[0], [], [], random.Random(0)
    # deliver each sync at once and keep the tally it carries
    monkeypatch.setattr(driver.net, "broadcast", lambda dc, deliver: deliver(1) or 1)
    monkeypatch.setattr(driver, "_on_sync", lambda dc, key, tally: sent.append(tally))
    sync = driver._sync_loop(0)

    def sync_once():
        # sleeps resume with nothing; a read's round trip lands at once
        n, result = len(sent), None
        while len(sent) == n:
            waited = sync.send(result)
            result = waited.effect(*waited.args) if isinstance(waited, RoundTrip) else None
        assert sent[-1] is store.peek("x").siblings[0]

    sync_once()  # the seed
    for actor in ("0:0", "0:1", "0:0"):
        step_all([driver.client_op(0, actor, "x", "dec", 1, "global")], rng)
        assert len(store.peek("x").siblings) == 1
        sync_once()  # the driver's own put
    put = DCStore.put

    def recorded_put(self, key, data, context=None):
        puts.append(data)
        return put(self, key, data, context)

    monkeypatch.setattr(DCStore, "put", recorded_put)
    # a merge that raises nothing writes nothing; one that raises an entry does
    for incoming in (TallyCounter({"_init": 100}, {"0:0": 1}), TallyCounter({}, {"1:0": 1})):
        step_all([driver._merge_in(0, "x", incoming)], rng)
    assert [t.decs for t in puts] == [{"0:0": 2, "0:1": 1, "1:0": 1}]


def test_store_counters_reported():
    metrics, report = run(small(Strategy.BCCLT))
    assert report.store_reads > 0
    assert report.store_cond_writes > 0
    assert report.store_weak_puts == 0  # bounded strategies use conditional writes


def test_weak_uses_weak_puts():
    metrics, report = run(small(Strategy.WEAK))
    assert report.store_weak_puts > 0
    assert report.store_cond_writes == 0


def test_csv_shape():
    cfg = small(Strategy.BCSRV, warmup_ms=500.0)
    lines = csv_lines(cfg.describe(), *run(cfg))
    assert lines[0].startswith("# config:")
    assert lines[1] == "# columns: v1"
    header = lines[2].split(",")
    assert header[0] == "time_s"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert data, "no bucket rows"
    for row in data:
        assert len(row.split(",")) == len(header)
    assert any(ln.startswith("# final:") for ln in lines)
