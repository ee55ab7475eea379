"""Store semantics: weak joins, conditional writes, races, the round trip
and the kill rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter.sim.kernel import Future, RoundTrip, Simulator
from bcounter.sim.strategies import TallyCounter
from bcounter.store import ABSENT, CONFLICT, Consistency, DCStore, WrongMode


def new_store(read_ms=1.0, write_ms=5.0, hop_ms=1.0):
    """DC 0's store, a fixed ``hop_ms`` from its callers."""
    return DCStore(0, read_ms, write_ms, lambda: hop_ms)


def one_op(op):
    """A script that yields one store op and returns its result."""
    return (yield op)


def joined(sim, gen):
    """Spawn ``gen``; returns a future its return value resolves."""
    done = Future(sim)

    def wrapper():
        done.resolve((yield from gen))

    sim.spawn(wrapper())
    return done


def run_ops(sim, script):
    """Drive a script coroutine, or a single store op, to completion and
    return its value."""
    if isinstance(script, RoundTrip):
        script = one_op(script)
    done = joined(sim, script)
    sim.run()
    assert done.done, "script did not finish"
    return done.value


def test_put_get_round_trip():
    sim = Simulator()
    store = new_store()
    tally = TallyCounter({"a": 1})

    def script():
        v = yield store.put("k", tally)
        rec = yield store.get("k")
        return v, rec

    v, rec = run_ops(sim, script())
    assert v == 1
    assert rec.value is tally  # a put on an absent key installs its data
    assert rec.version == 1
    assert rec.consistency is Consistency.WEAK


def test_get_absent_key():
    sim = Simulator()
    store = new_store()
    assert run_ops(sim, iter_get(store)) is None


def iter_get(store):
    rec = yield store.get("nothing")
    return rec


def test_latencies_model_service_time():
    """An op resumes its caller one hop, the service time and one hop later."""
    sim = Simulator()
    store = new_store(read_ms=2.0, write_ms=5.0, hop_ms=1.0)
    stamps = {}

    def script():
        yield store.put("k", b"x")
        stamps["write"] = sim.now
        yield store.get("k")
        stamps["read"] = sim.now

    run_ops(sim, script())
    assert stamps["write"] == 1 + 5.0 + 1
    assert stamps["read"] == stamps["write"] + 1 + 2.0 + 1


def join_into(joined: tuple[dict, dict], tally: TallyCounter) -> tuple[dict, dict]:
    """Join ``tally`` into ``joined``, an (incs, decs) pair of dicts, apart
    from ``TallyCounter.merge``."""
    for section, entries in zip(joined, (tally.incs, tally.decs)):
        for actor, n in entries.items():
            section[actor] = max(section.get(actor, 0), n)
    return joined


def sections(tally: TallyCounter) -> tuple[dict[str, int], dict[str, int]]:
    return dict(tally.incs), dict(tally.decs)


BASE = TallyCounter({"_init": 9})


class TestWeakJoin:
    def test_a_put_from_the_current_value_replaces_it(self):
        sim = Simulator()
        store = new_store()
        store.seed("k", BASE, Consistency.WEAK)
        bumped = BASE.apply("a", "inc", 1)
        v = run_ops(sim, store.put("k", bumped))
        assert (v, store.peek("k").value) == (2, bumped)

    def test_a_put_from_a_stale_read_keeps_the_later_put(self):
        sim = Simulator()
        store = new_store()
        store.seed("k", BASE, Consistency.WEAK)

        def script():
            rec = yield store.get("k")
            yield store.put("k", rec.value.apply("b", "dec", 1))
            yield store.put("k", rec.value.apply("c", "dec", 2))  # now stale
            return (yield store.get("k"))

        rec = run_ops(sim, script())
        assert sections(rec.value) == ({"_init": 9}, {"b": 1, "c": 2})
        assert rec.value.value() == 6

    def test_concurrent_puts_accumulate(self):
        sim = Simulator()
        store = new_store()
        store.seed("k", BASE, Consistency.WEAK)

        def writer(actor):
            rec = yield store.get("k")
            yield store.put("k", rec.value.apply(actor, "inc", 1))

        for actor in ("one", "two"):
            sim.spawn(writer(actor))
        sim.run()
        assert sections(store.peek("k").value) == ({"_init": 9, "one": 1, "two": 1}, {})

    def test_an_equal_put_leaves_the_value_as_it_is(self):
        sim = Simulator()
        store = new_store()
        store.seed("k", BASE, Consistency.WEAK)
        assert run_ops(sim, store.put("k", TallyCounter({"_init": 9}))) == 2
        assert store.peek("k").value is BASE  # merge returns it when nothing rises


# (writer, actor, kind): a writer without a read in hand reads; one with a
# read puts it plus the actor's bump
weak_steps = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from("abc"), st.sampled_from(["inc", "dec"])),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(weak_steps)
def test_the_weak_value_is_the_join_of_the_seed_and_every_landed_put(steps):
    """Writers read and put, interleaved, so many put from stale reads: the
    value is always the join of the seed and every put landed so far, and
    no join writes into a tally it was given."""
    sim = Simulator()
    store = new_store()
    store.seed("k", BASE, Consistency.WEAK)
    joined, landed, reads = join_into(({}, {}), BASE), [BASE], {}
    for writer, actor, kind in steps:
        if writer not in reads:
            reads[writer] = run_ops(sim, store.get("k")).value
            continue
        landed.append(reads.pop(writer).apply(actor, kind, 1))
        snaps = [sections(t) for t in landed]
        run_ops(sim, store.put("k", landed[-1]))
        assert sections(store.peek("k").value) == join_into(joined, landed[-1])
        assert [sections(t) for t in landed] == snaps


class TestConditionalWrites:
    def test_create_with_absent(self):
        sim = Simulator()
        store = new_store()

        def script():
            v = yield store.put_conditional("k", b"x", ABSENT)
            rec = yield store.get("k")
            return v, rec

        v, rec = run_ops(sim, script())
        assert v == 1
        assert rec.consistency is Consistency.STRONG
        assert rec.value == b"x"

    def test_create_race_has_one_winner(self):
        sim = Simulator()
        store = new_store()
        results = []

        def writer(data):
            r = yield store.put_conditional("k", data, ABSENT)
            results.append(r)

        sim.spawn(writer(b"a"))
        sim.spawn(writer(b"b"))
        sim.run()
        assert sorted(x is CONFLICT for x in results) == [False, True]

    def test_chain_of_expected_versions(self):
        sim = Simulator()
        store = new_store()

        def script():
            v1 = yield store.put_conditional("k", b"a", ABSENT)
            v2 = yield store.put_conditional("k", b"b", v1)
            v3 = yield store.put_conditional("k", b"c", v2)
            return [v1, v2, v3]

        assert run_ops(sim, script()) == [1, 2, 3]

    def test_stale_expected_conflicts(self):
        sim = Simulator()
        store = new_store()

        def script():
            v1 = yield store.put_conditional("k", b"a", ABSENT)
            yield store.put_conditional("k", b"b", v1)
            r = yield store.put_conditional("k", b"c", v1)
            rec = yield store.get("k")
            return r, rec

        r, rec = run_ops(sim, script())
        assert r is CONFLICT
        assert rec.value == b"b"  # loser installed nothing

    def test_same_version_racers_one_wins(self):
        sim = Simulator()
        store = new_store()
        results = []

        def writer(data, expected):
            r = yield store.put_conditional("k", data, expected)
            results.append((data, r))

        def script():
            v = yield store.put_conditional("k", b"base", ABSENT)
            sim.spawn(writer(b"x", v))
            sim.spawn(writer(b"y", v))

        sim.spawn(script())
        sim.run()
        outcomes = dict(results)
        assert (outcomes[b"x"] is CONFLICT) != (outcomes[b"y"] is CONFLICT)
        assert store.conflicts == 1

    def test_strong_key_always_single_sibling(self):
        sim = Simulator()
        store = new_store()

        def script():
            v = yield store.put_conditional("k", b"a", ABSENT)
            yield store.put_conditional("k", b"b", v)
            return (yield store.get("k"))

        rec = run_ops(sim, script())
        assert rec.value == b"b" and rec.version == 2

    def test_retry_loop_succeeds_after_conflict(self):
        sim = Simulator()
        store = new_store()

        def script():
            yield store.put_conditional("k", b"a", ABSENT)
            r = yield store.put_conditional("k", b"b", ABSENT)
            assert r is CONFLICT
            rec = yield store.get("k")
            r2 = yield store.put_conditional("k", b"b", rec.version)
            return r2

        assert run_ops(sim, script()) == 2


class TestModeSeparation:
    def test_weak_put_on_strong_key(self):
        sim = Simulator()
        store = new_store()

        def script():
            yield store.put_conditional("k", b"a", ABSENT)

        run_ops(sim, script())
        with pytest.raises(WrongMode):
            store.put("k", b"b")

    def test_conditional_on_weak_key(self):
        sim = Simulator()
        store = new_store()

        def script():
            yield store.put("k", b"a")

        run_ops(sim, script())
        with pytest.raises(WrongMode):
            store.put_conditional("k", b"b", ABSENT)


def run_killed_writers(kill_at_ms):
    """Two conditional writes issued at t=0, 1 ms hop then 5 ms of service:
    one would create key "new", the other would conflict on the seeded key
    "old". Both writers are killed at ``kill_at_ms``, before their writes
    land, so neither write installs, conflicts or resumes its writer."""
    sim = Simulator()
    store = new_store()
    store.seed("old", b"v1", Consistency.STRONG)
    resumed = []

    def writer(key):
        resumed.append((yield store.put_conditional(key, b"ghost", ABSENT)))

    for key in ("new", "old"):
        p = sim.spawn(writer(key))
        sim.schedule(kill_at_ms, p.kill)
    sim.run()
    assert store.peek("new") is None
    assert store.peek("old").value == b"v1"
    assert store.conflicts == 0
    assert resumed == []
    assert store.cond_writes == 2  # counted when issued, before the kill


def test_writer_killed_in_outbound_hop_installs_nothing():
    run_killed_writers(0.5)


def test_crashed_writer_installs_nothing():
    run_killed_writers(3.0)  # during the service time


def test_surviving_writer_installs():
    sim = Simulator()
    store = new_store()

    def writer():
        return (yield store.put_conditional("k", b"v", ABSENT))

    assert run_ops(sim, writer()) == 1
    assert store.peek("k").value == b"v"


def test_ops_counted_at_call_time():
    store = new_store()
    store.seed("s", b"a", Consistency.STRONG)
    store.get("w")
    store.put("w", b"a")
    store.put_conditional("s", b"b", 1)
    assert (store.reads, store.weak_puts, store.cond_writes) == (1, 1, 1)
    assert store.peek("w") is None  # no round trip ran


def test_stats_counted():
    sim = Simulator()
    store = new_store()

    def script():
        yield store.put("w", b"a")
        yield store.get("w")
        v = yield store.put_conditional("s", b"a", ABSENT)
        yield store.put_conditional("s", b"b", v)
        yield store.put_conditional("s", b"c", v)  # conflict

    run_ops(sim, script())
    assert store.weak_puts == 1
    assert store.reads == 1
    assert store.cond_writes == 3
    assert store.conflicts == 1
