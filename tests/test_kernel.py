"""Event loop and process semantics: ordering, futures, timeouts, kill."""

import random

import pytest

from bcounter.sim.kernel import TIMEOUT, Future, RoundTrip, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30, lambda: log.append("c"))
    sim.schedule(10, lambda: log.append("a"))
    sim.schedule(20, lambda: log.append("b"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_by_schedule_order():
    sim = Simulator()
    log = []
    for tag in "abcde":
        sim.schedule(5, lambda tag=tag: log.append(tag))
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_early():
    sim = Simulator()
    log = []
    sim.schedule(10, lambda: log.append(1))
    sim.schedule(50, lambda: log.append(2))
    sim.run(until=20)
    assert log == [1]
    assert sim.now == 20
    sim.run()
    assert log == [1, 2]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending() == 0


def test_time_never_goes_backwards_with_a_nan_delay_offered():
    # a NaN entry in the heap breaks its order: it once ran the 7 ms event
    # after both 20 ms events
    sim = Simulator()
    stamps = []
    rejected = 0
    for d in [2, 3, 3, 12, 6, 10, 9, 20, 7, 20, float("nan"), 2, 19]:
        try:
            sim.schedule(d, lambda d=d: stamps.append((sim.now, d)))
        except ValueError:
            rejected += 1
    sim.run()
    assert rejected == 1
    assert [now for now, _ in stamps] == sorted(d for _, d in stamps)
    assert all(now == d for now, d in stamps)


@pytest.mark.parametrize(
    "wait",
    [
        lambda f: float("nan"),
        lambda f: -1,
        lambda f: (f, float("nan")),
        lambda f: (f, -1.0),
    ],
)
def test_process_rejects_nan_and_negative_waits(wait):
    sim = Simulator()
    f = Future(sim)

    def proc():
        yield wait(f)

    sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run()


def test_absorbed_delay_keeps_schedule_order():
    # at 2**53, now + 1.0 == now: the sleep is due at once and must run
    # before the zero sleep yielded after it
    sim = Simulator()
    sim.now = 2.0**53
    log = []

    def sleeper(name, d):
        yield d
        log.append(name)

    sim.spawn(sleeper("absorbed", 1.0))
    sim.spawn(sleeper("zero", 0))
    sim.run()
    assert log == ["absorbed", "zero"]
    assert sim.now == 2.0**53


def test_events_counts_dispatched_entries():
    sim = Simulator()
    f = Future(sim)

    def waiter():
        yield (f, 10)
        yield 5

    sim.spawn(waiter())
    sim.schedule(3, lambda: f.resolve(1))
    assert sim.pending() == 2
    sim.run()
    # the spawn, the resolve, the value, the sleep, and the timeout that
    # found its wait already served
    assert sim.events == 5
    assert sim.now == 10


def test_process_sleeps():
    sim = Simulator()
    stamps = []

    def proc():
        stamps.append(sim.now)
        yield 15
        stamps.append(sim.now)
        yield 5
        stamps.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert stamps == [0, 15, 20]


def test_process_waits_on_future():
    sim = Simulator()
    f = Future(sim)
    got = []

    def waiter():
        v = yield f
        got.append((sim.now, v))

    def resolver():
        yield 40
        f.resolve("hello")

    sim.spawn(waiter())
    sim.spawn(resolver())
    sim.run()
    assert got == [(40, "hello")]


def test_already_resolved_future_resumes_immediately():
    sim = Simulator()
    f = Future(sim)
    f.resolve(7)
    got = []

    def waiter():
        got.append((yield f))

    sim.spawn(waiter())
    sim.run()
    assert got == [7]
    assert sim.now == 0


def test_future_resolves_once():
    sim = Simulator()
    f = Future(sim)
    f.resolve(1)
    f.resolve(2)
    sim.run()
    assert f.value == 1


def test_timeout_fires_when_future_is_late():
    sim = Simulator()
    f = Future(sim)
    got = []

    def waiter():
        got.append((yield (f, 25)))
        got.append(sim.now)

    sim.spawn(waiter())
    sim.schedule(100, lambda: f.resolve("late"))
    sim.run()
    assert got == [TIMEOUT, 25]


def test_timeout_not_fired_when_future_is_on_time():
    sim = Simulator()
    f = Future(sim)
    got = []

    def waiter():
        got.append((yield (f, 25)))

    sim.spawn(waiter())
    sim.schedule(10, lambda: f.resolve("fast"))
    sim.run()
    assert got == ["fast"]


def test_killed_process_never_resumes():
    sim = Simulator()
    f = Future(sim)
    log = []

    def victim():
        log.append("start")
        yield f
        log.append("unreachable")

    p = sim.spawn(victim())
    sim.schedule(10, p.kill)
    sim.schedule(20, lambda: f.resolve(None))
    sim.run()
    assert log == ["start"]
    assert not p.alive


def test_kill_before_first_step():
    sim = Simulator()
    log = []

    def victim():
        log.append("ran")
        yield 1

    p = sim.spawn(victim())
    p.kill()
    sim.run()
    assert log == []


def test_yield_from_delegation():
    sim = Simulator()
    log = []

    def helper():
        yield 10
        return "inner"

    def outer():
        v = yield from helper()
        log.append((sim.now, v))

    sim.spawn(outer())
    sim.run()
    assert log == [(10, "inner")]


@pytest.mark.parametrize("value", ["nope", True], ids=["str", "bool"])
def test_unsupported_yield_raises(value):
    sim = Simulator()

    def bad():
        yield value

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_round_trip_lands_then_returns():
    sim = Simulator()
    log = []

    def effect(x):
        log.append(("effect", sim.now, x))
        return x * 2

    def proc():
        got = yield RoundTrip(3, effect, (21,), lambda: 2.5)
        log.append(("back", sim.now, got))

    sim.spawn(proc())
    sim.run()
    assert log == [("effect", 3, 21), ("back", 5.5, 42)]
    # the spawn, the landing and the return
    assert sim.events == 3


def error_of(sim):
    with pytest.raises((TypeError, ValueError)) as info:
        sim.run()
    return type(info.value), str(info.value)


BAD_DELAYS = [-1, -0.5, float("nan"), "1", True, None]


@pytest.mark.parametrize("bad", BAD_DELAYS, ids=repr)
@pytest.mark.parametrize("leg", ["out", "back"])
def test_round_trip_delays_are_checked_as_sleeps(leg, bad):
    """A bad ``out_ms`` or ``back()`` raises what a sleep of it raises."""
    landed = []

    def trip_proc():
        out, back = (bad, 1) if leg == "out" else (1, bad)
        yield RoundTrip(out, landed.append, (leg,), lambda: back)

    def sleep_proc():
        yield bad

    sleeps, trips = Simulator(), Simulator()
    sleeps.spawn(sleep_proc())
    trips.spawn(trip_proc())
    assert error_of(trips) == error_of(sleeps)
    # the hop back is drawn, and checked, once the effect has run
    assert landed == ([] if leg == "out" else ["back"])


def test_deterministic_interleaving():
    def trace():
        sim = Simulator()
        rng = random.Random(42)
        log = []

        def worker(name):
            for _ in range(20):
                yield rng.uniform(0, 10)
                log.append((round(sim.now, 6), name))

        for name in ("w1", "w2", "w3"):
            sim.spawn(worker(name))
        sim.run()
        return log

    assert trace() == trace()
