"""The kernel against the closure-per-event kernel it replaced.

``kernel_reference`` keeps that kernel unchanged. Random process programs run
on both, and the full ``(now, tag, value)`` logs, the clock and the number
of queued entries after every ``run(until=...)`` chunk must be equal. The
programs mix zero and tied delays, delays that float rounding absorbs at
``now = 2**53``, futures resolved before they are awaited and resolved more
than once, timed waits with timeout 0 and with a value that lands at the
deadline, kills before the first step and while waiting, joins, and
callbacks scheduled by processes. The kernel keeps no return value, so a
join waits on a future that the process's wrapper resolves with it.

A round trip, the kernel's fourth yieldable, runs on the reference kernel as
the sleep, effect, sleep it stands for. Its effect logs itself and resolves a
future, so a trip that lands or not, killed mid-trip, shows in the log. The
fast kernel must also dispatch as many ``events`` with the round trip as it
does with the three steps written out.

Those worlds are too small for the kernel to drop served timeouts' entries
from its heap, so ``crowd`` runs one large enough: over a thousand timed
waits, most served long before their deadlines.
"""

import random

import kernel_reference
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bcounter.sim import kernel

N_FUTURES = 3
SPAWN_BUDGET = 24

# at 2**53 a delay of 0.5 or 1 is absorbed (now + d == now) and 2 is not
delays = st.sampled_from([0, 0.0, 0, 0.5, 1, 1.0, 2, 2.5, 3, 8])
futures = st.integers(0, N_FUTURES - 1)
values = st.integers(0, 9)
procs = st.integers(0, 40)

instructions = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("wait"), futures),
    st.tuples(st.just("timed"), futures, delays),
    st.tuples(st.just("resolve"), futures, values),
    st.tuples(st.just("spawn"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("kill"), procs),
    st.tuples(st.just("join"), procs),
    st.tuples(st.just("call"), delays, futures, values),
    st.tuples(st.just("trip"), delays, delays, futures, values),
)

worlds = st.fixed_dictionaries(
    {
        "start": st.sampled_from([0.0, 2.0**53]),
        "programs": st.lists(st.lists(instructions, max_size=8), min_size=1, max_size=4),
        "roots": st.lists(st.integers(0, 3), min_size=1, max_size=4),
        "resolved": st.lists(st.tuples(futures, values), max_size=2),
        "killed": st.lists(procs, max_size=2),
        "chunks": st.lists(st.sampled_from([0, 0.5, 1, 2, 3, 5, 9]), max_size=4),
    }
)


def play(k, world, trips=True):
    """Run ``world`` on kernel module ``k``; returns its log, checkpoints, the
    processes' liveness and the events dispatched (None on the reference
    kernel, which does not count them). A round trip is the kernel's
    primitive if ``trips`` and ``k`` has one, else sleep, effect, sleep."""
    trips = trips and hasattr(k, "RoundTrip")
    sim = k.Simulator()
    sim.now = world["start"]
    futs = [k.Future(sim) for _ in range(N_FUTURES)]
    procs = []
    joins = []  # per process: resolved with its return value
    log = []
    budget = [SPAWN_BUDGET]
    programs = world["programs"]

    def show(v):
        return "TIMEOUT" if v is k.TIMEOUT else v

    def spawn(index, kill):
        if budget[0] == 0:
            return
        budget[0] -= 1
        pid = len(procs)
        joins.append(k.Future(sim))
        procs.append(sim.spawn(joined(pid, programs[index % len(programs)])))
        if kill:
            procs[pid].kill()

    def call(tag, f, v):
        log.append((sim.now, tag, "call"))
        futs[f].resolve(v)

    def effect(tag, f, v):
        log.append((sim.now, tag, "effect"))
        futs[f].resolve((tag, v))
        return "landed", v

    def joined(pid, program):
        joins[pid].resolve((yield from proc(pid, program)))

    def proc(pid, program):
        for step, ins in enumerate(program):
            tag = (pid, step)
            op = ins[0]
            if op == "sleep":
                yield ins[1]
            elif op == "wait":
                log.append((sim.now, tag, show((yield futs[ins[1]]))))
            elif op == "timed":
                log.append((sim.now, tag, show((yield (futs[ins[1]], ins[2])))))
            elif op == "resolve":
                futs[ins[1]].resolve((pid, ins[2]))
            elif op == "spawn":
                spawn(ins[1], ins[2])
            elif op == "kill":
                procs[ins[1] % len(procs)].kill()
            elif op == "join":
                log.append((sim.now, tag, show((yield joins[ins[1] % len(procs)]))))
            elif op == "trip":
                _, out, back, f, v = ins
                if trips:
                    got = yield k.RoundTrip(out, effect, (tag, f, v), lambda back=back: back)
                else:
                    yield out
                    got = effect(tag, f, v)
                    yield back
                log.append((sim.now, tag, got))
            else:
                sim.schedule(ins[1], lambda tag=tag, f=ins[2], v=ins[3]: call(tag, f, v))
            log.append((sim.now, tag, op))
        return pid

    for f, v in world["resolved"]:
        futs[f].resolve(("pre", v))
    for index in world["roots"]:
        spawn(index, False)
    for p in world["killed"]:
        procs[p % len(procs)].kill()
    checkpoints = []
    for offset in world["chunks"]:
        sim.run(until=sim.now + offset)
        checkpoints.append((sim.now, sim.pending()))
    sim.run()
    checkpoints.append((sim.now, sim.pending()))
    return log, checkpoints, [p.alive for p in procs], getattr(sim, "events", None)


@seed(20150415)
@settings(max_examples=400, deadline=None)
@given(worlds)
def test_same_event_order_as_reference_kernel(world):
    fast = play(kernel, world)
    assert fast[:3] == play(kernel_reference, world)[:3]
    assert fast == play(kernel, world, trips=False)


def test_reference_world_exercises_every_instruction():
    world = {
        "start": 2.0**53,
        "programs": [
            [("resolve", 0, 1), ("spawn", 1, False), ("sleep", 1), ("timed", 1, 0),
             ("call", 0.5, 1, 4), ("wait", 1), ("join", 1), ("timed", 2, 2),
             ("trip", 1, 0.5, 2, 6)],
            [("wait", 0), ("sleep", 0.5), ("timed", 2, 1), ("kill", 0), ("resolve", 2, 3),
             ("trip", 0, 2, 1, 8)],
        ],
        "roots": [0, 1],
        "resolved": [(0, 5)],
        "killed": [],
        "chunks": [0, 1, 2],
    }
    fast = play(kernel, world)
    assert fast[:3] == play(kernel_reference, world)[:3]
    assert fast == play(kernel, world, trips=False)
    log = fast[0]
    assert {entry[2] for entry in log} >= {
        "TIMEOUT", "call", "sleep", "wait", "timed", "effect", "trip"
    }


@pytest.mark.parametrize("kill_at", [0.5, 2, 2.5, 3])
def test_a_process_killed_mid_trip_never_runs_its_effect(kill_at):
    # process 0's trip lands at 2 and would return at 3; process 1 kills it
    # at kill_at. The landing at 2 was queued before the kill's sleep, so a
    # kill at 2 comes after the effect, and a kill at 3 before the return
    world = {
        "start": 0.0,
        "programs": [[("trip", 2, 1, 0, 7)], [("sleep", kill_at), ("kill", 0)]],
        "roots": [0, 1],
        "resolved": [],
        "killed": [],
        "chunks": [],
    }
    fast = play(kernel, world)
    assert fast[:3] == play(kernel_reference, world)[:3]
    assert fast == play(kernel, world, trips=False)
    log, _, alive, _ = fast
    tripper = [entry for entry in log if entry[1] == (0, 0)]
    assert tripper == ([] if kill_at < 2 else [(2, (0, 0), "effect")])
    assert alive[0] is False


FLOOR = kernel._STALE_FLOOR
CROWD, CROWD_STEPS = 50, 30
CROWD_KILLED = (3, 17, 29, 41)


def crowd(k, check=None):
    """``CROWD`` processes of ``CROWD_STEPS`` waits each on kernel module
    ``k``, run in chunks; returns the ``(now, tag, value)`` log.

    Most waits are served within 3 ms and time out after 40 to 60 ms, on
    whole milliseconds, so deadlines tie. The rest wait with timeout 0 on a
    resolved and on a pending future, wait for a value that lands at the
    deadline, or sleep. Four processes are killed while they wait.
    ``check(sim, False)`` runs whenever a timed wait resumes with a value,
    and ``check(sim, True)`` after each chunk.
    """
    sim = k.Simulator()
    resolved, pending = k.Future(sim), k.Future(sim)
    resolved.resolve("pre")
    log = []

    def show(v):
        return "TIMEOUT" if v is k.TIMEOUT else v

    def worker(pid):
        rng = random.Random(pid)
        for step in range(CROWD_STEPS):
            tag = (pid, step)
            roll = rng.random()
            f = k.Future(sim)
            if roll < 0.75:
                sim.schedule(rng.randint(0, 3), lambda f=f, tag=tag: f.resolve(tag))
                got = yield (f, rng.choice([40, 50, 60]))
            elif roll < 0.8:
                got = yield (resolved, 0)
            elif roll < 0.85:
                got = yield (pending, 0)
            elif roll < 0.9:
                d = rng.randint(1, 3)
                sim.schedule(d, lambda f=f, tag=tag: f.resolve(tag))
                got = yield (f, d)
            else:
                got = yield rng.randint(0, 2)
            if check is not None and roll < 0.9 and got is not k.TIMEOUT:
                check(sim, False)
            log.append((sim.now, tag, show(got)))

    procs = [sim.spawn(worker(pid)) for pid in range(CROWD)]
    for i, pid in enumerate(CROWD_KILLED):
        sim.schedule(5 + 7 * i, procs[pid].kill)
    for until in range(0, 120, 9):
        sim.run(until=until)
        if check is not None:
            check(sim, True)
    sim.run()
    return log


def test_crowd_of_served_timeouts_runs_as_in_reference_kernel(monkeypatch):
    dropped = []
    drop_stale = kernel.Simulator._drop_stale
    monkeypatch.setattr(
        kernel.Simulator, "_drop_stale", lambda sim: dropped.append(drop_stale(sim)) or dropped[-1]
    )

    def check(sim, between_runs):
        queued = [e[2:] for e in sim._heap] + list(sim._ready)
        served = [(t, v) for t, v in queued if t.__class__ is kernel._TimedWait and t.fired]
        if between_runs:
            # the count is stored when run() returns, and it is exact
            assert sim._stale == sum(1 for _, v in served if v is kernel._EXPIRED)
        else:
            # just after a wait is served, dead entries are at most about
            # half the heap, or fewer than the floor
            assert len(sim._heap) <= 2 * (len(queued) - len(served)) + FLOOR

    log = crowd(kernel, check)
    assert log == crowd(kernel_reference)
    assert len(log) > 1000
    assert len(dropped) > 1 and sum(dropped) > 2 * FLOOR
