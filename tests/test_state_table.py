"""Bounded counters stored as they are: the client middleware's step memo
keyed on the stored version it read, stored states that nothing mutates, a
simulated path that never runs the codec, and a memo whose bypass never
changes a run's output."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter.crdt import BoundedCounter, NotEnoughRights, Polarity
from bcounter.middleware_client import ClientMiddleware
from bcounter.sim.config import CounterSpec, SimConfig, Strategy
from bcounter.sim.harness import Run
from bcounter.store import DCStore

from test_crdt import random_counter
from test_golden import CONFIGS, GOLDEN, digest, single_counter


def fresh_step(state, kind, i, delta):
    try:
        return state.increment(i, delta) if kind == "inc" else state.decrement(i, delta)
    except NotEnoughRights:
        return state.local_rights(i)


def middleware(dc, n):
    """A middleware at ``dc`` with nothing wired: ``_step`` needs none of it."""
    return ClientMiddleware(None, None, None, dc, n, None)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    polarity=st.sampled_from(Polarity),
    kind=st.sampled_from(["inc", "dec"]),
    delta=st.integers(1, 12),
    data=st.data(),
)
def test_step_matches_a_fresh_decode_update_encode(seed, polarity, kind, delta, data):
    state = random_counter(random.Random(seed), polarity)
    i = data.draw(st.integers(0, state.n - 1))
    version = data.draw(st.integers(1, 2**40))
    mw = middleware(i, state.n)
    expected = fresh_step(state, kind, i, delta)
    first = mw._step("k", state, version, kind, delta)
    assert type(first) is type(expected) and first == expected
    assert mw._step("k", state, version, kind, delta) is first  # served from the memo


@pytest.mark.parametrize("polarity,consuming", [(Polarity.LOWER, "dec"), (Polarity.UPPER, "inc")])
def test_step_returns_local_rights_when_rights_run_out(polarity, consuming):
    lower = polarity is Polarity.LOWER
    state = BoundedCounter.new(polarity, 0, 3, creator=0, initial=4 if lower else -4)
    state = state.transfer(0, 1, 3)
    at1, at2 = middleware(1, 3), middleware(2, 3)
    assert at1._step("k", state, 1, consuming, 5) == 3
    assert at2._step("k", state, 1, consuming, 1) == 0
    consume = state.decrement if lower else state.increment
    assert at1._step("k", state, 1, consuming, 3) == consume(1, 3)
    create = state.increment if lower else state.decrement
    creating = "inc" if lower else "dec"
    assert at2._step("k", state, 1, creating, 7) == create(2, 7)


@pytest.mark.parametrize("first", [2, 10**9])
def test_identity_keys_never_alias(first):
    # each state dies before the next is built, so a memo keyed on the
    # state's identity would see ids come back with other contents; keyed
    # on the version, a step is shared only by reads of that one version
    mw = middleware(0, 2)
    previous = None
    for k in range(300):
        # equal contents recur every four versions, in distinct objects;
        # every fifth holds no rights, so its step is the rights it holds
        rights = {} if k % 5 == 0 else {(0, 0): 1 + k % 4}
        state = BoundedCounter(Polarity.LOWER, 0, 2, rights, {})
        version = first + k
        expected = fresh_step(state, "dec", 0, 1)
        out = mw._step("k", state, version, "dec", 1)
        assert type(out) is type(expected) and out == expected
        assert mw._step("k", state, version, "dec", 1) is out
        if previous is not None:  # a stale read gets its own version's step
            stale_state, stale_version = previous
            stale = mw._step("k", stale_state, stale_version, "dec", 1)
            assert stale == fresh_step(stale_state, "dec", 0, 1)
            assert mw._step("k", state, version, "dec", 1) is out
        assert list(mw._steps) == ["k"] and mw._steps["k"][0] == version
        previous = (state, version)
        del state, out, expected


def test_a_stale_read_is_stepped_fresh_and_keeps_the_newest_entry():
    # a client that read version 1 steps after one that read version 2; a
    # memo keyed on the key alone would hand it version 2's result
    old = BoundedCounter.new(Polarity.LOWER, 0, 2, 0, 5)
    new = old.decrement(0, 1)
    mw = middleware(0, 2)
    newest = mw._step("k", new, 2, "dec", 1)
    assert newest.value() == 3
    stale = mw._step("k", old, 1, "dec", 1)
    assert stale == old.decrement(0, 1) and stale.value() == 4
    assert mw._step("k", old, 1, "dec", 1) is not stale  # not kept
    assert mw._step("k", new, 2, "dec", 1) is newest
    # a newer version replaces the entry; other keys keep their own
    other = mw._step("j", old, 1, "dec", 1)
    newer = mw._step("k", newest, 3, "dec", 1)
    assert newer.value() == 2
    assert list(mw._steps) == ["k", "j"]
    assert mw._steps["k"][0] == 3 and mw._step("j", old, 1, "dec", 1) is other


def tiny(strategy):
    return SimConfig(
        strategy=strategy,
        clients_per_dc=5,
        duration_ms=1_500.0,
        think_ms=20.0,
        inc_fraction=0.2,
        counters=[
            CounterSpec("k", bound=0, initial=60),
            CounterSpec("u", bound=40, initial=10, polarity="upper"),
        ],
        seed=3,
    )


@pytest.mark.parametrize("strategy", [Strategy.BCCLT, Strategy.BCSRV])
def test_no_middleware_path_mutates_a_shared_state(strategy, monkeypatch):
    written, stepped = [], []
    seed, put_conditional = DCStore.seed, DCStore.put_conditional
    step = ClientMiddleware._step

    def recorded_seed(self, key, data, mode):
        written.append((data, data.encode()))
        seed(self, key, data, mode)

    def recorded_put_conditional(self, key, data, expected):
        written.append((data, data.encode()))
        return put_conditional(self, key, data, expected)

    def recorded_step(self, key, state, version, kind, delta):
        out = step(self, key, state, version, kind, delta)
        stepped.append((state, kind, self.dc, delta, out))
        return out

    monkeypatch.setattr(DCStore, "seed", recorded_seed)
    monkeypatch.setattr(DCStore, "put_conditional", recorded_put_conditional)
    monkeypatch.setattr(ClientMiddleware, "_step", recorded_step)
    run = Run(tiny(strategy))
    _, report = run.execute()
    assert report.converged and report.violations == 0
    assert len(written) > 100
    for state, blob in written:
        assert type(state) is BoundedCounter and state.encode() == blob
    # only the client middleware steps states; every result it handed out,
    # memoized or not, still equals a fresh step of the state it was read from
    assert bool(stepped) == (strategy is Strategy.BCCLT)
    for state, kind, i, delta, out in stepped:
        assert out == fresh_step(state, kind, i, delta)


@pytest.mark.parametrize(
    "strategy", [Strategy.BCCLT, Strategy.BCSRV, Strategy.BCSRV_NOBATCH]
)
def test_simulated_path_never_runs_the_codec(strategy, monkeypatch):
    def codec(*args):
        raise AssertionError("a simulated run encoded or decoded a counter")

    monkeypatch.setattr(BoundedCounter, "encode", codec)
    monkeypatch.setattr(BoundedCounter, "decode", codec)
    assert digest(single_counter(strategy)) == GOLDEN[("single-counter", strategy)][0]


# only the client middleware steps through the memo; violation-count runs it
# down to the bound, so the bypassed answers include rights held
@pytest.mark.parametrize(
    "name", ["single-counter", "violation-count"], ids=lambda n: f"{n}-bcclt"
)
def test_bypassing_the_memo_leaves_the_golden_csv_unchanged(name, monkeypatch):
    def unmemoized(self, key, state, version, kind, delta):
        return fresh_step(state, kind, self.dc, delta)

    monkeypatch.setattr(ClientMiddleware, "_step", unmemoized)
    assert digest(CONFIGS[name](Strategy.BCCLT)) == GOLDEN[(name, Strategy.BCCLT)][0]
