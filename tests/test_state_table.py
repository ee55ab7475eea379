"""Bounded counters stored as they are: the client middleware's step memo
keyed on the stored state's identity, stored states that nothing mutates, a
simulated path that never runs the codec, and wholesale clearing that never
changes a run's output."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter import crdt
from bcounter.crdt import BoundedCounter, NotEnoughRights, Polarity, StateTable
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
    table = StateTable()
    expected = fresh_step(state, kind, i, delta)
    first = table.step(state, kind, i, delta)
    assert type(first) is type(expected) and first == expected
    assert table.step(state, kind, i, delta) is first  # served from the memo


@pytest.mark.parametrize("polarity,consuming", [(Polarity.LOWER, "dec"), (Polarity.UPPER, "inc")])
def test_step_returns_local_rights_when_rights_run_out(polarity, consuming):
    lower = polarity is Polarity.LOWER
    state = BoundedCounter.new(polarity, 0, 3, creator=0, initial=4 if lower else -4)
    state = state.transfer(0, 1, 3)
    table = StateTable()
    assert table.step(state, consuming, 1, 5) == 3
    assert table.step(state, consuming, 2, 1) == 0
    consume = state.decrement if lower else state.increment
    assert table.step(state, consuming, 1, 3) == consume(1, 3)
    create = state.increment if lower else state.decrement
    creating = "inc" if lower else "dec"
    assert table.step(state, creating, 2, 7) == create(2, 7)


@pytest.mark.parametrize("limit", [2, 10**9])
def test_identity_keys_never_alias(limit, monkeypatch):
    # each state dies before the next is built, so a memo that did not hold
    # its key states would see their ids come back with other contents
    monkeypatch.setattr(crdt, "TABLE_LIMIT", limit)
    table = StateTable()
    for k in range(300):
        # equal contents recur every four states, in distinct objects; every
        # fifth holds no rights, so its step is the rights it holds
        rights = {} if k % 5 == 0 else {(0, 0): 1 + k % 4}
        state = BoundedCounter(Polarity.LOWER, 0, 2, rights, {})
        expected = fresh_step(state, "dec", 0, 1)
        out = table.step(state, "dec", 0, 1)
        assert type(out) is type(expected) and out == expected
        assert table.step(state, "dec", 0, 1) is out
        assert len(table._steps) <= limit
        del state, out, expected


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
    # no clearing, so every state the run ever stepped is still in the table
    monkeypatch.setattr(crdt, "TABLE_LIMIT", 10**9)
    written = []
    seed, put_conditional = DCStore.seed, DCStore.put_conditional

    def recorded_seed(self, key, data, mode):
        written.append((data, data.encode()))
        seed(self, key, data, mode)

    def recorded_put_conditional(self, key, data, expected):
        written.append((data, data.encode()))
        return put_conditional(self, key, data, expected)

    monkeypatch.setattr(DCStore, "seed", recorded_seed)
    monkeypatch.setattr(DCStore, "put_conditional", recorded_put_conditional)
    run = Run(tiny(strategy))
    _, report = run.execute()
    assert report.converged and report.violations == 0
    assert len(written) > 100
    for state, blob in written:
        assert type(state) is BoundedCounter and state.encode() == blob
    if strategy is Strategy.BCCLT:  # only the client middleware steps states
        steps = run.driver.table._steps
        assert steps
        for (key, kind, i, delta), (state, out) in steps.items():
            assert key == id(state)
            assert out == fresh_step(state, kind, i, delta)


@pytest.mark.parametrize(
    "strategy", [Strategy.BCCLT, Strategy.BCSRV, Strategy.BCSRV_NOBATCH]
)
def test_simulated_path_never_runs_the_codec(strategy, monkeypatch):
    def codec(*args):
        raise AssertionError("a simulated run encoded or decoded a counter")

    monkeypatch.setattr(BoundedCounter, "encode", codec)
    monkeypatch.setattr(BoundedCounter, "decode", codec)
    assert digest(single_counter(strategy)) == GOLDEN[("single-counter", strategy)]


# only the client middleware steps through the table; violation-count runs
# it down to the bound, so what is cleared includes rights-held answers
@pytest.mark.parametrize(
    "name", ["single-counter", "violation-count"], ids=lambda n: f"{n}-bcclt"
)
def test_clearing_the_table_leaves_the_golden_csv_unchanged(name, monkeypatch):
    monkeypatch.setattr(crdt, "TABLE_LIMIT", 2)
    assert digest(CONFIGS[name](Strategy.BCCLT)) == GOLDEN[(name, Strategy.BCCLT)]
