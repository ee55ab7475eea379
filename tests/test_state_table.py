"""The per-run state table: memoized decode and update steps over canonical
bytes, shared decoded states that nothing mutates, and wholesale clearing
that never changes a run's output."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter import crdt
from bcounter.crdt import BoundedCounter, NotEnoughRights, Polarity, StateTable
from bcounter.sim.config import CounterSpec, SimConfig, Strategy
from bcounter.sim.harness import Run

from test_crdt import random_counter
from test_golden import GOLDEN, digest, single_counter


def fresh_step(blob, kind, i, delta):
    state = BoundedCounter.decode(blob)
    try:
        nxt = state.increment(i, delta) if kind == "inc" else state.decrement(i, delta)
    except NotEnoughRights:
        return state.local_rights(i)
    return nxt.encode()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    polarity=st.sampled_from(Polarity),
    kind=st.sampled_from(["inc", "dec"]),
    delta=st.integers(1, 12),
    data=st.data(),
)
def test_step_matches_a_fresh_decode_update_encode(seed, polarity, kind, delta, data):
    blob = random_counter(random.Random(seed), polarity).encode()
    i = data.draw(st.integers(0, BoundedCounter.decode(blob).n - 1))
    table = StateTable()
    expected = fresh_step(blob, kind, i, delta)
    first = table.step(blob, kind, i, delta)
    assert type(first) is type(expected) and first == expected
    assert table.step(blob, kind, i, delta) == expected  # served from the memo


@pytest.mark.parametrize("polarity,consuming", [(Polarity.LOWER, "dec"), (Polarity.UPPER, "inc")])
def test_step_returns_local_rights_when_rights_run_out(polarity, consuming):
    lower = polarity is Polarity.LOWER
    state = BoundedCounter.new(polarity, 0, 3, creator=0, initial=4 if lower else -4)
    state = state.transfer(0, 1, 3)
    blob = state.encode()
    table = StateTable()
    assert table.step(blob, consuming, 1, 5) == 3
    assert table.step(blob, consuming, 2, 1) == 0
    consume = state.decrement if lower else state.increment
    assert table.step(blob, consuming, 1, 3) == consume(1, 3).encode()
    create = state.increment if lower else state.decrement
    creating = "inc" if lower else "dec"
    assert table.step(blob, creating, 2, 7) == create(2, 7).encode()


def test_decode_shares_one_state_per_blob_and_clears_at_the_limit(monkeypatch):
    monkeypatch.setattr(crdt, "TABLE_LIMIT", 2)
    table = StateTable()
    blobs = [BoundedCounter.new(Polarity.LOWER, 0, 2, 0, k).encode() for k in range(5)]
    first = table.decode(blobs[0])
    assert table.decode(blobs[0]) is first
    for blob in blobs:
        assert table.decode(blob).encode() == blob
        assert len(table._states) <= 2
        assert table.step(blob, "dec", 0, 1) == fresh_step(blob, "dec", 0, 1)
        assert len(table._steps) <= 2
    assert table.decode(blobs[0]) == first  # recomputed after a clear, equal


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
    # no clearing, so every state the run ever shared is still in the table
    monkeypatch.setattr(crdt, "TABLE_LIMIT", 10**9)
    run = Run(tiny(strategy))
    _, report = run.execute()
    assert report.converged and report.violations == 0
    table = run.driver.table
    assert table._states
    assert table._steps or strategy is Strategy.BCSRV  # only clients step blobs
    for blob, state in table._states.items():
        assert state.encode() == blob
    for (blob, kind, i, delta), out in table._steps.items():
        assert out == fresh_step(blob, kind, i, delta)


@pytest.mark.parametrize("strategy", [Strategy.BCCLT, Strategy.BCSRV])
def test_clearing_the_table_leaves_the_golden_csv_unchanged(strategy, monkeypatch):
    monkeypatch.setattr(crdt, "TABLE_LIMIT", 2)
    assert digest(single_counter(strategy)) == GOLDEN[("single-counter", strategy)]
