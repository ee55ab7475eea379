"""Counter semantics: frozen examples, a reference oracle, and lattice laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter import (
    BoundedCounter,
    IncompatibleCounters,
    InvalidBound,
    InvalidReplica,
    NonPositiveDelta,
    NotEnoughRights,
    Overflow,
    Polarity,
    SelfTransfer,
)
from bcounter.checker import _within_bound
from bcounter.sim.metrics import _Observer
from bcounter.sim.strategies import _would_violate

INT64_MAX = 2**63 - 1


class DenseCounter:
    """Reference implementation over a dense n x n matrix and a dense vector.

    Deliberately naive: direct transcription of the definitions, no sparse
    bookkeeping, mutation in place. Used only as an oracle.
    """

    def __init__(self, polarity, bound, n):
        self.polarity = polarity
        self.bound = bound
        self.n = n
        self.r = [[0] * n for _ in range(n)]
        self.u = [0] * n

    def value(self):
        created = sum(self.r[i][i] for i in range(self.n))
        consumed = sum(self.u)
        if self.polarity is Polarity.LOWER:
            return self.bound + created - consumed
        return self.bound - created + consumed

    def local_rights(self, i):
        incoming = sum(self.r[j][i] for j in range(self.n) if j != i)
        outgoing = sum(self.r[i][j] for j in range(self.n) if j != i)
        return self.r[i][i] + incoming - outgoing - self.u[i]

    def create(self, i, d):
        self.r[i][i] += d

    def consume(self, i, d):
        assert self.local_rights(i) >= d
        self.u[i] += d

    def transfer(self, src, dst, d):
        assert self.local_rights(src) >= d
        self.r[src][dst] += d

    def merge(self, other):
        for i in range(self.n):
            for j in range(self.n):
                self.r[i][j] = max(self.r[i][j], other.r[i][j])
            self.u[i] = max(self.u[i], other.u[i])

    def assert_matches(self, c: BoundedCounter):
        assert c.value() == self.value()
        for i in range(self.n):
            assert c.local_rights(i) == self.local_rights(i), f"replica {i}"


def worked_example():
    """Lower bound 10, three replicas, hand-checked rights layout."""
    return BoundedCounter(
        polarity=Polarity.LOWER,
        bound=10,
        n=3,
        rights={(0, 0): 30, (0, 1): 10, (0, 2): 10, (1, 1): 1},
        used={0: 5, 1: 4, 2: 2},
    )


class TestWorkedExample:
    def test_value(self):
        assert worked_example().value() == 30

    def test_local_rights(self):
        c = worked_example()
        assert c.local_rights(0) == 5
        assert c.local_rights(1) == 7
        assert c.local_rights(2) == 8

    def test_decrement_within_rights(self):
        c = worked_example().decrement(0, 5)
        assert c.value() == 25
        assert c.local_rights(0) == 0

    def test_decrement_beyond_rights(self):
        with pytest.raises(NotEnoughRights) as e:
            worked_example().decrement(0, 6)
        assert e.value.available == 5
        assert e.value.requested == 6

    def test_transfer_within_rights(self):
        c = worked_example().transfer(0, 1, 3)
        assert c.local_rights(0) == 2
        assert c.local_rights(1) == 10
        assert c.value() == 30  # transfers never move the value

    def test_transfer_beyond_rights(self):
        with pytest.raises(NotEnoughRights):
            worked_example().transfer(0, 1, 6)

    def test_rights_partition_the_slack(self):
        c = worked_example()
        assert sum(c.local_rights(i) for i in range(3)) == c.value() - c.bound


class TestConstruction:
    def test_starts_at_bound(self):
        c = BoundedCounter.new(Polarity.LOWER, 7, 3, creator=0)
        assert c.value() == 7
        assert all(c.local_rights(i) == 0 for i in range(3))

    def test_initial_above_lower_bound(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 4, creator=2, initial=100)
        assert c.value() == 100
        assert c.local_rights(2) == 100
        assert c.local_rights(0) == 0

    def test_initial_below_upper_bound(self):
        c = BoundedCounter.new(Polarity.UPPER, 50, 2, creator=1, initial=10)
        assert c.value() == 10
        assert c.local_rights(1) == 40

    def test_initial_on_wrong_side(self):
        with pytest.raises(InvalidBound):
            BoundedCounter.new(Polarity.LOWER, 10, 2, creator=0, initial=9)
        with pytest.raises(InvalidBound):
            BoundedCounter.new(Polarity.UPPER, 10, 2, creator=0, initial=11)

    def test_negative_bound(self):
        c = BoundedCounter.new(Polarity.LOWER, -5, 2, creator=0, initial=0)
        assert c.value() == 0
        assert c.local_rights(0) == 5

    def test_bad_creator(self):
        with pytest.raises(InvalidReplica):
            BoundedCounter.new(Polarity.LOWER, 0, 3, creator=3)
        with pytest.raises(InvalidReplica):
            BoundedCounter.new(Polarity.LOWER, 0, 3, creator=-1)

    def test_empty_replica_set(self):
        with pytest.raises(InvalidReplica):
            BoundedCounter.new(Polarity.LOWER, 0, 0, creator=0)


class TestUpdates:
    def test_increment_is_free_under_lower_bound(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0)
        c = c.increment(1, 10**6)
        assert c.value() == 10**6
        assert c.local_rights(1) == 10**6

    def test_decrement_is_free_under_upper_bound(self):
        c = BoundedCounter.new(Polarity.UPPER, 0, 2, creator=0)
        c = c.decrement(1, 9)
        assert c.value() == -9
        assert c.local_rights(1) == 9

    def test_upper_increment_consumes(self):
        c = BoundedCounter.new(Polarity.UPPER, 10, 2, creator=0, initial=0)
        c = c.increment(0, 10)
        assert c.value() == 10
        with pytest.raises(NotEnoughRights):
            c.increment(0, 1)

    def test_consume_all_then_fail(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 1, creator=0, initial=3)
        c = c.decrement(0, 3)
        assert c.value() == 0
        with pytest.raises(NotEnoughRights) as e:
            c.decrement(0, 1)
        assert e.value.available == 0

    def test_rights_are_per_replica(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=5)
        # replica 1 sees value 5 but holds nothing
        with pytest.raises(NotEnoughRights):
            c.decrement(1, 1)

    def test_non_positive_delta(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=5)
        for bad in (0, -1):
            with pytest.raises(NonPositiveDelta):
                c.increment(0, bad)
            with pytest.raises(NonPositiveDelta):
                c.decrement(0, bad)
            with pytest.raises(NonPositiveDelta):
                c.transfer(0, 1, bad)

    def test_self_transfer(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=5)
        with pytest.raises(SelfTransfer):
            c.transfer(0, 0, 1)

    def test_replica_out_of_range(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=5)
        with pytest.raises(InvalidReplica):
            c.increment(2, 1)
        with pytest.raises(InvalidReplica):
            c.transfer(0, 2, 1)

    def test_updates_do_not_mutate(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=5)
        before = c.encode()
        c.decrement(0, 2)
        c.transfer(0, 1, 1)
        assert c.encode() == before

    def test_transferred_rights_usable_after_merge(self):
        a = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=4)
        a = a.transfer(0, 1, 3)
        b = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=4).merge(a)
        assert b.local_rights(1) == 3
        assert b.decrement(1, 3).value() == 1


class TestMergeSemantics:
    def test_concurrent_consumption_both_count(self):
        base = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=10)
        base = base.transfer(0, 1, 4)
        a = base.decrement(0, 6)
        b = base.decrement(1, 4)
        m = a.merge(b)
        assert m.value() == 0
        assert m.local_rights(0) == 0
        assert m.local_rights(1) == 0

    def test_merge_is_not_additive(self):
        # the same decrement seen via two paths counts once
        base = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=10)
        a = base.decrement(0, 3)
        m = a.merge(a).merge(base)
        assert m.value() == 7

    def test_incompatible_counters(self):
        a = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0)
        for b in (
            BoundedCounter.new(Polarity.UPPER, 0, 2, creator=0),
            BoundedCounter.new(Polarity.LOWER, 1, 2, creator=0),
            BoundedCounter.new(Polarity.LOWER, 0, 3, creator=0),
        ):
            with pytest.raises(IncompatibleCounters):
                a.merge(b)
            with pytest.raises(IncompatibleCounters):
                a.leq(b)

    def test_leq_matches_merge(self):
        base = BoundedCounter.new(Polarity.LOWER, 0, 3, creator=0, initial=8)
        a = base.decrement(0, 2)
        b = base.transfer(0, 2, 3)
        assert base.leq(a) and not a.leq(base)
        assert not a.leq(b) and not b.leq(a)
        m = a.merge(b)
        assert a.leq(m) and b.leq(m)


def random_counter(rng: random.Random, polarity=None) -> BoundedCounter:
    """Counter reached by a random valid update sequence."""
    if polarity is None:
        polarity = rng.choice([Polarity.LOWER, Polarity.UPPER])
    n = rng.randint(1, 5)
    bound = rng.randint(-50, 50)
    c = BoundedCounter.new(polarity, bound, n, creator=rng.randrange(n))
    for _ in range(rng.randint(0, 12)):
        i = rng.randrange(n)
        d = rng.randint(1, 9)
        kind = rng.random()
        try:
            if kind < 0.45:
                c = c.increment(i, d)
            elif kind < 0.9:
                c = c.decrement(i, d)
            elif n > 1:
                j = rng.choice([x for x in range(n) if x != i])
                c = c.transfer(i, j, d)
        except NotEnoughRights:
            pass
    return c


class TestLatticeLaws:
    """Merge must be a join: idempotent, commutative, associative, inflationary."""

    def test_random_triples(self):
        rng = random.Random(0xB0C5)
        checked = 0
        while checked < 10_000:
            pol = rng.choice([Polarity.LOWER, Polarity.UPPER])
            n = rng.randint(1, 5)
            bound = rng.randint(-50, 50)
            seed_counter = BoundedCounter.new(pol, bound, n, creator=rng.randrange(n))

            def mutate(c, steps):
                for _ in range(steps):
                    i = rng.randrange(n)
                    d = rng.randint(1, 9)
                    try:
                        k = rng.random()
                        if k < 0.45:
                            c = c.increment(i, d)
                        elif k < 0.9:
                            c = c.decrement(i, d)
                        elif n > 1:
                            j = rng.choice([x for x in range(n) if x != i])
                            c = c.transfer(i, j, d)
                    except NotEnoughRights:
                        pass
                return c

            a = mutate(seed_counter, rng.randint(0, 8))
            b = mutate(rng.choice([seed_counter, a]), rng.randint(0, 8))
            c = mutate(rng.choice([seed_counter, a, b]), rng.randint(0, 8))

            assert a.merge(a) == a
            assert a.merge(b) == b.merge(a)
            assert a.merge(b).merge(c) == a.merge(b.merge(c))
            m = a.merge(b)
            assert a.leq(m) and b.leq(m)
            # least upper bound: any common upper bound dominates the merge
            ub = m.merge(c)
            assert m.leq(ub)
            checked += 1
        assert checked == 10_000

    def test_bound_holds_at_every_view(self):
        rng = random.Random(77)
        for _ in range(500):
            c = random_counter(rng)
            if c.polarity is Polarity.LOWER:
                assert c.value() >= c.bound
            else:
                assert c.value() <= c.bound


class TestAgainstDenseReference:
    def test_random_histories_match(self):
        rng = random.Random(2024)
        for _ in range(300):
            pol = rng.choice([Polarity.LOWER, Polarity.UPPER])
            n = rng.randint(1, 4)
            bound = rng.randint(-20, 20)
            sparse = [BoundedCounter.new(pol, bound, n, creator=0) for _ in range(n)]
            dense = [DenseCounter(pol, bound, n) for _ in range(n)]

            for _ in range(40):
                i = rng.randrange(n)
                op = rng.random()
                if op < 0.35:
                    d = rng.randint(1, 6)
                    if pol is Polarity.LOWER:
                        sparse[i] = sparse[i].increment(i, d)
                    else:
                        sparse[i] = sparse[i].decrement(i, d)
                    dense[i].create(i, d)
                elif op < 0.65:
                    d = rng.randint(1, 6)
                    if sparse[i].local_rights(i) >= d:
                        if pol is Polarity.LOWER:
                            sparse[i] = sparse[i].decrement(i, d)
                        else:
                            sparse[i] = sparse[i].increment(i, d)
                        dense[i].consume(i, d)
                elif op < 0.8 and n > 1:
                    j = rng.choice([x for x in range(n) if x != i])
                    d = rng.randint(1, 6)
                    if sparse[i].local_rights(i) >= d:
                        sparse[i] = sparse[i].transfer(i, j, d)
                        dense[i].transfer(i, j, d)
                else:
                    j = rng.randrange(n)
                    sparse[i] = sparse[i].merge(sparse[j])
                    dense[i].merge(dense[j])
                dense[i].assert_matches(sparse[i])

            # full convergence
            for i in range(1, n):
                sparse[0] = sparse[0].merge(sparse[i])
                dense[0].merge(dense[i])
            dense[0].assert_matches(sparse[0])
            slack = sum(sparse[0].local_rights(i) for i in range(n))
            assert slack == abs(sparse[0].value() - bound)


class TestOverflow:
    def test_rights_accumulation_overflow(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 1, creator=0, initial=INT64_MAX)
        with pytest.raises(Overflow):
            c.increment(0, 1)

    def test_value_overflow_across_replicas(self):
        c = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=INT64_MAX)
        with pytest.raises(Overflow):
            c.increment(1, 1)

    def test_bound_out_of_range(self):
        with pytest.raises(Overflow):
            BoundedCounter.new(Polarity.LOWER, INT64_MAX + 1, 1, creator=0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merge_never_lowers_local_rights_of_others(data):
    """Merging in remote knowledge never inflates my own rights estimate."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    a = random_counter(rng, Polarity.LOWER)
    b = a
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(b.n)
        try:
            b = b.decrement(i, 1) if rng.random() < 0.5 else b.increment(i, 1)
        except NotEnoughRights:
            pass
    m = a.merge(b)
    for i in range(a.n):
        # my own estimate is conservative: the join can only reveal more
        # consumption by others, never take away what I already counted
        assert m.local_rights(i) <= max(a.local_rights(i), b.local_rights(i))


# -- the one bound rule --------------------------------------------------------
#
# ``Polarity.slack`` decides the side of the bound for the model checker, the
# weak and strong baselines' bound check and the simulator's observer; each
# used to carry a formula of its own per polarity. Those formulas are the
# oracle here, copied as they were.


def old_within_bound(polarity, value, bound):
    if polarity is Polarity.LOWER:
        return value >= bound
    return value <= bound


def old_would_violate(polarity, bound, value, kind, delta):
    if polarity is Polarity.LOWER:
        return kind == "dec" and value - delta < bound
    return kind == "inc" and value + delta > bound


def old_observer_slack(polarity, bound, value):
    if polarity is Polarity.LOWER:
        return max(0, value - bound)
    return max(0, bound - value)


def old_observer_apply(polarity, bound, before, kind, delta):
    after = before + delta if kind == "inc" else before - delta
    if polarity is Polarity.LOWER:
        return max(0, bound - after) - max(0, bound - before)
    return max(0, after - bound) - max(0, before - bound)


def counter_at(polarity, bound, value):
    """A one-replica counter whose value is ``value``, past the bound or not."""
    slack = polarity.slack(value, bound)
    rights = {(0, 0): slack} if slack > 0 else {}
    used = {0: -slack} if slack < 0 else {}
    return BoundedCounter(polarity, bound, 1, rights, used)


SMALL = st.integers(-30, 30)
OPS = st.lists(st.tuples(st.sampled_from(["inc", "dec"]), st.integers(1, 3)), max_size=20)


@settings(max_examples=300, deadline=None)
@given(polarity=st.sampled_from(Polarity), bound=SMALL, value=SMALL, ops=OPS)
def test_every_bound_check_is_the_old_formula(polarity, bound, value, ops):
    state = counter_at(polarity, bound, value)
    assert state.value() == value
    assert _within_bound(state) is old_within_bound(polarity, value, bound)
    obs = _Observer(polarity, bound, value)
    assert obs.slack() == old_observer_slack(polarity, bound, value)
    for kind, delta in ops:
        assert _would_violate(polarity, bound, obs.value, kind, delta) is old_would_violate(
            polarity, bound, obs.value, kind, delta
        )
        expected = old_observer_apply(polarity, bound, obs.value, kind, delta)
        assert obs.apply(kind, delta) == expected
        assert obs.slack() == old_observer_slack(polarity, bound, obs.value)
        state = counter_at(polarity, bound, obs.value)
        assert _within_bound(state) is old_within_bound(polarity, obs.value, bound)
