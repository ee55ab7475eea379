"""Exhaustive-exploration tests: verified instances, fault injection, replay.

The small instances here have independently countable state spaces; the
frozen counts act as regression oracles for the Pareto pruning.
``reference_explore`` keeps the explorer without view interning as a
differential oracle.
"""

import dataclasses
import itertools
import json
import re
import time
from collections import deque
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter import checker
from bcounter.checker import (
    BudgetTooLarge,
    Counterexample,
    ExploreSpec,
    InvalidStep,
    Trace,
    Verified,
    _CODECS,
    _W,
    _budget_packing,
    _dominates,
    _initial_budget,
    _moves,
    _pack,
    _permute,
    _permute_budget,
    _unpack,
    _within_bound,
    apply_action,
    check_invariants,
    explore,
    initial_world,
    replay,
    symmetries,
    world_hash,
)
from bcounter.crdt import BoundedCounter, NotEnoughRights, Polarity


def test_single_replica_no_actions_is_trivially_verified():
    result = explore(ExploreSpec(n=1, initial=3))
    assert isinstance(result, Verified)
    assert result.states == 1
    assert result.transitions == 0
    assert result.probe.steps == ()


def test_single_replica_cannot_overdraw():
    # 5 decrements against initial 3: exactly 3 succeed, never below bound
    result = explore(ExploreSpec(n=1, initial=3, decs=5))
    assert isinstance(result, Verified)
    # states: initial plus one per successful decrement
    assert result.states == 4


def test_frozen_two_replica_instance():
    # n=2, initial 2, two decs each, one transfer each, four merges.
    # Count frozen after manual inspection of the reachable lattice.
    result = explore(
        ExploreSpec(n=2, initial=2, decs=2, transfers=1, max_merges=4)
    )
    assert isinstance(result, Verified)
    assert result.states == 27
    assert result.transitions == 39


def test_upper_bound_polarity_symmetric():
    result = explore(
        ExploreSpec(
            n=2, polarity=Polarity.UPPER, bound=10, initial=8, incs=2, transfers=1
        )
    )
    assert isinstance(result, Verified)
    # incs against an upper bound mirror decs against a lower one
    mirror = explore(ExploreSpec(n=2, initial=2, decs=2, transfers=1))
    assert result.states == mirror.states


def test_unchecked_decrement_violates_and_replays():
    spec = ExploreSpec(n=2, initial=2, decs=2, transfers=1, unchecked_decrement=True)
    result = explore(spec)
    assert isinstance(result, Counterexample)
    assert result.trace.steps  # a real schedule, not the initial world
    world = replay(result.trace)
    assert world_hash(world) == result.trace.state_hash
    assert check_invariants(world) == result.invariant


def test_counterexample_is_minimal_length():
    # BFS explores breadth-first, so the first violation found is shortest.
    # With budget dec=2 per replica on initial 2, the mutant needs every
    # right spent plus one unchecked dec: but any single unchecked dec
    # already makes that replica's own rights negative once rights run out.
    spec = ExploreSpec(n=2, initial=2, decs=3, unchecked_decrement=True)
    result = explore(spec)
    assert isinstance(result, Counterexample)
    shortest = len(result.trace.steps)
    # no schedule of fewer steps violates: replay every shorter prefix
    for k in range(shortest):
        prefix = Trace(spec, result.trace.steps[:k], "")
        world = initial_world(spec)
        for action in prefix.steps:
            world = apply_action(world, action, spec)
            assert world is not None
        assert check_invariants(world) is None


def test_probe_trace_roundtrips_and_replays():
    result = explore(ExploreSpec(n=2, initial=2, decs=2, transfers=1))
    assert isinstance(result, Verified)
    text = result.probe.to_json()
    back = Trace.from_json(text)
    assert back == result.probe
    world = replay(back)
    assert world_hash(world) == back.state_hash


def test_replay_rejects_illegal_step():
    result = explore(ExploreSpec(n=2, initial=2, decs=1))
    probe = result.probe
    # splice in a decrement by a replica index that does not exist
    bad = Trace(probe.spec, (("dec", 5, 1),) + probe.steps, probe.state_hash)
    with pytest.raises(InvalidStep):
        replay(bad)


def test_replay_rejects_overdrawn_budget():
    spec = ExploreSpec(n=1, initial=5, decs=1)
    bad = Trace(spec, (("dec", 0, 1), ("dec", 0, 1)), "")
    with pytest.raises(InvalidStep):
        replay(bad)


def test_trace_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        Trace.from_json("{}")
    with pytest.raises((ValueError, KeyError)):
        Trace.from_json(json.dumps({"spec": {"polarity": "sideways"}, "steps": []}))


_SPEC_FIELDS = pytest.mark.parametrize(
    "field", dataclasses.fields(ExploreSpec), ids=lambda f: f.name
)

# per annotation, a value other than the given default
_OTHER_VALUE = {
    "int": lambda d: d + 7,
    "int | None": lambda d: 7,
    "bool": lambda d: not d,
    "Polarity": lambda d: Polarity.UPPER if d is Polarity.LOWER else Polarity.LOWER,
    "tuple[int, ...]": lambda d: d + (2, 3),
}

# per annotation, JSON values the field must refuse, near misses included
_WRONG_JSON = {
    "int": ["3", True, 3.0],
    "int | None": [1.0, False],
    "bool": [1, "true", None],
    "Polarity": ["LOWER", None],
    "tuple[int, ...]": [[1, True], 1, [1.0]],
}


@_SPEC_FIELDS
def test_every_spec_field_has_a_codec(field):
    assert field.type in _CODECS
    assert field.type in _OTHER_VALUE and field.type in _WRONG_JSON


@_SPEC_FIELDS
def test_each_spec_field_roundtrips_through_json(field):
    value = _OTHER_VALUE[field.type](field.default)
    assert value != field.default
    spec = dataclasses.replace(ExploreSpec(), **{field.name: value})
    trace = Trace(spec, (("merge", 0, 1),), "h")
    back = Trace.from_json(trace.to_json())
    assert back == trace
    assert getattr(back.spec, field.name) == value


@_SPEC_FIELDS
def test_wrong_json_type_names_the_field(field):
    for wrong in _WRONG_JSON[field.type]:
        doc = json.loads(Trace(ExploreSpec(), (), "h").to_json())
        doc["spec"][field.name] = wrong
        with pytest.raises(ValueError, match=f"spec {field.name} cannot be"):
            Trace.from_json(json.dumps(doc))


def test_trace_in_the_old_key_order_still_loads_and_replays():
    spec = ExploreSpec(n=2, polarity=Polarity.UPPER, bound=6, initial=3, incs=1, transfers=1,
                       max_depth=4, deltas=(1, 2))
    probe = explore(spec).probe
    assert probe.steps
    written = json.loads(probe.to_json())["spec"]
    assert list(written) == [f.name for f in dataclasses.fields(ExploreSpec)]
    old_order = ("n", "bound", "initial", "incs", "decs", "transfers", "max_merges",
                 "max_updates", "max_depth", "unchecked_decrement", "max_states", "polarity",
                 "deltas", "transfer_amounts")
    doc = {
        "spec": {k: written[k] for k in old_order},
        "steps": [list(s) for s in probe.steps],
        "state_hash": probe.state_hash,
    }
    back = Trace.from_json(json.dumps(doc, indent=2))
    assert back == probe
    assert world_hash(replay(back)) == probe.state_hash


def test_max_states_raises():
    with pytest.raises(BudgetTooLarge):
        explore(ExploreSpec(n=3, initial=50, decs=6, transfers=3, max_states=100))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExploreSpec(n=0).validate()
    with pytest.raises(ValueError):
        ExploreSpec(decs=-1).validate()
    with pytest.raises(ValueError):
        ExploreSpec(deltas=()).validate()
    ExploreSpec(max_updates=0, max_depth=0, max_states=1).validate()


@pytest.mark.parametrize(
    "bad", [{"max_updates": -1}, {"max_depth": -1}, {"max_states": 0}]
)
def test_spec_validation_rejects_vacuous_caps(bad):
    # a negative cap would explore nothing and report a vacuous Verified
    spec = ExploreSpec(n=2, initial=2, decs=2, **bad)
    with pytest.raises(ValueError):
        spec.validate()
    with pytest.raises(ValueError):
        explore(spec)


def test_replay_validates_the_trace_spec():
    probe = explore(ExploreSpec(n=2, initial=2, decs=1)).probe
    edited = Trace(dataclasses.replace(probe.spec, max_depth=-1), probe.steps, probe.state_hash)
    with pytest.raises(ValueError):
        replay(edited)


def test_exhaustive_against_brute_force_enumeration():
    # Cross-check the explorer's reachable-value set against a dumb
    # enumerator that tries every interleaving directly (n=2, decs=2,
    # no transfers, merges up to 2). The explorer prunes by budget
    # dominance; the per-replica value sets must still agree.
    spec = ExploreSpec(n=2, initial=2, decs=2, max_merges=2)
    seen_values = set()

    def walk(world, decs_left, merges_left):
        seen_values.add(tuple(s.value() for s in world))
        for i in range(2):
            if decs_left[i]:
                nxt = apply_action(world, ("dec", i, 1), spec)
                if nxt is not None:
                    left = list(decs_left)
                    left[i] -= 1
                    walk(nxt, tuple(left), merges_left)
        if merges_left:
            for i in range(2):
                for j in range(2):
                    if i != j:
                        nxt = apply_action(world, ("merge", i, j), spec)
                        if nxt is not None:
                            walk(nxt, decs_left, merges_left - 1)

    walk(initial_world(spec), (2, 2), 2)
    assert all(v >= 0 for pair in seen_values for v in pair)
    explored_values = set()
    result = reference_explore(
        spec, on_world=lambda world: explored_values.add(tuple(s.value() for s in world))
    )
    assert isinstance(result, Verified)
    assert explored_values == seen_values
    # replaying the probe exercises one full-depth schedule
    world = replay(explore(spec).probe)
    assert tuple(s.value() for s in world) in seen_values


def test_merge_self_is_never_offered():
    spec = ExploreSpec(n=2, initial=2, decs=1)
    world = initial_world(spec)
    assert apply_action(world, ("merge", 0, 0), spec) is None


def test_disabled_decrement_returns_none():
    spec = ExploreSpec(n=2, initial=0, decs=1)
    world = initial_world(spec)
    # no rights anywhere: the gate refuses rather than violating
    assert apply_action(world, ("dec", 0, 1), spec) is None


def test_transfer_moves_rights_between_replicas():
    spec = ExploreSpec(n=2, initial=4, decs=4, transfers=2, transfer_amounts=(2,))
    world = initial_world(spec)
    moved = apply_action(world, ("transfer", 0, 1, 2), spec)
    assert moved is not None
    # grantor recorded the transfer; grantee sees it only after merge
    assert moved[0].local_rights(0) == world[0].local_rights(0) - 2
    merged = apply_action(moved, ("merge", 1, 0), spec)
    assert merged[1].local_rights(1) == world[1].local_rights(1) + 2


def explore_unreduced(spec):
    """The explorer with the identity as its only renaming: every concrete world counts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checker, "symmetries", lambda n: [tuple(range(n))])
        return explore(spec)


def reference_explore(spec, on_world=lambda world: None):
    """The explorer without view interning or symmetry, kept as a differential oracle.

    Worlds are tuples of full views, deduplicated on their joined canonical
    encodings, and every new state is checked with check_invariants.
    ``on_world`` sees the initial world and every world the search admits.
    """
    spec.validate()
    world0 = initial_world(spec)
    on_world(world0)

    def make_trace(steps, world):
        return Trace(spec, tuple(steps), world_hash(world))

    bad = check_invariants(world0)
    if bad is not None:
        return Counterexample(bad, make_trace((), world0), tuple(v.value() for v in world0))

    def world_key(world):
        return b"\x00".join(s.encode() for s in world)

    seen = {}

    def subsumed(key, budget):
        return any(all(o >= b for o, b in zip(old, budget)) for old in seen.get(key, ()))

    def remember(key, budget):
        frontier = seen.setdefault(key, [])
        frontier[:] = [old for old in frontier if not all(b >= o for b, o in zip(budget, old))]
        frontier.append(budget)

    def rebuild(cons):
        steps = []
        while cons is not None:
            action, cons = cons
            steps.append(action)
        return steps[::-1]

    budget0 = _initial_budget(spec)
    remember(world_key(world0), budget0)
    queue = deque([(world0, budget0, None)])
    states, transitions, deepest = 1, 0, None
    depth0 = budget0[3 * spec.n + 2]
    while queue:
        world, budget, cons = queue.popleft()
        for action, nbudget in _moves(spec, budget):
            nxt = apply_action(world, action, spec)
            if nxt is None:
                continue
            transitions += 1
            key = world_key(nxt)
            if subsumed(key, nbudget):
                continue
            remember(key, nbudget)
            on_world(nxt)
            states += 1
            ncons = (action, cons)
            bad = check_invariants(nxt)
            if bad is not None:
                return Counterexample(
                    bad, make_trace(rebuild(ncons), nxt), tuple(v.value() for v in nxt)
                )
            depth_used = depth0 - nbudget[3 * spec.n + 2]
            if deepest is None or depth_used > deepest[0]:
                deepest = (depth_used, ncons, nxt)
            queue.append((nxt, nbudget, ncons))
    if deepest is None:
        return Verified(states, transitions, make_trace((), world0))
    return Verified(states, transitions, make_trace(rebuild(deepest[1]), deepest[2]))


def _differential_grid():
    for n, polarity, unchecked in itertools.product((1, 2, 3), Polarity, (False, True)):
        lower = polarity is Polarity.LOWER
        spec = ExploreSpec(
            n=n,
            polarity=polarity,
            bound=0 if lower else 6,
            initial=3,
            incs=1,
            decs=2 if n == 1 else 1,
            transfers=1 if n > 1 else 0,
            max_merges=3 if n < 3 else 2,
            max_updates=None if n < 3 else 3,
            max_depth=None if n == 1 else 5,
            deltas=(1, 2),
            transfer_amounts=(1, 2),
            unchecked_decrement=unchecked,
        )
        label = f"n{n}-{polarity.value}" + ("-unchecked" if unchecked else "")
        yield pytest.param(spec, id=label)


@pytest.mark.parametrize("spec", _differential_grid())
def test_interned_explore_matches_reference(spec):
    got, want = explore_unreduced(spec), reference_explore(spec)
    assert type(got) is type(want)
    if isinstance(want, Verified):
        assert (got.states, got.transitions) == (want.states, want.transitions)
        assert got.probe == want.probe
    else:
        assert got.invariant == want.invariant
        assert got.trace == want.trace
        assert got.values == want.values


def _verdict(result):
    if isinstance(result, Verified):
        return "verified", result.states, result.transitions, result.probe
    return "counterexample", result.invariant, result.trace, result.values


# The one Verified spec whose worlds keep incomparable budgets: an inc and an
# unchecked dec both spend `used`, so the same world is reached with more incs
# or more decs left. Three of its five worlds end with a frontier of two or
# three budgets, a path that check-n3 never takes.
_MULTI_BUDGET = ExploreSpec(n=1, polarity=Polarity.UPPER, bound=10, initial=0, incs=2, decs=2,
                            max_merges=0, unchecked_decrement=True)
# a 42-bit budget field, wider than the 32 bits of an uncapped depth
_WIDE_BUDGET = ExploreSpec(n=2, initial=3, incs=2**40, decs=1, transfers=1, max_merges=2,
                           max_depth=4)


def _beyond_the_grid():
    for polarity, unchecked in itertools.product(Polarity, (False, True)):
        lower = polarity is Polarity.LOWER
        spec = ExploreSpec(n=4, polarity=polarity, bound=0 if lower else 6, initial=3, incs=1,
                           decs=1, transfers=1, max_merges=3, max_updates=3, max_depth=4,
                           unchecked_decrement=unchecked)
        yield pytest.param(spec, id=f"n4-{polarity.value}" + ("-unchecked" if unchecked else ""))
    yield pytest.param(_MULTI_BUDGET, id="multi-budget")
    yield pytest.param(_WIDE_BUDGET, id="wide-budget")


@pytest.mark.parametrize("spec", _beyond_the_grid())
def test_packed_explore_matches_reference_beyond_the_grid(spec):
    assert _verdict(explore_unreduced(spec)) == _verdict(reference_explore(spec))


def test_multi_and_wide_budget_specs_are_verified():
    assert _verdict(explore(_MULTI_BUDGET))[:3] == ("verified", 9, 12)
    assert _verdict(explore(_WIDE_BUDGET))[:2] == ("verified", 183)


def _budgets(initial):
    """Vectors with each component in [0, initial[k]], its ends drawn often."""
    return st.tuples(
        *(st.one_of(st.just(0), st.just(b), st.integers(0, b)) for b in initial)
    )


_INITIALS = st.lists(
    st.one_of(st.integers(0, 9), st.just(1 << 30), st.just(2**40), st.integers(0, 2**40)),
    min_size=1,
    max_size=15,
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_dominance_is_componentwise_ge(data):
    initial = data.draw(_INITIALS)
    width, guard = _budget_packing(tuple(initial))
    old = data.draw(_budgets(initial))
    new = data.draw(st.one_of(st.just(old), _budgets(initial)))
    packed_old, packed_new = _pack(old, width), _pack(new, width)
    assert _unpack(packed_old, width, len(old)) == old
    assert _dominates(packed_old, packed_new, guard) == all(map(ge, old, new))
    assert _dominates(packed_new, packed_old, guard) == all(map(ge, new, old))


def test_packed_dominance_at_the_field_ends():
    initial = (2**40, 0, 1, 2**40)
    width, guard = _budget_packing(initial)
    assert width == 42
    for old, new, want in [
        ((0, 0, 0, 0), (0, 0, 0, 0), True),
        (initial, initial, True),
        (initial, (0, 0, 0, 0), True),
        ((0, 0, 0, 0), initial, False),
        ((2**40, 0, 0, 0), (0, 0, 0, 2**40), False),
        ((2**40 - 1, 0, 1, 2**40), initial, False),
    ]:
        assert _dominates(_pack(old, width), _pack(new, width), guard) is want


@given(st.lists(st.integers(0, 2**_W - 1), min_size=1, max_size=8))
def test_world_ids_roundtrip_through_the_packing(ids):
    assert _unpack(_pack(ids, _W), _W, len(ids)) == tuple(ids)


_CHECK_N3 = ExploreSpec(n=3, initial=5, incs=1, decs=1, transfers=1, max_merges=5,
                        max_updates=5)


def test_frozen_three_replica_instance():
    # the benchmark's check-n3 spec; counts and probe hash pinned before
    # views were interned
    result = explore_unreduced(_CHECK_N3)
    assert isinstance(result, Verified)
    assert result.states == 68_590
    assert result.transitions == 343_424
    assert result.probe.state_hash == (
        "c3835c7ea053d3a318acba601821ddeed55ac5e357822fbb2467fa97091ec2e8"
    )


def test_frozen_three_replica_instance_up_to_symmetry():
    # one world per orbit of the renaming of replicas 1 and 2: about half the
    # states, and the same deepest schedule as the unreduced search
    result = explore(_CHECK_N3)
    assert isinstance(result, Verified)
    assert (result.states, result.transitions) == (34_385, 172_254)
    assert result.probe.state_hash == (
        "c3835c7ea053d3a318acba601821ddeed55ac5e357822fbb2467fa97091ec2e8"
    )
    assert world_hash(replay(result.probe)) == result.probe.state_hash


def test_frozen_acceptance_instance_without_symmetry():
    # the `bcounter check` run of the acceptance gate (6 merges, 8 updates);
    # the gate itself now prints the reduced counts
    spec = dataclasses.replace(_CHECK_N3, max_merges=6, max_updates=8)
    result = explore_unreduced(spec)
    assert isinstance(result, Verified)
    assert (result.states, result.transitions) == (493_608, 2_953_352)


def test_four_replicas_verify_up_to_symmetry():
    # six renamings at n=4; unreduced, this spec reaches 493,838 states and
    # 1,910,727 transitions
    spec = ExploreSpec(n=4, initial=5, incs=1, decs=1, transfers=1, max_merges=4, max_updates=4)
    result = explore(spec)
    assert isinstance(result, Verified)
    assert (result.states, result.transitions) == (83_589, 325_713)
    assert world_hash(replay(result.probe)) == result.probe.state_hash


def test_five_replicas_verify_up_to_symmetry():
    # 24 renamings at n=5, the largest group the search reduces by
    assert len(symmetries(5)) == 24
    spec = ExploreSpec(n=5, initial=5, incs=1, decs=1, transfers=1, max_merges=2, max_updates=2)
    result, full = explore(spec), explore_unreduced(spec)
    assert isinstance(result, Verified)
    assert (result.states, result.transitions) == (218, 685)
    assert (full.states, full.transitions) == (2_716, 5_924)
    assert world_hash(replay(result.probe)) == result.probe.state_hash


def test_larger_groups_search_unreduced():
    # past five replicas every view would carry (n - 1)! renamed images, so the
    # search keeps the identity alone and a tiny budget stays quick
    assert [len(symmetries(n)) for n in range(1, 11)] == [1, 1, 2, 6, 24, 1, 1, 1, 1, 1]
    spec = ExploreSpec(n=8, initial=5, incs=1, decs=1, transfers=1, max_merges=1, max_updates=1)
    started = time.perf_counter()
    result = explore(spec)
    assert isinstance(result, Verified)
    assert (result.states, result.transitions) == (129, 128)
    assert time.perf_counter() - started < 10.0


_lattice_merge = BoundedCounter.merge


def _merge_summing_used(self, other):
    # double-counts consumption both sides already saw
    used = {k: self.used.get(k, 0) + other.used.get(k, 0) for k in {*self.used, *other.used}}
    return dataclasses.replace(_lattice_merge(self, other), used=used)


def _merge_keeping_own_used(self, other):
    # drops the other side's consumption, so the join depends on fold order
    return dataclasses.replace(_lattice_merge(self, other), used=dict(self.used))


_PLANTED = [
    (_merge_summing_used, 1, "the join of all views breaks the bound"),
    (_merge_summing_used, 2, "replica 0 overestimates its rights"),
    (_merge_keeping_own_used, 2, "join depends on fold order"),
]


def _planted_spec(initial):
    return ExploreSpec(n=3, initial=initial, decs=1, transfers=1, max_merges=3, max_depth=4)


@pytest.mark.parametrize("planted, initial, invariant", _PLANTED)
def test_interned_join_checks_match_reference_on_planted_merge(
    monkeypatch, planted, initial, invariant
):
    # a correct merge never breaks the join-level invariants, so plant a
    # broken one to compare the cached join checks with check_invariants
    monkeypatch.setattr(BoundedCounter, "merge", planted)
    spec = _planted_spec(initial)
    got, want = explore_unreduced(spec), reference_explore(spec)
    assert isinstance(got, Counterexample)
    assert got.invariant == want.invariant == invariant
    assert (got.trace, got.values) == (want.trace, want.values)


def _renamed(invariant, n):
    """The invariant's name under every renaming of replicas 1..n-1."""
    return {re.sub(r"\d+", lambda m: str(perm[int(m.group())]), invariant)
            for perm in symmetries(n)}


def _assert_reduction_agrees(spec):
    reduced, full = explore(spec), explore_unreduced(spec)
    if spec.n <= 2:  # the only renaming is the identity
        assert _verdict(reduced) == _verdict(full)
        return
    assert type(reduced) is type(full)
    if isinstance(full, Verified):
        assert reduced.states <= full.states
        assert world_hash(replay(reduced.probe)) == reduced.probe.state_hash
    else:
        assert len(reduced.trace.steps) == len(full.trace.steps)
        assert reduced.invariant in _renamed(full.invariant, spec.n)
        assert check_invariants(replay(reduced.trace)) == reduced.invariant


@pytest.mark.parametrize("spec", [*_differential_grid(), *_beyond_the_grid()])
def test_reduced_explore_agrees_with_the_unreduced_search(spec):
    _assert_reduction_agrees(spec)


@pytest.mark.parametrize("planted, initial, invariant", _PLANTED)
def test_reduced_explore_agrees_on_planted_merge(monkeypatch, planted, initial, invariant):
    monkeypatch.setattr(BoundedCounter, "merge", planted)
    _assert_reduction_agrees(_planted_spec(initial))


def _rename_action(action, perm):
    kind, *rest = action
    # a merge names two replicas; an update names its replicas, then an amount
    named = rest if kind == "merge" else rest[:-1]
    return (kind, *(perm[r] for r in named), *rest[len(named):])


def _steps_alike(step, view, args, renamed_view, renamed_args, perm):
    """Runs step on both views: both raise NotEnoughRights alike, or the results correspond."""
    try:
        want = getattr(view, step)(*args)
    except NotEnoughRights as exc:
        with pytest.raises(NotEnoughRights) as got:
            getattr(renamed_view, step)(*renamed_args)
        assert (got.value.available, got.value.requested) == (exc.available, exc.requested)
        return
    assert getattr(renamed_view, step)(*renamed_args) == _permute(want, perm)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_renaming_replicas_commutes_with_the_counter_and_the_invariants(data):
    # the premise of the reduction: renaming replicas 1..n-1 commutes with
    # every step and check the explorer runs, and fixes its initial world
    n = data.draw(st.integers(2, 4), label="n")
    lower = data.draw(st.booleans(), label="lower")
    slack = data.draw(st.integers(0, 4), label="slack")
    spec = ExploreSpec(n=n, polarity=Polarity.LOWER if lower else Polarity.UPPER,
                       bound=0 if lower else 9, initial=slack if lower else 9 - slack,
                       unchecked_decrement=data.draw(st.booleans(), label="unchecked"))
    replica = st.integers(0, n - 1)
    pair = st.tuples(replica, replica).filter(lambda p: p[0] != p[1])
    action = st.one_of(
        st.tuples(st.sampled_from(("inc", "dec")), replica, st.integers(1, 3)),
        pair.map(lambda p: ("transfer", *p, 1)),
        pair.map(lambda p: ("merge", *p)),
    )
    world = initial_world(spec)
    for step in data.draw(st.lists(action, max_size=12), label="actions"):
        world = apply_action(world, step, spec) or world
    budget = data.draw(st.tuples(*[st.integers(0, 3)] * (3 * n + 3)), label="budget")
    i, j = data.draw(pair, label="i, j")
    delta = data.draw(st.integers(1, 6), label="delta")
    for perm in symmetries(n):
        assert tuple(_permute(v, perm) for v in initial_world(spec)) == initial_world(spec)
        assert _permute_budget(_initial_budget(spec), perm) == _initial_budget(spec)
        renamed = [None] * n
        for k, view in enumerate(world):
            renamed[perm[k]] = _permute(view, perm)
        for k, view in enumerate(world):
            image = renamed[perm[k]]
            assert image.local_rights(perm[k]) == view.local_rights(k)
            assert image.value() == view.value()
            assert _within_bound(image) == _within_bound(view)
            for step, args, renamed_args in (
                ("increment", (i, delta), (perm[i], delta)),
                ("decrement", (i, delta), (perm[i], delta)),
                ("transfer", (i, j, delta), (perm[i], perm[j], delta)),
            ):
                _steps_alike(step, view, args, image, renamed_args, perm)
            for other, other_view in enumerate(world):
                assert _permute(view.merge(other_view), perm) == image.merge(renamed[perm[other]])
        assert (check_invariants(tuple(renamed)) is None) == (check_invariants(world) is None)
        renamed_moves = dict(_moves(spec, _permute_budget(budget, perm)))
        assert renamed_moves == {
            _rename_action(a, perm): _permute_budget(b, perm) for a, b in _moves(spec, budget)
        }
