"""Exhaustive small-model checking of the counter's safety invariants.

Explores every reachable configuration of a small replica group
breadth-first. Each replica gets its own budget of increments, decrements,
and transfers; merges are pairwise full-state exchanges drawn from a shared
budget. At every reachable state the checker verifies:

* local safety: each replica's own view satisfies the bound;
* global safety: the join of all views satisfies the bound;
* non-negative rights: no replica's own view ever shows it with negative
  local rights;
* conservativeness: a replica never estimates its own rights higher than the
  join does, so acting on the local view is always safe;
* join insensitivity: folding the views in opposite orders agrees.

Exploration interns replica views (the collapse compression of explicit-state
checkers; Holzmann, "State Compression in SPIN", 1997). A view's canonical
byte encoding maps to a small integer id, assigned when the view is first
seen, and a world packs its views' ids into one int, replica i's in bits
[32 i, 32 (i + 1)). Each distinct (view, update) step, pair merge, bound
check and local-rights vector is computed once with the counter's own code
and then looked up, so a transition costs a few shifts and lookups and no
encoding. The remaining budgets pack into one int too, each count in a field
with a spare top bit, so one subtraction tells whether a budget vector
dominates another. Worlds are deduplicated on their int with Pareto
subsumption of budgets: re-reaching a configuration with component-wise
fewer moves left cannot uncover anything new.

Worlds are also deduplicated up to renaming replicas (symmetry reduction;
Ip & Dill, "Better Verification Through Symmetry", FMSD 1996). The group is
every permutation of replicas 1..n-1 that fixes replica 0, (n - 1)! of them,
up to five replicas; larger groups cost more than they save, so above five
the group is the identity alone and every world counts. Each world is keyed on its canonical pair: the least (world int, packed
budget) among its images under the group, budgets renamed together with
their replicas. The search keeps one world per orbit, so ``states`` and the
``max_states`` cap count orbit representatives, and ``transitions`` the moves
out of them. The frontier holds concrete worlds, so the checks, the probe and
counterexample traces use real schedules that replay unchanged. The
reduction is sound because:

* renaming commutes with the counter: the renamed view's increment,
  decrement, transfer (refusals included), merge, value and local rights
  are those of the original under the renamed replicas;
* the invariants hold in a renamed world exactly when they hold in the
  original;
* the initial world and budgets are fixed by the group: replica 0 alone
  creates the counter, and replicas 1..n-1 start identical with equal
  budgets.

So everything reachable from a world is, up to renaming, reachable from its
representative with at least as many moves left.

Transfer amounts default to 1: rights arithmetic is linear, so unit
transfers already exercise every precondition boundary.

A fault-injection flag applies decrements without the rights gate, planting
exactly the bug the gate exists to stop; exploration then returns the
shortest trace to a violation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass
from functools import reduce

from .crdt import INT64_MAX, INT64_MIN, BoundedCounter, NotEnoughRights, Polarity

Action = tuple
# ("inc", i, d) | ("dec", i, d) | ("transfer", i, j, a) | ("merge", i, j)


class InvalidStep(Exception):
    """A trace action that cannot apply in its state."""


class BudgetTooLarge(Exception):
    """Exploration exceeded the configured state cap."""


@dataclass(frozen=True)
class ExploreSpec:
    n: int = 3
    polarity: Polarity = Polarity.LOWER
    bound: int = 0
    initial: int = 5
    incs: int = 0  # per replica
    decs: int = 0  # per replica
    transfers: int = 0  # per replica
    max_merges: int = 4
    max_updates: int | None = None  # optional cap on total updates, any replica
    max_depth: int | None = None  # optional cap on total events
    deltas: tuple[int, ...] = (1,)
    transfer_amounts: tuple[int, ...] = (1,)
    unchecked_decrement: bool = False  # fault injection: skip the rights gate
    max_states: int = 5_000_000  # caps the worlds explored, one per symmetry orbit

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one replica")
        for name in ("incs", "decs", "transfers", "max_merges", "max_updates", "max_depth"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")
        if not self.deltas or any(d < 1 for d in self.deltas):
            raise ValueError("deltas must be positive")
        if not self.transfer_amounts or any(a < 1 for a in self.transfer_amounts):
            raise ValueError("transfer amounts must be positive")
        # every value, right and use the updates can reach lies in [lo, hi]
        reach = self.n * (self.incs + self.decs) * max(self.deltas)
        lo = min(self.bound, self.initial) - reach
        hi = max(self.bound, self.initial) + reach
        if lo < INT64_MIN or hi > INT64_MAX or hi - lo > INT64_MAX:
            raise ValueError("bound, initial and the updates must stay in 64-bit signed range")
        if self.polarity.slack(self.initial, self.bound) < 0:
            raise ValueError(f"initial {self.initial} past bound {self.bound}")


@dataclass(frozen=True)
class Trace:
    """A replayable schedule: the exploration spec plus ordered actions.

    ``state_hash`` is the canonical-encoding digest of the final world, so a
    replay can prove it reproduced the explorer's state exactly.
    """

    spec: ExploreSpec
    steps: tuple[Action, ...]
    state_hash: str

    def to_json(self) -> str:
        spec = {f.name: _CODECS[f.type][2](getattr(self.spec, f.name)) for f in _SPEC_FIELDS}
        doc = {"spec": spec, "steps": [list(s) for s in self.steps], "state_hash": self.state_hash}
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Strict inverse of ``to_json``: any other shape raises ValueError."""
        doc = json.loads(text)
        if type(doc) is not dict or sorted(doc) != ["spec", "state_hash", "steps"]:
            raise ValueError("a trace has exactly the keys spec, steps and state_hash")
        raw, steps = doc["spec"], doc["steps"]
        names = [f.name for f in _SPEC_FIELDS]
        if type(raw) is not dict or sorted(raw) != sorted(names):
            raise ValueError(f"a trace spec has exactly the keys {', '.join(names)}")
        spec = {}
        for f in _SPEC_FIELDS:
            check, load, _ = _CODECS[f.type]
            v = raw[f.name]
            if not check(v):
                raise ValueError(f"spec {f.name} cannot be {v!r}")
            spec[f.name] = load(v)
        if type(steps) is not list or not all(
            type(s) is list and all(type(x) in (int, str) for x in s) for s in steps
        ):
            raise ValueError("steps must be a list of lists of names and integers")
        if type(doc["state_hash"]) is not str:
            raise ValueError("state_hash must be a string")
        return cls(ExploreSpec(**spec), tuple(tuple(s) for s in steps), doc["state_hash"])


def _same(v):
    return v


# A trace writes the spec's fields in field order. Each field annotation maps
# to the check its JSON value must pass, the JSON-to-field conversion and the
# field-to-JSON conversion.
_CODECS = {
    "int": (lambda v: type(v) is int, _same, _same),
    "int | None": (lambda v: v is None or type(v) is int, _same, _same),
    "bool": (lambda v: type(v) is bool, _same, _same),
    "Polarity": (lambda v: v in [p.value for p in Polarity], Polarity, lambda p: p.value),
    "tuple[int, ...]": (
        lambda v: type(v) is list and all(type(x) is int for x in v),
        tuple,
        list,
    ),
}
_SPEC_FIELDS = dataclasses.fields(ExploreSpec)


@dataclass(frozen=True)
class Verified:
    states: int
    transitions: int
    probe: Trace  # one stored schedule; replaying it must match its hash


@dataclass(frozen=True)
class Counterexample:
    invariant: str
    trace: Trace
    values: tuple[int, ...]  # per-replica view values at the violation

    def __str__(self) -> str:
        steps = ", ".join(repr(a) for a in self.trace.steps)
        return f"{self.invariant} after [{steps}] values={self.values}"


def initial_world(spec: ExploreSpec) -> tuple[BoundedCounter, ...]:
    """Everyone starts from the fully replicated freshly created counter."""
    state = BoundedCounter.new(spec.polarity, spec.bound, spec.n, 0, spec.initial)
    return (state,) * spec.n


def world_hash(world: tuple[BoundedCounter, ...]) -> str:
    return hashlib.sha256(b"".join(s.encode() for s in world)).hexdigest()


def _within_bound(state: BoundedCounter) -> bool:
    return state.polarity.slack(state.value(), state.bound) >= 0


def check_invariants(world: tuple[BoundedCounter, ...]) -> str | None:
    """Returns the violated invariant's name, or None when all hold."""
    for i, view in enumerate(world):
        if not _within_bound(view):
            return f"view {i} breaks the bound"
        if view.local_rights(i) < 0:
            return f"replica {i} sees itself with negative rights"
    join = reduce(lambda a, b: a.merge(b), world)
    if not _within_bound(join):
        return "the join of all views breaks the bound"
    for i, view in enumerate(world):
        if view.local_rights(i) > join.local_rights(i):
            return f"replica {i} overestimates its rights"
    rejoin = reduce(lambda a, b: a.merge(b), reversed(world))
    if rejoin != join:
        return "join depends on fold order"
    return None


def _unchecked_decrement(state: BoundedCounter, i: int, delta: int) -> BoundedCounter:
    """The planted bug: consume without checking local rights."""
    used = dict(state.used)
    used[i] = used.get(i, 0) + delta
    return dataclasses.replace(state, used=used)


def _update(view: BoundedCounter, action: Action, spec: ExploreSpec) -> BoundedCounter | None:
    """Replica ``action[1]``'s view after an inc, dec or transfer, or None when refused."""
    kind = action[0]
    try:
        if kind == "inc":
            _, i, d = action
            return view.increment(i, d)
        if kind == "dec":
            _, i, d = action
            if spec.unchecked_decrement:
                return _unchecked_decrement(view, i, d)
            return view.decrement(i, d)
        if kind == "transfer":
            _, i, j, a = action
            return view.transfer(i, j, a)
    except NotEnoughRights:
        return None
    raise InvalidStep(f"unknown action {action!r}")


def apply_action(
    world: tuple[BoundedCounter, ...], action: Action, spec: ExploreSpec
) -> tuple[BoundedCounter, ...] | None:
    """New world, or None when the action is not enabled in this world."""
    if action[0] == "merge":
        _, i, j = action
        new = world[i].merge(world[j])
        if new == world[i]:
            return None  # no-op merge; skip to keep the frontier tight
    else:
        i = action[1]
        new = _update(world[i], action, spec)
        if new is None:
            return None
    out = list(world)
    out[i] = new
    return tuple(out)


# budget vector layout: (incs..., decs..., transfers..., merges, updates, depth)
def _initial_budget(spec: ExploreSpec) -> tuple[int, ...]:
    big = 1 << 30  # effectively unlimited when no cap is configured
    return (
        (spec.incs,) * spec.n
        + (spec.decs,) * spec.n
        + (spec.transfers,) * spec.n
        + (
            spec.max_merges,
            spec.max_updates if spec.max_updates is not None else big,
            spec.max_depth if spec.max_depth is not None else big,
        )
    )


def _moves(spec: ExploreSpec, budget: tuple[int, ...]):
    """Yields (action, new_budget) for every budget-enabled action."""
    n = spec.n
    merges, updates, depth = budget[3 * n :]
    if depth <= 0:
        return

    def spend(slot, action):
        b = list(budget)
        b[slot] -= 1
        if slot < 3 * n:
            b[-2] -= 1  # an update also spends the shared update cap
        b[-1] -= 1
        return action, tuple(b)

    if updates > 0:
        for i in range(n):
            for slot, kind in ((i, "inc"), (n + i, "dec")):
                if budget[slot] > 0:
                    for d in spec.deltas:
                        yield spend(slot, (kind, i, d))
            if budget[2 * n + i] > 0:
                for j in range(n):
                    if j != i:
                        for a in spec.transfer_amounts:
                            yield spend(2 * n + i, ("transfer", i, j, a))
    if merges > 0:
        for i in range(n):
            for j in range(n):
                if j != i:
                    yield spend(3 * n, ("merge", i, j))


# A packed world holds replica i's view id in bits [_W * i, _W * (i + 1)).
_W = 32
_ID_MASK = (1 << _W) - 1


def _pack(values, width: int) -> int:
    """The values as ``width``-bit fields of one int, the first in the lowest bits."""
    return sum(v << width * k for k, v in enumerate(values))


def _unpack(packed: int, width: int, count: int) -> tuple[int, ...]:
    return tuple((packed >> width * k) & ((1 << width) - 1) for k in range(count))


def _budget_packing(budget0: tuple[int, ...]) -> tuple[int, int]:
    """Field width and guard mask for budgets with components in [0, max(budget0)].

    The guard sets each field's top bit, which no component uses. So a field
    of ``old | guard`` minus the same field of ``new`` lies in (0, 2**width):
    no field borrows from the next, and the difference keeps the top bit
    exactly when old's component is at least new's.
    """
    width = max(budget0).bit_length() + 1
    return width, _pack((1 << width - 1,) * len(budget0), width)


def _dominates(old: int, new: int, guard: int) -> bool:
    """Whether packed budget ``old`` is component-wise at least ``new``."""
    return ((old | guard) - new) & guard == guard


# Every view carries its image under each renaming: n lanes of (n - 1)!
# images per orbit member. Past this many replicas that costs more than the
# states it saves (BENCH_checker-symmetry.json), so larger groups search
# unreduced.
_SYMMETRY_MAX_N = 5


def symmetries(n: int) -> list[tuple[int, ...]]:
    """The renamings of n replicas the search reduces by, the identity first.

    ``perm[i]`` is replica i's new name. Replica 0 creates the counter, and
    replicas 1..n-1 start identical with equal budgets, so every renaming
    that fixes replica 0 maps the initial world and budgets to themselves.
    Up to ``_SYMMETRY_MAX_N`` replicas these are all (n - 1)! of them; above
    it the identity alone.
    """
    if n > _SYMMETRY_MAX_N:
        return [tuple(range(n))]
    return [(0,) + p for p in itertools.permutations(range(1, n))]


def _permute(view: BoundedCounter, perm: tuple[int, ...]) -> BoundedCounter:
    """The view with every replica i renamed ``perm[i]``."""
    return dataclasses.replace(
        view,
        rights={(perm[i], perm[j]): v for (i, j), v in view.rights.items()},
        used={perm[i]: v for i, v in view.used.items()},
    )


def _permute_budget(budget: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The budget vector with replica i's inc, dec and transfer counts moved to ``perm[i]``."""
    n = len(perm)
    out = list(budget)
    for base in range(0, 3 * n, n):
        for i, p in enumerate(perm):
            out[base + p] = budget[base + i]
    return tuple(out)


def explore(spec: ExploreSpec) -> Verified | Counterexample:
    """Breadth-first search over every reachable world within the budgets.

    The search keeps one world per orbit of ``symmetries(spec.n)``:
    ``states`` counts orbit representatives and ``transitions`` the moves
    out of them.
    """
    spec.validate()
    n = spec.n
    world0 = initial_world(spec)

    def make_trace(steps, world):
        return Trace(spec, tuple(steps), world_hash(world))

    bad = check_invariants(world0)
    if bad is not None:
        return Counterexample(bad, make_trace((), world0), tuple(v.value() for v in world0))

    group = symmetries(n)
    # renaming by group[k], then by group[j], is renaming by group[after[j][k]]
    position = {perm: k for k, perm in enumerate(group)}
    after = [[position[tuple(q[p[i]] for i in range(n))] for p in group] for q in group]
    budget0 = _initial_budget(spec)
    width, guard = _budget_packing(budget0)
    depth0 = budget0[-1]
    # every update action by code; a smaller budget only disables some
    actions = [action for action, _ in _moves(spec, budget0) if action[0] != "merge"]
    code_of = {action: code for code, action in enumerate(actions)}

    # interned views, indexed by id; a world packs its views' ids into one int
    views: list[BoundedCounter] = []
    ids: dict[bytes, int] = {}  # canonical encoding -> id
    within: list[bool] = []  # id -> the view satisfies the bound
    rights: list[tuple[int, ...]] = []  # id -> every replica's local rights
    merged: dict[int, int] = {}  # (a << _W) | b -> id of views[a].merge(views[b])
    stepped: list[list] = []  # id -> per update code: next id, -1 if refused, None if unknown
    # A frontier entry packs its world's image under renaming k in bits
    # [k * span, (k + 1) * span), the concrete world (k = 0) lowest. placed[i]
    # maps a view id to that view held by replica i, renamed in every image.
    span = _W * n
    placed: list[list[int]] = [[] for _ in range(n)]

    def intern(view: BoundedCounter) -> int:
        vid = ids.get(view.encode())
        if vid is None:
            # the ids stay closed under renaming, so the view's whole orbit is
            # new; orbit[k] is its image under group[k], and images coincide
            # where a renaming fixes the view
            vid = len(views)
            orbit = []
            for perm in group:
                image = _permute(view, perm)
                key = image.encode()
                x = ids.get(key)
                if x is None:
                    x = ids[key] = len(views)
                    if x > _ID_MASK:
                        raise OverflowError(f"more than {_ID_MASK + 1} distinct views")
                    views.append(image)
                    within.append(_within_bound(image))
                    rights.append(tuple(image.local_rights(i) for i in range(n)))
                    stepped.append([None] * len(actions))
                orbit.append(x)
            for k, x in enumerate(orbit):
                if x < len(placed[0]):
                    continue  # an image met earlier in the orbit
                for i, lane in enumerate(placed):
                    lane.append(sum(
                        orbit[after[j][k]] << j * span + _W * perm[i]
                        for j, perm in enumerate(group)
                    ))
        return vid

    def merge(a: int, b: int) -> int:
        key = a << _W | b
        vid = merged.get(key)
        if vid is None:
            vid = merged[key] = intern(views[a].merge(views[b]))
        return vid

    # next budget -> per renaming k > 0, its image's offset and the budget renamed alike
    renamings: dict[int, tuple] = {}

    def table(budget: int) -> list[tuple]:
        # one row per move the budget allows: (action, acting replica, its shift,
        # update code or -1 for a merge, merge partner's shift, next budget,
        # depth used, placed[i], and per renaming k > 0 its image's offset and
        # the next budget renamed alike)
        rows = []
        for action, nbudget in _moves(spec, _unpack(budget, width, len(budget0))):
            i = action[1]
            if action[0] == "merge":
                code, other = -1, _W * action[2]
            else:
                code, other = code_of[action], 0
            nb = _pack(nbudget, width)
            renamed = renamings.get(nb)
            if renamed is None:
                renamed = renamings[nb] = tuple(
                    (k * span, _pack(_permute_budget(nbudget, perm), width))
                    for k, perm in enumerate(group)
                    if k
                )
            rows.append((action, i, _W * i, code, other, nb, depth0 - nbudget[-1], placed[i],
                         renamed))
        return rows

    def concrete(world: int) -> tuple[BoundedCounter, ...]:
        return tuple(views[v] for v in _unpack(world, _W, n))

    def rebuild(cons) -> list[Action]:
        steps = []
        while cons is not None:
            action, cons = cons
            steps.append(action)
        return steps[::-1]

    shifts = range(0, span, _W)
    world_mask = (1 << span) - 1
    b0 = _pack(budget0, width)
    w0 = sum(placed[i][intern(v)] for i, v in enumerate(world0))
    # canonical world -> Pareto frontier of its canonical packed budgets: one
    # int, or a list once a second, incomparable budget arrives. A world's
    # canonical pair is the least (world, budget) among its images; the group
    # fixes the initial world and budgets, so theirs is (w0, b0).
    seen: dict[int, int | list[int]] = {w0 & world_mask: b0}
    tables: dict[int, list[tuple]] = {}  # few distinct budgets recur across many worlds
    # ancestry as shared cons cells: node trace = (action, parent_cons)
    queue = deque([(w0, b0, None)])
    states = 1
    transitions = 0
    deepest = None  # (depth, cons, world) probe candidate
    while queue:
        world, budget, cons = queue.popleft()
        rows = tables.get(budget)
        if rows is None:
            rows = tables[budget] = table(budget)
        for action, i, shift, code, other, nb, used, lane, renamed in rows:
            v = world >> shift & _ID_MASK
            if code < 0:
                u = world >> other & _ID_MASK
                nv = merged.get(v << _W | u)
                if nv is None:
                    nv = merge(v, u)
                if nv == v:
                    continue  # no-op merge; skip to keep the frontier tight
            else:
                nv = stepped[v][code]
                if nv is None:
                    new = _update(views[v], actions[code], spec)
                    nv = stepped[v][code] = -1 if new is None else intern(new)
                if nv < 0:
                    continue
            transitions += 1
            # renaming commutes with the step, so every image moves at once
            nxt = world + lane[nv] - lane[v]
            key = nxt & world_mask
            kb = nb
            for offset, rb in renamed:
                image = nxt >> offset & world_mask
                if image < key or image == key and rb < kb:
                    key, kb = image, rb
            old = seen.get(key)
            if old is None:
                seen[key] = kb
            elif type(old) is int:
                if _dominates(old, kb, guard):
                    continue
                seen[key] = kb if _dominates(kb, old, guard) else [old, kb]
            else:
                if any(_dominates(o, kb, guard) for o in old):
                    continue
                old[:] = [o for o in old if not _dominates(kb, o, guard)]
                old.append(kb)
            states += 1
            if states > spec.max_states:
                raise BudgetTooLarge(f"more than {spec.max_states} states; shrink the budgets")
            ncons = (action, cons)
            # the parent passed every check, so of the per-view checks only
            # replica i's runs; the join checks fold through the merge cache
            vids = [nxt >> s & _ID_MASK for s in shifts]
            join = reduce(merge, vids)
            joined = rights[join]
            if not (
                within[nv]
                and rights[nv][i] >= 0
                and within[join]
                and all(rights[w][k] <= joined[k] for k, w in enumerate(vids))
                and reduce(merge, reversed(vids)) == join
            ):
                full = concrete(nxt)
                return Counterexample(
                    check_invariants(full),
                    make_trace(rebuild(ncons), full),
                    tuple(v.value() for v in full),
                )
            if deepest is None or used > deepest[0]:
                deepest = (used, ncons, nxt)
            queue.append((nxt, nb, ncons))
    if deepest is None:
        probe = make_trace((), world0)
    else:
        probe = make_trace(rebuild(deepest[1]), concrete(deepest[2]))
    return Verified(states, transitions, probe)


def replay(trace: Trace) -> tuple[BoundedCounter, ...]:
    """Re-run a trace from its initial world; raises InvalidStep if it cannot."""
    spec = trace.spec
    spec.validate()
    world = initial_world(spec)
    budget = _initial_budget(spec)
    for action in trace.steps:
        legal = dict(_moves(spec, budget))
        if action not in legal:
            raise InvalidStep(f"action {action!r} exceeds the budgets")
        nxt = apply_action(world, action, spec)
        if nxt is None:
            raise InvalidStep(f"action {action!r} not enabled")
        world = nxt
        budget = legal[action]
    return world
