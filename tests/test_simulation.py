"""End-to-end simulation runs: determinism, convergence, bound safety,
depletion, partitions, and crashes. Desk-scale versions of the larger
benchmark sweeps."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcounter.sim.config import (
    CounterSpec,
    CrashFault,
    PartitionFault,
    SimConfig,
    Strategy,
)
from bcounter.middleware_client import ClientMiddleware
from bcounter.middleware_server import Node
from bcounter.sim.harness import Run, run
from bcounter.sim.metrics import csv_lines
from bcounter.sim.strategies import TallyCounter

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


@pytest.mark.parametrize("strategy", [Strategy.BCCLT, Strategy.BCSRV], ids=lambda s: s.value)
def test_late_sync_grants_end_converged_without_violations(strategy, monkeypatch):
    # DC 0 starts with every right, and its writes outlast any requester's
    # 2xRTT wait: its synchronous grants reach the requester after it moved on
    waits = []

    def timed(send):
        def send_request(self, key, req, view, reply=None):
            if reply is None:
                return send(self, key, req, view)
            sent_at, wait = self.sim.now, 2 * self.net.rtt(self.dc, req.grantor)

            def timed_reply(resp):
                waits.append((self.sim.now - sent_at > wait, resp.status.value))
                reply(resp)

            return send(self, key, req, view, timed_reply)

        return send_request

    for cls in (ClientMiddleware, Node):
        monkeypatch.setattr(cls, "_send_request", timed(cls._send_request))
    cfg = small(strategy, clients_per_dc=4, inc_fraction=0.2, think_ms=20.0,
                write_ms=[250.0, 5.0, 5.0],
                counters=[CounterSpec("k", bound=0, initial=60)])
    metrics, report = run(cfg)
    assert (True, "granted") in waits
    assert report.violations == 0
    assert report.converged is True
    assert report.converged_values == report.observer_values


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
    assert a.merge(b).encode() == b.merge(a).encode()
    assert a.merge(TallyCounter()) == a


def test_weak_fold_cache_matches_a_fresh_fold(monkeypatch):
    driver = Run(small(Strategy.WEAK)).driver
    rng = random.Random(7)

    def blob():
        actors = [f"c{i}" for i in range(12)]
        return TallyCounter(
            {a: rng.randint(0, 9) for a in rng.sample(actors, 8)},
            {a: rng.randint(0, 9) for a in rng.sample(actors, 8)},
        ).encode()

    A, B, C, D, E, F, G = (blob() for _ in range(7))
    steps = {
        (0, "a"): [(A,), (A,), (A, B), (A, B, C), (C, D), (C, D), (E,), (A, B), (C, D)],
        (1, "a"): [(B,), (B, F), (G,), (B, F), (B, F, G), (F,)],
        (0, "b"): [(G,), (G, A), (A,), (A, G), (G, A)],
        (1, "b"): [(C, D, E), (D, E), (E, F), (C, D, E), (C,)],
    }
    decoded = []
    decode = TallyCounter.decode
    monkeypatch.setattr(
        TallyCounter, "decode", classmethod(lambda cls, b: decoded.append(b) or decode(b))
    )
    last = {}
    for i in range(max(len(s) for s in steps.values())):
        for (dc, key), seq in steps.items():
            if i >= len(seq):
                continue
            siblings = seq[i]
            decoded.clear()
            got = driver._fold(dc, key, siblings)
            fresh = reduce(TallyCounter.merge, map(decode, siblings))
            assert got == fresh
            assert got.encode() == fresh.encode()
            # only siblings absent from this (dc, key)'s last tuple are decoded
            assert decoded == [s for s in siblings if s not in last.get((dc, key), ())]
            last[(dc, key)] = siblings


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
