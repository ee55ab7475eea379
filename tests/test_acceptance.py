"""Acceptance gate: the package's headline guarantees, one test per
criterion, each printing a single PASS/FAIL line (visible under -s or -v,
and echoed in a summary at module teardown).

The simulated configurations are small enough to run on a laptop; every
threshold below is part of the package contract, not a tuning artifact.
"""

import random
import time

import pytest

from bcounter.checker import Counterexample, ExploreSpec, Verified, explore
from bcounter.cli import main
from bcounter.crdt import BoundedCounter, CounterError, Polarity
from bcounter.sim.config import (
    CounterSpec,
    PartitionFault,
    SimConfig,
    Strategy,
)
from bcounter.sim.harness import run
from bcounter.sim.metrics import csv_lines
from bcounter.sim.scenarios import expand

RESULTS: list[str] = []
CLIENT_SWEEP = (10, 50, 100, 200)


def note(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print()
    print("== acceptance summary ==")
    for line in RESULTS:
        print(line)


# -- 1: worked example, exact ---------------------------------------------------


def test_01_worked_example_exact_values():
    t0 = time.monotonic()
    state = BoundedCounter(
        polarity=Polarity.LOWER,
        bound=10,
        n=3,
        rights={(0, 0): 30, (0, 1): 10, (0, 2): 10, (1, 1): 1},
        used={0: 5, 1: 4, 2: 2},
    )
    ok = (
        state.value() == 30
        and state.local_rights(0) == 5
        and state.local_rights(1) == 7
        and state.local_rights(2) == 8
        and time.monotonic() - t0 < 1.0
    )
    note("01 worked-example", ok,
         f"value={state.value()} rights={[state.local_rights(i) for i in range(3)]}")


# -- 2: lattice laws over randomized states --------------------------------------


def test_02_lattice_laws_ten_thousand_triples():
    t0 = time.monotonic()
    rng = random.Random(2024)
    n = 4
    base = BoundedCounter.new(Polarity.LOWER, 0, n, 0, 40)
    pool = [base]

    def mutate(s, steps):
        for _ in range(steps):
            roll = rng.random()
            i = rng.randrange(n)
            try:
                if roll < 0.35:
                    s = s.increment(i, rng.randint(1, 3))
                elif roll < 0.60:
                    s = s.decrement(i, 1)
                elif roll < 0.85:
                    s = s.transfer(i, (i + rng.randint(1, n - 1)) % n, rng.randint(1, 2))
                else:
                    s = s.merge(pool[rng.randrange(len(pool))])
            except CounterError:
                pass
        return s

    for _ in range(300):
        pool.append(mutate(pool[rng.randrange(len(pool))], 6))

    failures = 0
    for _ in range(10_000):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        ab = a.merge(b)
        if ab != b.merge(a):
            failures += 1
        if ab.merge(c) != a.merge(b.merge(c)):
            failures += 1
        if a.merge(a) != a:
            failures += 1
        if not (a.leq(ab) and b.leq(ab)):
            failures += 1
        upper = mutate(ab, 3)  # updates only inflate, so this stays above a and b
        if not (a.leq(upper) and b.leq(upper) and ab.leq(upper)):
            failures += 1
    elapsed = time.monotonic() - t0
    note("02 lattice-laws", failures == 0 and elapsed < 30.0,
         f"failures={failures} over 10000 triples in {elapsed:.1f}s")


# -- 3: exhaustive model check + mutant -------------------------------------------


def test_03_model_check_verified_and_mutant_caught(capsys):
    t0 = time.monotonic()
    flags = ["check", "--replicas", "3", "--bound", "0", "--initial", "5",
             "--incs", "1", "--decs", "1", "--transfers", "1",
             "--merges", "6", "--updates", "8"]
    code_ok = main(flags)
    out_ok = capsys.readouterr().out
    code_bad = main(flags + ["--unchecked-dec"])
    out_bad = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    # the counts are of worlds up to renaming replicas 1 and 2 (493,608 and
    # 2,953,352 without the reduction, pinned in tests/test_checker.py)
    ok = (
        code_ok == 0
        and "Verified: states=246984 transitions=1477955" in out_ok
        and code_bad == 1
        and "Counterexample" in out_bad
        and elapsed < 300.0
    )
    note("03 model-check", ok,
         f"verified_exit={code_ok} mutant_exit={code_bad} in {elapsed:.1f}s")


# -- 4: violation counts under 100% decrements -------------------------------------


def test_04_weak_violates_bounded_strategies_do_not():
    weak_viols = []
    t0 = time.monotonic()
    for point in expand("violation-count", strategies=(Strategy.WEAK,)):
        _, report = run(point.config)
        weak_viols.append(report.violations)
    weak_wall = time.monotonic() - t0
    weak_ok = (
        all(v > 0 for v in weak_viols)
        and all(a <= b for a, b in zip(weak_viols, weak_viols[1:]))
        and weak_wall < 120.0
    )

    bounded_ok = True
    detail = [f"weak={weak_viols} ({weak_wall:.0f}s)"]
    for strat in (Strategy.BCCLT, Strategy.BCSRV, Strategy.BCSRV_NOBATCH,
                  Strategy.STRONG):
        t0 = time.monotonic()
        viols = []
        for point in expand("violation-count", strategies=(strat,)):
            _, report = run(point.config)
            viols.append(report.violations)
        wall = time.monotonic() - t0
        bounded_ok = bounded_ok and viols == [0, 0, 0, 0] and wall < 120.0
        detail.append(f"{strat.value}={viols} ({wall:.0f}s)")
    note("04 violation-count", weak_ok and bounded_ok, " ".join(detail))


# -- 5: exhaustion reaches the bound exactly ---------------------------------------


def exhaustion_config():
    (point,) = expand("exhaustion-6000", seed=3)
    return point.config


def test_05_exhaustion_exact_and_cheap():
    t0 = time.monotonic()
    cfg = exhaustion_config()
    cfg.record_ops = True
    _, report = run(cfg)
    elapsed = time.monotonic() - t0

    final_exact = (
        report.depletion_time_ms is not None
        and report.converged is True
        and report.converged_values["c"] == 0
        and report.violations == 0
    )
    sync_fraction = report.sync_ops / max(1, report.attempted)
    post = [op for op in report.op_log
            if op.kind == "dec" and op.t_start > report.depletion_time_ms]
    post_fail_local = (
        len(post) > 0
        and all(op.status == "failed" for op in post)
        and all(not op.used_sync for op in post)
        and report.requests_to_exhausted == 0
    )
    ok = final_exact and sync_fraction < 0.05 and post_fail_local and elapsed < 120.0
    note("05 exhaustion", ok,
         f"final={report.converged_values['c']} sync={sync_fraction:.4f} "
         f"post_ops={len(post)} req_to_exhausted={report.requests_to_exhausted} "
         f"in {elapsed:.0f}s")


# -- 6: write batching ---------------------------------------------------------------


def test_06_batching_cuts_writes_and_lifts_throughput():
    (batched,) = expand("single-counter", strategies=(Strategy.BCSRV,),
                        clients=(100,), seed=5)
    (serial,) = expand("single-counter", strategies=(Strategy.BCSRV_NOBATCH,),
                       clients=(100,), seed=5)
    _, rb = run(batched.config)
    _, rs = run(serial.config)
    ok = (
        rb.writes_per_ok() < 0.5
        and abs(rs.writes_per_ok() - 1.0) <= 0.01
        and rb.throughput_ok_per_s >= 2.0 * rs.throughput_ok_per_s
    )
    note("06 batching", ok,
         f"batched_writes/ok={rb.writes_per_ok():.3f} "
         f"serial={rs.writes_per_ok():.3f} "
         f"throughput {rb.throughput_ok_per_s:.0f}/s vs {rs.throughput_ok_per_s:.0f}/s")


# -- 7: contention growth ---------------------------------------------------------


def test_07_conflict_fraction_growth():
    fractions = {}
    for strat in (Strategy.BCCLT, Strategy.STRONG, Strategy.BCSRV):
        points = expand("single-counter", strategies=(strat,),
                        clients=CLIENT_SWEEP, seed=5)
        fractions[strat] = [run(p.config)[1].conflict_fraction() for p in points]
    increasing = all(
        a < b for a, b in zip(fractions[Strategy.BCCLT], fractions[Strategy.BCCLT][1:])
    ) and all(
        a < b for a, b in zip(fractions[Strategy.STRONG], fractions[Strategy.STRONG][1:])
    )
    server_low = all(f < 0.01 for f in fractions[Strategy.BCSRV])
    fmt = {s.value: [round(f, 4) for f in v] for s, v in fractions.items()}
    note("07 contention", increasing and server_low, f"{fmt}")


# -- 8: latency structure -----------------------------------------------------------


def latency_config(strategy):
    return SimConfig(
        strategy=strategy,
        clients_per_dc=1,
        duration_ms=20_000.0,
        counters=[CounterSpec("k", bound=0, initial=10**9)],
        seed=9,
    )


def test_08_latency_reflects_topology():
    # single primary at DC 0; DC 2 is the European site of the default table
    cfg_strong = latency_config(Strategy.STRONG)
    _, rs = run(cfg_strong)
    store_ms = cfg_strong.store_latency_ms()
    home = rs.per_dc[0].p50_ms
    europe = rs.per_dc[2].p50_ms

    _, rb = run(latency_config(Strategy.BCSRV))
    server_p50 = [rb.per_dc[dc].p50_ms for dc in range(3)]

    ok = (
        home <= store_ms + 5.0
        and europe >= 90.0
        and all(p <= store_ms + 10.0 for p in server_p50)
    )
    note("08 latency", ok,
         f"home={home:.1f}ms europe={europe:.1f}ms "
         f"server={[f'{p:.1f}' for p in server_p50]} store={store_ms:.0f}ms")


# -- 9: partition tolerance -----------------------------------------------------------


def partition_config():
    return SimConfig(
        strategy=Strategy.BCSRV,
        clients_per_dc=10,
        duration_ms=8_000.0,
        warmup_ms=2_000.0,
        counters=[CounterSpec("k", bound=0, initial=6_000)],
        partitions=[PartitionFault(groups=((0, 1), (2,)),
                                   start_ms=3_000.0, end_ms=6_000.0)],
        record_ops=True,
        seed=11,
    )


def test_09_partition_progress_without_violations():
    _, report = run(partition_config())
    window = [op for op in report.op_log
              if op.status == "ok" and 3_000.0 <= op.t_start and op.t_end <= 6_000.0]
    side_a = sum(1 for op in window if op.dc in (0, 1))
    side_b = sum(1 for op in window if op.dc == 2)
    ok = (
        side_a > 0
        and side_b > 0
        and report.violations == 0
        and report.converged is True
        and report.convergence_sync_periods is not None
        and report.convergence_sync_periods <= 3
    )
    note("09 partition", ok,
         f"ok_during_partition sides=({side_a},{side_b}) violations={report.violations} "
         f"heal_sync_periods={report.convergence_sync_periods}")


# -- 10: determinism ---------------------------------------------------------------


def test_10_same_seed_byte_identical_csv():
    families = {
        "exhaustion": exhaustion_config,
        "latency": lambda: latency_config(Strategy.STRONG),
        "partition": partition_config,
    }
    mismatches = []
    for name, make in families.items():
        runs = []
        for _ in range(2):
            cfg = make()
            metrics, report = run(cfg)
            runs.append("\n".join(csv_lines(cfg.describe(), metrics, report)).encode())
        if runs[0] != runs[1]:
            mismatches.append(name)
    note("10 determinism", not mismatches,
         f"byte-identical reruns for {sorted(families)}"
         + (f"; mismatches={mismatches}" if mismatches else ""))
