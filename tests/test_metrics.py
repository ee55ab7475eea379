"""Metrics accounting: percentiles, the omniscient observer, warmup
boundaries, derived ratios, the store totals, and the CSV layout."""

from dataclasses import fields
from pathlib import Path

import pytest

from bcounter.crdt import Polarity
from bcounter.sim.metrics import (
    COUNTERS,
    CSV_COLUMNS,
    CSV_VERSION,
    STORE_COUNTERS,
    Metrics,
    Report,
    csv_lines,
    percentile,
)

README = Path(__file__).resolve().parents[1] / "README.md"


class Store:
    """Stands in for a DCStore: only the counters the ledger sums."""

    def __init__(self, **counts):
        self.reads = self.weak_puts = self.cond_writes = self.conflicts = 0
        self.set(**counts)

    def set(self, **counts):
        for name, value in counts.items():
            setattr(self, name, value)


def test_percentile_nearest_rank():
    assert percentile([], 50) is None
    assert percentile([7.0], 50) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 99) == 4.0
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0


def test_observer_counts_violated_units_not_events():
    m = Metrics("weak", 1)
    m.observer_register("k", Polarity.LOWER, 0, 2)
    m.observer_apply("k", "dec", 1, t=1.0)
    m.observer_apply("k", "dec", 1, t=2.0)
    assert m.counts["violations"] == 0
    m.observer_apply("k", "dec", 3, t=3.0)  # 0 -> -3: three violated units
    m.observer_apply("k", "inc", 1, t=4.0)  # recovery is not a violation
    m.observer_apply("k", "dec", 1, t=5.0)  # -2 -> -3: one more
    assert m.counts["violations"] == 4
    assert m.observer_values() == {"k": -3}


def test_observer_upper_bound_polarity():
    m = Metrics("weak", 1)
    m.observer_register("k", Polarity.UPPER, 10, 9)
    m.observer_apply("k", "inc", 3, t=1.0)
    assert m.counts["violations"] == 2


def test_depletion_requires_all_counters():
    m = Metrics("bcsrv", 1)
    m.observer_register("a", Polarity.LOWER, 0, 1)
    m.observer_register("b", Polarity.LOWER, 0, 1)
    m.observer_apply("a", "dec", 1, t=5.0)
    assert not m.depleted()
    m.observer_apply("b", "dec", 1, t=9.0)
    assert m.depleted()
    assert m.depletion_time_ms == 9.0


def test_requests_to_exhausted_tracks_visible_rights():
    m = Metrics("bcsrv", 2)
    m.transfer_request(target_visible=5)
    assert m.counts["requests_to_exhausted"] == 0
    m.transfer_request(target_visible=0)
    assert m.counts["requests_to_exhausted"] == 1


def test_warmup_excludes_early_ops_from_measured_window():
    m = Metrics("bcsrv", 1, [Store()], warmup_ms=100.0)
    m.op_started(0, "dec", t=50.0)
    m.op_finished(0, "dec", "ok", "ok", 50.0, 60.0)
    m.op_started(0, "dec", t=150.0)
    m.op_finished(0, "dec", "ok", "ok", 150.0, 170.0)
    m.mark_warmup()
    m.close_bucket(1000.0)
    report = m.finalize(1000.0)
    assert report.ok == 2
    assert report.measured_ok == 1
    assert report.p50_ms == 20.0


def test_writes_per_ok_uses_full_run():
    m = Metrics("bcsrv", 1, warmup_ms=100.0)
    for t in (10.0, 200.0):
        m.op_started(0, "dec", t)
        m.op_finished(0, "dec", "ok", "ok", t, t + 5.0)
    m.op_write()
    m.mark_warmup()
    report = m.finalize(1000.0)
    # one write amortized over both oks, regardless of the warmup boundary
    assert report.writes_per_ok() == 0.5


def test_conflict_fraction_uses_measured_window():
    store = Store(cond_writes=10, conflicts=10)
    m = Metrics("bcclt", 1, [store], warmup_ms=100.0)
    m.mark_warmup()
    store.set(cond_writes=14, conflicts=11)
    report = m.finalize(1000.0)
    # only post-warmup activity counts: 1 conflict out of 4 writes
    assert report.conflict_fraction() == pytest.approx(0.25)


def test_per_dc_latency_percentiles():
    m = Metrics("strong", 2)
    for lat in (10.0, 20.0, 30.0):
        m.op_started(0, "dec", 0.0)
        m.op_finished(0, "dec", "ok", "ok", 0.0, lat)
    m.op_started(1, "dec", 0.0)
    m.op_finished(1, "dec", "ok", "ok", 0.0, 90.0)
    report = m.finalize(1000.0)
    assert report.per_dc[0].p50_ms == 20.0
    assert report.per_dc[1].p50_ms == 90.0


def test_csv_layout_and_formatting():
    store = Store()
    m = Metrics("bcsrv", 1, [store])
    m.observer_register("k", Polarity.LOWER, 0, 10)
    m.op_started(0, "dec", 100.0)
    m.op_finished(0, "dec", "ok", "ok", 100.0, 111.5)
    m.observer_apply("k", "dec", 1, 111.5)
    store.set(reads=3)
    m.close_bucket(500.0)
    store.set(reads=5)
    m.close_bucket(1000.0)
    report = m.finalize(1000.0)
    lines = csv_lines("demo config", m, report)
    assert lines[0] == "# config: demo config"
    assert lines[1] == "# columns: v1"
    assert lines[2] == ",".join(CSV_COLUMNS)
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 2
    first = dict(zip(CSV_COLUMNS, rows[0].split(",")))
    assert first["time_s"] == "0.500"
    assert first["ok"] == "1"
    assert first["store_reads"] == "3"
    second = dict(zip(CSV_COLUMNS, rows[1].split(",")))
    assert second["store_reads"] == "2"  # per-bucket deltas, not totals
    assert any(ln.startswith("# final:") for ln in lines)
    assert any(ln.startswith("# dc0:") for ln in lines)


def test_csv_is_deterministic_text():
    def build():
        m = Metrics("weak", 1)
        m.op_started(0, "inc", 10.0)
        m.op_finished(0, "inc", "ok", "ok", 10.0, 12.25)
        m.close_bucket(500.0)
        return csv_lines("cfg", m, m.finalize(500.0))

    assert build() == build()


def test_every_counter_is_a_report_field():
    names = {f.name for f in fields(Report)}
    assert set(COUNTERS) <= names
    assert {f"store_{name}" for name in STORE_COUNTERS} <= names


def pinned_run():
    """A hand-fed run: warmup, two buckets, two DCs and their stores, one
    transfer request and response, a depletion time and a converged end."""
    stores = [Store(), Store()]
    m = Metrics("bcclt", 2, stores, warmup_ms=100.0)
    m.observer_register("k", Polarity.LOWER, 0, 2)
    m.op_started(0, "dec", 50.0)
    m.op_write()
    m.op_finished(0, "dec", "ok", "ok", 50.0, 62.5)
    m.observer_apply("k", "dec", 1, 62.5)
    stores[0].set(reads=2, cond_writes=1)
    stores[1].set(reads=1, cond_writes=1, conflicts=1)
    m.mark_warmup()
    m.op_started(1, "dec", 150.0)
    m.transfer_request(target_visible=0)
    m.transfer_response()
    m.op_write()
    m.op_finished(1, "dec", "ok", "ok", 150.0, 240.25, used_sync=True)
    m.observer_apply("k", "dec", 1, 240.25)
    m.sync_msg(2)
    m.op_started(0, "inc", 300.0)
    m.op_finished(0, "inc", "failed", "timeout", 300.0, 400.0)
    stores[0].set(reads=4, weak_puts=1, cond_writes=3)
    stores[1].set(reads=3)
    m.close_bucket(500.0)
    m.op_started(1, "dec", 600.0)
    m.op_finished(1, "dec", "retry", "conflict", 600.0, 700.0)
    stores[1].set(cond_writes=3, conflicts=2)
    m.close_bucket(1000.0)
    report = m.finalize(1000.0)
    report.converged = True
    return m, report


def test_csv_lines_of_a_pinned_run():
    m, report = pinned_run()
    assert csv_lines("pinned run", m, report) == [
        "# config: pinned run",
        "# columns: v1",
        "time_s,strategy,attempted,ok,failed,retry,p50_ms,p99_ms,op_writes,store_reads,"
        "store_weak_puts,store_cond_writes,store_conflicts,sync_msgs,transfer_msgs,sync_ops,"
        "violations",
        "0.500,bcclt,3,2,1,0,90.250,90.250,2,7,1,4,1,2,2,1,0",
        "1.000,bcclt,1,0,0,1,,,0,0,0,2,1,0,0,0,0",
        "# final: attempted=4 ok=2 failed=1 retry=1 violations=0 op_writes=2 "
        "store_cond_writes=6 store_conflicts=2 sync_ops=1 transfer_requests=1 "
        "throughput_ok_per_s=1.111 p50_ms=90.250 p99_ms=90.250 depletion_time_ms=240.250 "
        "converged=True values=k:0",
        "# dc0: attempted=1 ok=0 failed=1 retry=0 p50_ms= p99_ms=",
        "# dc1: attempted=2 ok=1 failed=0 retry=1 p50_ms=90.250 p99_ms=90.250",
    ]


def test_every_row_has_every_csv_column():
    m, _ = pinned_run()
    assert len(m.rows) == 2
    for row in m.rows:
        assert set(CSV_COLUMNS) <= set(row)


def test_readme_csv_schema_matches_columns():
    text = README.read_text()
    section = text[text.index("## CSV schema"):]
    block = section[section.index("```\n") + len("```\n"):].splitlines()
    assert block[1] == f"# columns: v{CSV_VERSION}"
    assert block[2] == ",".join(CSV_COLUMNS)
