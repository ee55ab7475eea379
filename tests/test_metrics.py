"""Metrics accounting: percentiles, the omniscient observer, warmup
boundaries, derived ratios, and the CSV layout."""

import pytest

from bcounter.sim.metrics import (
    CSV_COLUMNS,
    Metrics,
    csv_lines,
    percentile,
)


def totals(**kw):
    base = dict(store_reads=0, store_weak_puts=0, store_cond_writes=0,
                store_conflicts=0)
    base.update(kw)
    return base


def test_percentile_nearest_rank():
    assert percentile([], 50) is None
    assert percentile([7.0], 50) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 99) == 4.0
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0


def test_observer_counts_violated_units_not_events():
    m = Metrics("weak", 1, bucket_ms=1000.0)
    m.observer_register("k", "lower", 0, 2)
    m.observer_apply("k", "dec", 1, t=1.0)
    m.observer_apply("k", "dec", 1, t=2.0)
    assert m.counts["violations"] == 0
    m.observer_apply("k", "dec", 3, t=3.0)  # 0 -> -3: three violated units
    m.observer_apply("k", "inc", 1, t=4.0)  # recovery is not a violation
    m.observer_apply("k", "dec", 1, t=5.0)  # -2 -> -3: one more
    assert m.counts["violations"] == 4
    assert m.observer_values() == {"k": -3}


def test_observer_upper_bound_polarity():
    m = Metrics("weak", 1, bucket_ms=1000.0)
    m.observer_register("k", "upper", 10, 9)
    m.observer_apply("k", "inc", 3, t=1.0)
    assert m.counts["violations"] == 2


def test_depletion_requires_all_counters():
    m = Metrics("bcsrv", 1, bucket_ms=1000.0)
    m.observer_register("a", "lower", 0, 1)
    m.observer_register("b", "lower", 0, 1)
    m.observer_apply("a", "dec", 1, t=5.0)
    assert not m.depleted()
    m.observer_apply("b", "dec", 1, t=9.0)
    assert m.depleted()
    assert m.depletion_time_ms == 9.0


def test_requests_to_exhausted_tracks_visible_rights():
    m = Metrics("bcsrv", 2, bucket_ms=1000.0)
    m.transfer_request(target_visible=5)
    assert m.counts["requests_to_exhausted"] == 0
    m.transfer_request(target_visible=0)
    assert m.counts["requests_to_exhausted"] == 1


def test_warmup_excludes_early_ops_from_measured_window():
    m = Metrics("bcsrv", 1, bucket_ms=1000.0, warmup_ms=100.0)
    m.op_started(0, "dec", t=50.0)
    m.op_finished(0, "dec", "ok", "ok", 50.0, 60.0)
    m.op_started(0, "dec", t=150.0)
    m.op_finished(0, "dec", "ok", "ok", 150.0, 170.0)
    m.mark_warmup(totals())
    m.close_bucket(1000.0, totals())
    report = m.finalize(1000.0, totals())
    assert report.ok == 2
    assert report.measured_ok == 1
    assert report.p50_ms == 20.0


def test_writes_per_ok_uses_full_run():
    m = Metrics("bcsrv", 1, bucket_ms=1000.0, warmup_ms=100.0)
    for t in (10.0, 200.0):
        m.op_started(0, "dec", t)
        m.op_finished(0, "dec", "ok", "ok", t, t + 5.0)
    m.op_write()
    m.mark_warmup(totals())
    report = m.finalize(1000.0, totals())
    # one write amortized over both oks, regardless of the warmup boundary
    assert report.writes_per_ok() == 0.5


def test_conflict_fraction_uses_measured_window():
    m = Metrics("bcclt", 1, bucket_ms=1000.0, warmup_ms=100.0)
    m.mark_warmup(totals(store_cond_writes=10, store_conflicts=10))
    report = m.finalize(
        1000.0, totals(store_cond_writes=14, store_conflicts=11)
    )
    # only post-warmup activity counts: 1 conflict out of 4 writes
    assert report.conflict_fraction() == pytest.approx(0.25)


def test_per_dc_latency_percentiles():
    m = Metrics("strong", 2, bucket_ms=1000.0)
    for lat in (10.0, 20.0, 30.0):
        m.op_started(0, "dec", 0.0)
        m.op_finished(0, "dec", "ok", "ok", 0.0, lat)
    m.op_started(1, "dec", 0.0)
    m.op_finished(1, "dec", "ok", "ok", 0.0, 90.0)
    report = m.finalize(1000.0, totals())
    assert report.per_dc[0].p50_ms == 20.0
    assert report.per_dc[1].p50_ms == 90.0


def test_csv_layout_and_formatting():
    m = Metrics("bcsrv", 1, bucket_ms=500.0)
    m.observer_register("k", "lower", 0, 10)
    m.op_started(0, "dec", 100.0)
    m.op_finished(0, "dec", "ok", "ok", 100.0, 111.5)
    m.observer_apply("k", "dec", 1, 111.5)
    m.close_bucket(500.0, totals(store_reads=3))
    m.close_bucket(1000.0, totals(store_reads=5))
    report = m.finalize(1000.0, totals(store_reads=5))
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
        m = Metrics("weak", 1, bucket_ms=500.0)
        m.op_started(0, "inc", 10.0)
        m.op_finished(0, "inc", "ok", "ok", 10.0, 12.25)
        m.close_bucket(500.0, totals())
        return csv_lines("cfg", m, m.finalize(500.0, totals()))

    assert build() == build()
