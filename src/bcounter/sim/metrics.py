"""Run instrumentation: counters, latency percentiles, CSV rows, final report.

A global observer is fed every successful operation the moment it is
acknowledged, and tracks each counter's true global value. It exchanges no
messages with the system under test; it exists to count invariant violations
(units past the bound) and to timestamp the moment all slack is consumed.

Aggregates split at a warmup boundary: totals cover the whole run, while the
"measured" section and latency percentiles exclude everything before warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CSV_COLUMNS = [
    "time_s",
    "strategy",
    "attempted",
    "ok",
    "failed",
    "retry",
    "p50_ms",
    "p99_ms",
    "op_writes",
    "store_reads",
    "store_weak_puts",
    "store_cond_writes",
    "store_conflicts",
    "sync_msgs",
    "transfer_msgs",
    "sync_ops",
    "violations",
]
CSV_VERSION = 1

_STORE_KEYS = ("store_reads", "store_weak_puts", "store_cond_writes", "store_conflicts")


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank percentile; None on empty input."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class OpRecord:
    dc: int
    kind: str
    status: str
    reason: str
    t_start: float
    t_end: float
    used_sync: bool


@dataclass
class TransferRecord:
    t: float
    requester_dc: int
    grantor_dc: int
    mode: str
    target_visible_rights: int


@dataclass
class DcStats:
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    retry: int = 0
    p50_ms: float | None = None
    p99_ms: float | None = None


@dataclass
class Report:
    strategy: str
    duration_ms: float
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    retry: int = 0
    violations: int = 0
    op_writes: int = 0
    sync_msgs: int = 0
    transfer_requests: int = 0
    transfer_responses: int = 0
    requests_to_exhausted: int = 0
    sync_ops: int = 0
    store_reads: int = 0
    store_weak_puts: int = 0
    store_cond_writes: int = 0
    store_conflicts: int = 0
    # post-warmup window
    measured_attempted: int = 0
    measured_ok: int = 0
    measured_failed: int = 0
    measured_retry: int = 0
    measured_op_writes: int = 0
    measured_cond_writes: int = 0
    measured_conflicts: int = 0
    measured_window_ms: float = 0.0
    throughput_ok_per_s: float = 0.0
    p50_ms: float | None = None
    p99_ms: float | None = None
    per_dc: dict[int, DcStats] = field(default_factory=dict)
    observer_values: dict[str, int] = field(default_factory=dict)
    depletion_time_ms: float | None = None
    converged: bool | None = None
    converged_values: dict[str, int] | None = None
    convergence_sync_periods: int | None = None
    op_log: list[OpRecord] | None = None
    transfer_log: list[TransferRecord] | None = None

    def conflict_fraction(self) -> float:
        if self.measured_cond_writes == 0:
            return 0.0
        return self.measured_conflicts / self.measured_cond_writes

    def writes_per_ok(self) -> float:
        """Operation-carrying writes per acknowledged op, over the whole run.

        Full-run totals keep this boundary-free: every acknowledged op's write
        is in the numerator no matter which side of the warmup mark it landed.
        """
        if self.ok == 0:
            return 0.0
        return self.op_writes / self.ok


class _Observer:
    """Omniscient per-counter value tracker fed by success events."""

    __slots__ = ("polarity", "bound", "value")

    def __init__(self, polarity: str, bound: int, initial: int):
        self.polarity = polarity
        self.bound = bound
        self.value = initial

    def slack(self) -> int:
        if self.polarity == "lower":
            return max(0, self.value - self.bound)
        return max(0, self.bound - self.value)

    def apply(self, kind: str, delta: int) -> int:
        """Apply one success; returns newly violated units (0 when safe)."""
        before = self.value
        after = before + delta if kind == "inc" else before - delta
        self.value = after
        if self.polarity == "lower":
            return max(0, self.bound - after) - max(0, self.bound - before)
        return max(0, after - self.bound) - max(0, before - self.bound)


class Metrics:
    def __init__(
        self,
        strategy: str,
        n_dcs: int,
        bucket_ms: float,
        warmup_ms: float = 0.0,
        record_ops: bool = False,
    ):
        self.strategy = strategy
        self.n_dcs = n_dcs
        self.bucket_ms = bucket_ms
        self.warmup_ms = warmup_ms
        self.record_ops = record_ops
        self.counts = {
            "attempted": 0,
            "ok": 0,
            "failed": 0,
            "retry": 0,
            "op_writes": 0,
            "sync_msgs": 0,
            "transfer_requests": 0,
            "transfer_responses": 0,
            "requests_to_exhausted": 0,
            "sync_ops": 0,
            "violations": 0,
        }
        self._observers: dict[str, _Observer] = {}
        self.depletion_time_ms: float | None = None
        self._bucket_latencies: list[float] = []
        self._dc_latencies: dict[int, list[float]] = {dc: [] for dc in range(n_dcs)}
        self._dc_counts: dict[int, DcStats] = {dc: DcStats() for dc in range(n_dcs)}
        self._measured: dict[str, int] = {"attempted": 0, "ok": 0, "failed": 0, "retry": 0}
        self._warmup_base: dict[str, int] | None = None
        self._last_snapshot: dict[str, int] = {}
        self.rows: list[dict] = []
        self.op_log: list[OpRecord] = []
        self.transfer_log: list[TransferRecord] = []

    # -- operation lifecycle -----------------------------------------------

    def op_started(self, dc: int, kind: str, t: float) -> None:
        self.counts["attempted"] += 1
        if t >= self.warmup_ms:
            self._measured["attempted"] += 1
            self._dc_counts[dc].attempted += 1

    def op_finished(
        self,
        dc: int,
        kind: str,
        status: str,
        reason: str,
        t_start: float,
        t_end: float,
        used_sync: bool = False,
    ) -> None:
        self.counts[status] += 1
        if used_sync:
            self.counts["sync_ops"] += 1
        if t_start >= self.warmup_ms:
            self._measured[status] += 1
            stats = self._dc_counts[dc]
            setattr(stats, status, getattr(stats, status) + 1)
            if status == "ok":
                lat = t_end - t_start
                self._bucket_latencies.append(lat)
                self._dc_latencies[dc].append(lat)
        if self.record_ops:
            self.op_log.append(OpRecord(dc, kind, status, reason, t_start, t_end, used_sync))

    # -- global observer -------------------------------------------------------

    def observer_register(self, key: str, polarity: str, bound: int, initial: int) -> None:
        self._observers[key] = _Observer(polarity, bound, initial)

    def observer_apply(self, key: str, kind: str, delta: int, t: float) -> None:
        obs = self._observers[key]
        violated = obs.apply(kind, delta)
        if violated > 0:
            self.counts["violations"] += violated
        if self.depletion_time_ms is None:
            if all(o.slack() == 0 for o in self._observers.values()):
                self.depletion_time_ms = t

    def observer_values(self) -> dict[str, int]:
        return {k: o.value for k, o in sorted(self._observers.items())}

    def depleted(self) -> bool:
        return self.depletion_time_ms is not None

    # -- protocol events ---------------------------------------------------------

    def op_write(self) -> None:
        self.counts["op_writes"] += 1

    def sync_msg(self, n: int) -> None:
        self.counts["sync_msgs"] += n

    def transfer_request(
        self, t: float, requester_dc: int, grantor_dc: int, mode: str, target_visible: int
    ) -> None:
        self.counts["transfer_requests"] += 1
        if target_visible <= 0:
            self.counts["requests_to_exhausted"] += 1
        if self.record_ops:
            self.transfer_log.append(
                TransferRecord(t, requester_dc, grantor_dc, mode, target_visible)
            )

    def transfer_response(self) -> None:
        self.counts["transfer_responses"] += 1

    # -- aggregation boundaries -------------------------------------------------

    def mark_warmup(self, store_totals: dict[str, int]) -> None:
        self._warmup_base = dict(self.counts)
        for k in _STORE_KEYS:
            self._warmup_base[k] = store_totals.get(k, 0)

    def close_bucket(self, t: float, store_totals: dict[str, int]) -> None:
        current = dict(self.counts)
        for k in _STORE_KEYS:
            current[k] = store_totals.get(k, 0)
        prev = self._last_snapshot
        delta = {k: current[k] - prev.get(k, 0) for k in current}
        self._last_snapshot = current
        p50 = percentile(self._bucket_latencies, 50)
        p99 = percentile(self._bucket_latencies, 99)
        self._bucket_latencies = []
        self.rows.append(
            {
                "time_s": t / 1000.0,
                "strategy": self.strategy,
                "attempted": delta["attempted"],
                "ok": delta["ok"],
                "failed": delta["failed"],
                "retry": delta["retry"],
                "p50_ms": p50,
                "p99_ms": p99,
                "op_writes": delta["op_writes"],
                "store_reads": delta["store_reads"],
                "store_weak_puts": delta["store_weak_puts"],
                "store_cond_writes": delta["store_cond_writes"],
                "store_conflicts": delta["store_conflicts"],
                "sync_msgs": delta["sync_msgs"],
                "transfer_msgs": delta["transfer_requests"] + delta["transfer_responses"],
                "sync_ops": delta["sync_ops"],
                "violations": delta["violations"],
            }
        )

    def finalize(self, duration_ms: float, store_totals: dict[str, int]) -> Report:
        all_lat = [x for dc in range(self.n_dcs) for x in self._dc_latencies[dc]]
        base = self._warmup_base or {}
        window = duration_ms - self.warmup_ms if self._warmup_base else duration_ms
        report = Report(strategy=self.strategy, duration_ms=duration_ms)
        for k, v in self.counts.items():
            if hasattr(report, k):
                setattr(report, k, v)
        for k in _STORE_KEYS:
            setattr(report, k, store_totals.get(k, 0))
        report.measured_attempted = self._measured["attempted"]
        report.measured_ok = self._measured["ok"]
        report.measured_failed = self._measured["failed"]
        report.measured_retry = self._measured["retry"]
        report.measured_op_writes = self.counts["op_writes"] - base.get("op_writes", 0)
        report.measured_cond_writes = store_totals.get("store_cond_writes", 0) - base.get(
            "store_cond_writes", 0
        )
        report.measured_conflicts = store_totals.get("store_conflicts", 0) - base.get(
            "store_conflicts", 0
        )
        report.measured_window_ms = max(window, 0.0)
        if report.measured_window_ms > 0:
            report.throughput_ok_per_s = report.measured_ok / (report.measured_window_ms / 1000)
        report.p50_ms = percentile(all_lat, 50)
        report.p99_ms = percentile(all_lat, 99)
        for dc in range(self.n_dcs):
            stats = self._dc_counts[dc]
            stats.p50_ms = percentile(self._dc_latencies[dc], 50)
            stats.p99_ms = percentile(self._dc_latencies[dc], 99)
            report.per_dc[dc] = stats
        report.observer_values = self.observer_values()
        report.depletion_time_ms = self.depletion_time_ms
        if self.record_ops:
            report.op_log = self.op_log
            report.transfer_log = self.transfer_log
        return report


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def csv_lines(config_desc: str, metrics: Metrics, report: Report) -> list[str]:
    """Full CSV: config echo, versioned header, bucket rows, summary comments."""
    lines = [
        f"# config: {config_desc}",
        f"# columns: v{CSV_VERSION}",
        ",".join(CSV_COLUMNS),
    ]
    for row in metrics.rows:
        lines.append(",".join(_cell(row[c]) for c in CSV_COLUMNS))
    lines.append(
        "# final: "
        + " ".join(
            [
                f"attempted={report.attempted}",
                f"ok={report.ok}",
                f"failed={report.failed}",
                f"retry={report.retry}",
                f"violations={report.violations}",
                f"op_writes={report.op_writes}",
                f"store_cond_writes={report.store_cond_writes}",
                f"store_conflicts={report.store_conflicts}",
                f"sync_ops={report.sync_ops}",
                f"transfer_requests={report.transfer_requests}",
                f"throughput_ok_per_s={report.throughput_ok_per_s:.3f}",
                f"p50_ms={_cell(report.p50_ms)}",
                f"p99_ms={_cell(report.p99_ms)}",
                f"depletion_time_ms={_cell(report.depletion_time_ms)}",
                f"converged={report.converged}",
                "values="
                + ";".join(f"{k}:{v}" for k, v in sorted(report.observer_values.items())),
            ]
        )
    )
    for dc in sorted(report.per_dc):
        s = report.per_dc[dc]
        lines.append(
            f"# dc{dc}: attempted={s.attempted} ok={s.ok} failed={s.failed} "
            f"retry={s.retry} p50_ms={_cell(s.p50_ms)} p99_ms={_cell(s.p99_ms)}"
        )
    return lines
