"""Run instrumentation: counters, latency percentiles, CSV rows, final report.

``Metrics`` is the run's one ledger. It keeps the protocol counters, sums the
stores' own counters, and derives the bucket rows, the ``Report`` and the
summary lines from those totals.

A global observer is fed every successful operation the moment it is
acknowledged, and tracks each counter's true global value. It exchanges no
messages with the system under test; it exists to count invariant violations
(units past the bound) and to timestamp the moment all slack is consumed.

Aggregates split at a warmup boundary: totals cover the whole run, while the
"measured" section and latency percentiles exclude everything before warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..crdt import Polarity

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

# The run's counters, each named once: ``Metrics.counts`` holds them, every
# one is a ``Report`` field, and a bucket row is their per-bucket delta.
COUNTERS = (
    "attempted",
    "ok",
    "failed",
    "retry",
    "op_writes",
    "sync_msgs",
    "transfer_requests",
    "transfer_responses",
    "requests_to_exhausted",
    "sync_ops",
    "violations",
)
# DCStore counters, summed over the run's stores as ``store_<name>``.
STORE_COUNTERS = ("reads", "weak_puts", "cond_writes", "conflicts")

# The ``# final:`` summary line, in order; ``values=`` follows.
FINAL_FIELDS = (
    "attempted",
    "ok",
    "failed",
    "retry",
    "violations",
    "op_writes",
    "store_cond_writes",
    "store_conflicts",
    "sync_ops",
    "transfer_requests",
    "throughput_ok_per_s",
    "p50_ms",
    "p99_ms",
    "depletion_time_ms",
    "converged",
)


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
    measured_ok: int = 0
    measured_cond_writes: int = 0
    measured_conflicts: int = 0
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

    __slots__ = ("polarity", "bound", "value", "inside")

    def __init__(self, polarity: Polarity, bound: int, initial: int):
        self.polarity = polarity
        self.bound = bound
        self.value = initial
        self.inside = polarity.slack(initial, bound)  # negative once past the bound

    def slack(self) -> int:
        return max(0, self.inside)

    def apply(self, kind: str, delta: int) -> int:
        """Apply one success; returns newly violated units (0 when safe)."""
        before = self.inside
        self.value += delta if kind == "inc" else -delta
        self.inside = self.polarity.slack(self.value, self.bound)
        return min(0, before) - min(0, self.inside)


class Metrics:
    """The run's ledger: every counter, the stores' totals, the bucket rows."""

    def __init__(
        self,
        strategy: str,
        n_dcs: int,
        stores=(),
        warmup_ms: float = 0.0,
        record_ops: bool = False,
    ):
        self.strategy = strategy
        self.n_dcs = n_dcs
        self.stores = stores
        self.warmup_ms = warmup_ms
        self.record_ops = record_ops
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._observers: dict[str, _Observer] = {}
        self.depletion_time_ms: float | None = None
        self._bucket_latencies: list[float] = []
        self._dc_latencies: dict[int, list[float]] = {dc: [] for dc in range(n_dcs)}
        self._dc_counts: dict[int, DcStats] = {dc: DcStats() for dc in range(n_dcs)}
        self._measured_ok = 0
        self._warmup_base: dict[str, int] | None = None
        self._last_snapshot: dict[str, int] = {}
        self.rows: list[dict] = []
        self.op_log: list[OpRecord] = []

    # -- operation lifecycle -----------------------------------------------

    def op_started(self, dc: int, kind: str, t: float) -> None:
        self.counts["attempted"] += 1
        if t >= self.warmup_ms:
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
            stats = self._dc_counts[dc]
            setattr(stats, status, getattr(stats, status) + 1)
            if status == "ok":
                self._measured_ok += 1
                lat = t_end - t_start
                self._bucket_latencies.append(lat)
                self._dc_latencies[dc].append(lat)
        if self.record_ops:
            self.op_log.append(OpRecord(dc, kind, status, reason, t_start, t_end, used_sync))

    # -- global observer -------------------------------------------------------

    def observer_register(self, key: str, polarity: Polarity, bound: int, initial: int) -> None:
        self._observers[key] = _Observer(polarity, bound, initial)

    def observer_apply(self, key: str, kind: str, delta: int, t: float) -> None:
        obs = self._observers[key]
        violated = obs.apply(kind, delta)
        if violated > 0:
            self.counts["violations"] += violated
        # the scan can pass only once this key's own slack is spent
        if self.depletion_time_ms is None and obs.slack() == 0:
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

    def transfer_request(self, target_visible: int) -> None:
        self.counts["transfer_requests"] += 1
        if target_visible <= 0:
            self.counts["requests_to_exhausted"] += 1

    def transfer_response(self) -> None:
        self.counts["transfer_responses"] += 1

    # -- aggregation boundaries -------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Every counter and every summed ``store_*`` count, as of now."""
        totals = dict(self.counts)
        for name in STORE_COUNTERS:
            totals[f"store_{name}"] = sum(getattr(s, name) for s in self.stores)
        return totals

    def mark_warmup(self) -> None:
        self._warmup_base = self.totals()

    def close_bucket(self, t: float) -> None:
        current = self.totals()
        prev = self._last_snapshot
        row = {k: v - prev.get(k, 0) for k, v in current.items()}
        self._last_snapshot = current
        row["transfer_msgs"] = row["transfer_requests"] + row["transfer_responses"]
        row["time_s"] = t / 1000.0
        row["strategy"] = self.strategy
        row["p50_ms"] = percentile(self._bucket_latencies, 50)
        row["p99_ms"] = percentile(self._bucket_latencies, 99)
        self._bucket_latencies = []
        self.rows.append(row)

    def finalize(self, duration_ms: float) -> Report:
        totals = self.totals()
        base = self._warmup_base or {}
        window = max(duration_ms - self.warmup_ms if base else duration_ms, 0.0)
        all_lat = [x for dc in range(self.n_dcs) for x in self._dc_latencies[dc]]
        for dc, stats in self._dc_counts.items():
            stats.p50_ms = percentile(self._dc_latencies[dc], 50)
            stats.p99_ms = percentile(self._dc_latencies[dc], 99)
        return Report(
            strategy=self.strategy,
            duration_ms=duration_ms,
            **totals,
            measured_ok=self._measured_ok,
            measured_cond_writes=totals["store_cond_writes"] - base.get("store_cond_writes", 0),
            measured_conflicts=totals["store_conflicts"] - base.get("store_conflicts", 0),
            throughput_ok_per_s=self._measured_ok / (window / 1000) if window > 0 else 0.0,
            p50_ms=percentile(all_lat, 50),
            p99_ms=percentile(all_lat, 99),
            per_dc=dict(self._dc_counts),
            observer_values=self.observer_values(),
            depletion_time_ms=self.depletion_time_ms,
            op_log=self.op_log if self.record_ops else None,
        )


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
    final = " ".join(f"{k}={_cell(getattr(report, k))}" for k in FINAL_FIELDS)
    values = ";".join(f"{k}:{v}" for k, v in sorted(report.observer_values.items()))
    lines.append(f"# final: {final} values={values}")
    for dc, stats in sorted(report.per_dc.items()):
        cells = " ".join(f"{f.name}={_cell(getattr(stats, f.name))}" for f in fields(DcStats))
        lines.append(f"# dc{dc}: {cells}")
    return lines
