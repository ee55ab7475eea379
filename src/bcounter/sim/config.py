"""Scenario configuration: validation, JSON loading, deterministic echo."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .net import DEFAULT_RTTS, symmetric_rtts


class ConfigInvalid(Exception):
    pass


class Strategy(Enum):
    WEAK = "weak"
    STRONG = "strong"
    BCCLT = "bcclt"  # counter middleware in the client library
    BCSRV = "bcsrv"  # counter middleware in per-DC owner nodes, batching on
    BCSRV_NOBATCH = "bcsrv-nobatch"  # same, one write per operation


class OpFlag(Enum):
    LOCAL = "local"  # never block on cross-DC rights acquisition
    GLOBAL = "global"  # may synchronously acquire rights before failing


@dataclass(frozen=True)
class CounterSpec:
    key: str
    bound: int = 0
    initial: int = 0
    polarity: str = "lower"


@dataclass(frozen=True)
class PartitionFault:
    groups: tuple[tuple[int, ...], ...]
    start_ms: float
    end_ms: float


@dataclass(frozen=True)
class CrashFault:
    dc: int
    node: int
    start_ms: float
    end_ms: float


@dataclass
class SimConfig:
    strategy: Strategy = Strategy.BCSRV
    n_dcs: int = 3
    rtts: dict[tuple[int, int], float] | None = None  # None: default 3-DC table
    intra_dc_ms: float = 1.0
    jitter_frac: float = 0.1
    read_ms: float = 1.0
    write_ms: float | list[float] = 5.0
    clients_per_dc: int | list[int] = 10
    inc_fraction: float = 0.2
    think_ms: float = 100.0
    counters: list[CounterSpec] = field(
        default_factory=lambda: [CounterSpec(key="c", bound=0, initial=6000)]
    )
    op_flag: OpFlag = OpFlag.GLOBAL
    retry_limit: int = 16
    sync_period_ms: float = 50.0
    rebalance_period_ms: float = 100.0
    rebalance_threshold: int | None = None  # None: a tenth of the per-DC share
    nodes_per_dc: int = 3
    owner_timeout_ms: float = 2000.0
    crash_detect_ms: float = 200.0
    duration_ms: float = 10_000.0
    warmup_ms: float = 0.0
    bucket_ms: float = 1000.0
    run_until_depleted: bool = False
    post_depletion_ms: float = 1500.0
    max_duration_ms: float = 120_000.0
    quiesce: bool = True
    record_ops: bool = False
    partitions: list[PartitionFault] = field(default_factory=list)
    crashes: list[CrashFault] = field(default_factory=list)
    seed: int = 0

    # -- derived views ---------------------------------------------------------

    def clients_at(self, dc: int) -> int:
        if isinstance(self.clients_per_dc, list):
            return self.clients_per_dc[dc]
        return self.clients_per_dc

    def write_ms_at(self, dc: int) -> float:
        if isinstance(self.write_ms, list):
            return self.write_ms[dc]
        return self.write_ms

    def rtt_table(self) -> dict[tuple[int, int], float]:
        return symmetric_rtts(self.rtts if self.rtts is not None else DEFAULT_RTTS)

    def store_latency_ms(self, dc: int = 0) -> float:
        return self.read_ms + self.write_ms_at(dc)

    def validate(self) -> None:
        if self.n_dcs < 1:
            raise ConfigInvalid("n_dcs must be >= 1")
        table = self.rtt_table()
        # NaN compares false with everything, so it would pass every range
        # check below; every time (each field named *_ms) must be finite
        times = [(f"rtt {a}->{b}", v) for (a, b), v in table.items()]
        for f in fields(self):
            if f.name.endswith("_ms"):
                v = getattr(self, f.name)
                times += [(f.name, x) for x in (v if isinstance(v, list) else [v])]
        for fault in (*self.partitions, *self.crashes):
            times += [("fault start_ms", fault.start_ms), ("fault end_ms", fault.end_ms)]
        for name, v in times:
            if not math.isfinite(v):
                raise ConfigInvalid(f"{name} must be finite, got {v!r}")
        for a in range(self.n_dcs):
            for b in range(self.n_dcs):
                if a == b:
                    continue
                v = table.get((a, b), 0)
                if v <= 0:
                    raise ConfigInvalid(f"rtt for DC pair {a}->{b} missing or <= 0")
        if not 0.0 <= self.inc_fraction <= 1.0:
            raise ConfigInvalid("inc_fraction must be within [0, 1]")
        if isinstance(self.clients_per_dc, list) and len(self.clients_per_dc) != self.n_dcs:
            raise ConfigInvalid("clients_per_dc list length must equal n_dcs")
        if isinstance(self.write_ms, list) and len(self.write_ms) != self.n_dcs:
            raise ConfigInvalid("write_ms list length must equal n_dcs")
        for dc in range(self.n_dcs):
            if self.clients_at(dc) < 0:
                raise ConfigInvalid("client counts must be >= 0")
            if self.write_ms_at(dc) <= 0 or self.read_ms <= 0:
                raise ConfigInvalid("store latencies must be > 0")
        if not self.counters:
            raise ConfigInvalid("at least one counter required")
        seen = set()
        for c in self.counters:
            if c.key in seen:
                raise ConfigInvalid(f"duplicate counter key {c.key!r}")
            seen.add(c.key)
            if c.polarity not in ("lower", "upper"):
                raise ConfigInvalid(f"counter {c.key!r}: bad polarity {c.polarity!r}")
            if c.polarity == "lower" and c.initial < c.bound:
                raise ConfigInvalid(f"counter {c.key!r}: initial below lower bound")
            if c.polarity == "upper" and c.initial > c.bound:
                raise ConfigInvalid(f"counter {c.key!r}: initial above upper bound")
        for p in self.partitions:
            for g in p.groups:
                for dc in g:
                    if not 0 <= dc < self.n_dcs:
                        raise ConfigInvalid(f"partition group names unknown DC {dc}")
            if p.end_ms <= p.start_ms:
                raise ConfigInvalid("partition end must be after start")
        for c in self.crashes:
            if not 0 <= c.dc < self.n_dcs:
                raise ConfigInvalid(f"crash names unknown DC {c.dc}")
            if not 0 <= c.node < self.nodes_per_dc:
                raise ConfigInvalid(f"crash names unknown node {c.node}")
            if c.end_ms <= c.start_ms:
                raise ConfigInvalid("crash end must be after start")
        if self.nodes_per_dc < 1:
            raise ConfigInvalid("nodes_per_dc must be >= 1")
        if self.retry_limit < 1:
            raise ConfigInvalid("retry_limit must be >= 1")
        for name in (
            "think_ms",
            "sync_period_ms",
            "rebalance_period_ms",
            "owner_timeout_ms",
            "bucket_ms",
        ):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"{name} must be > 0")
        if self.duration_ms < 0 or self.warmup_ms < 0:
            raise ConfigInvalid("durations must be >= 0")
        if not 0 <= self.jitter_frac < 1:
            raise ConfigInvalid("jitter_frac must be within [0, 1)")

    def describe(self) -> str:
        """One-line deterministic echo of every resolved setting."""
        table = self.rtt_table()
        rtt_txt = ";".join(
            f"{a}-{b}:{table[(a, b)]:g}"
            for a in range(self.n_dcs)
            for b in range(self.n_dcs)
            if a != b and (a, b) in table
        )
        counters_txt = ";".join(
            f"{c.key}:{c.polarity}:{c.bound}:{c.initial}" for c in self.counters
        )
        parts = [
            f"strategy={self.strategy.value}",
            f"n_dcs={self.n_dcs}",
            f"rtts={rtt_txt}",
            f"intra_dc_ms={self.intra_dc_ms:g}",
            f"jitter_frac={self.jitter_frac:g}",
            f"read_ms={self.read_ms:g}",
            f"write_ms={self.write_ms if not isinstance(self.write_ms, list) else ','.join(f'{w:g}' for w in self.write_ms)}",
            f"clients_per_dc={self.clients_per_dc if not isinstance(self.clients_per_dc, list) else ','.join(str(c) for c in self.clients_per_dc)}",
            f"inc_fraction={self.inc_fraction:g}",
            f"think_ms={self.think_ms:g}",
            f"counters={counters_txt}",
            f"op_flag={self.op_flag.value}",
            f"retry_limit={self.retry_limit}",
            f"sync_period_ms={self.sync_period_ms:g}",
            f"rebalance_period_ms={self.rebalance_period_ms:g}",
            f"rebalance_threshold={self.rebalance_threshold if self.rebalance_threshold is not None else 'auto'}",
            f"nodes_per_dc={self.nodes_per_dc}",
            f"owner_timeout_ms={self.owner_timeout_ms:g}",
            f"crash_detect_ms={self.crash_detect_ms:g}",
            f"duration_ms={self.duration_ms:g}",
            f"warmup_ms={self.warmup_ms:g}",
            f"bucket_ms={self.bucket_ms:g}",
            f"run_until_depleted={self.run_until_depleted}",
            f"post_depletion_ms={self.post_depletion_ms:g}",
            f"quiesce={self.quiesce}",
            f"partitions={len(self.partitions)}",
            f"crashes={len(self.crashes)}",
            f"seed={self.seed}",
        ]
        return " ".join(parts)


_SIMPLE_FIELDS = {
    "n_dcs": int,
    "intra_dc_ms": float,
    "jitter_frac": float,
    "read_ms": float,
    "inc_fraction": float,
    "think_ms": float,
    "retry_limit": int,
    "sync_period_ms": float,
    "rebalance_period_ms": float,
    "nodes_per_dc": int,
    "owner_timeout_ms": float,
    "crash_detect_ms": float,
    "duration_ms": float,
    "warmup_ms": float,
    "bucket_ms": float,
    "run_until_depleted": bool,
    "post_depletion_ms": float,
    "max_duration_ms": float,
    "quiesce": bool,
    "record_ops": bool,
    "seed": int,
}


def config_from_dict(raw: dict) -> SimConfig:
    """Build and validate a SimConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be an object")
    cfg = SimConfig()
    known = set(_SIMPLE_FIELDS) | {
        "strategy",
        "rtts",
        "write_ms",
        "clients_per_dc",
        "counters",
        "op_flag",
        "rebalance_threshold",
        "partitions",
        "crashes",
    }
    for key in raw:
        if key not in known:
            raise ConfigInvalid(f"unknown config field {key!r}")
    for name, cast in _SIMPLE_FIELDS.items():
        if name in raw:
            try:
                setattr(cfg, name, cast(raw[name]))
            except (TypeError, ValueError):
                raise ConfigInvalid(f"field {name!r}: cannot read {raw[name]!r}")
    if "strategy" in raw:
        try:
            cfg.strategy = Strategy(raw["strategy"])
        except ValueError:
            choices = ", ".join(s.value for s in Strategy)
            raise ConfigInvalid(f"unknown strategy {raw['strategy']!r} (choices: {choices})")
    if "op_flag" in raw:
        try:
            cfg.op_flag = OpFlag(raw["op_flag"])
        except ValueError:
            raise ConfigInvalid(f"unknown op_flag {raw['op_flag']!r}")
    if "rtts" in raw:
        table = {}
        for entry in raw["rtts"]:
            try:
                a, b, ms = entry
                table[(int(a), int(b))] = float(ms)
            except (TypeError, ValueError):
                raise ConfigInvalid(f"rtts entries must be [dc, dc, ms]; got {entry!r}")
        cfg.rtts = table
    if "write_ms" in raw:
        v = raw["write_ms"]
        cfg.write_ms = [float(x) for x in v] if isinstance(v, list) else float(v)
    if "clients_per_dc" in raw:
        v = raw["clients_per_dc"]
        cfg.clients_per_dc = [int(x) for x in v] if isinstance(v, list) else int(v)
    if "rebalance_threshold" in raw:
        v = raw["rebalance_threshold"]
        cfg.rebalance_threshold = None if v is None else int(v)
    if "counters" in raw:
        counters = []
        for entry in raw["counters"]:
            if not isinstance(entry, dict) or "key" not in entry:
                raise ConfigInvalid(f"counter entries need at least a key; got {entry!r}")
            extra = set(entry) - {"key", "bound", "initial", "polarity"}
            if extra:
                raise ConfigInvalid(f"counter {entry['key']!r}: unknown fields {sorted(extra)}")
            counters.append(
                CounterSpec(
                    key=str(entry["key"]),
                    bound=int(entry.get("bound", 0)),
                    initial=int(entry.get("initial", 0)),
                    polarity=str(entry.get("polarity", "lower")),
                )
            )
        cfg.counters = counters
    if "partitions" in raw:
        faults = []
        for entry in raw["partitions"]:
            try:
                faults.append(
                    PartitionFault(
                        groups=tuple(tuple(int(dc) for dc in g) for g in entry["groups"]),
                        start_ms=float(entry["start_ms"]),
                        end_ms=float(entry["end_ms"]),
                    )
                )
            except (TypeError, KeyError, ValueError):
                raise ConfigInvalid(f"bad partition fault {entry!r}")
        cfg.partitions = faults
    if "crashes" in raw:
        faults = []
        for entry in raw["crashes"]:
            try:
                faults.append(
                    CrashFault(
                        dc=int(entry["dc"]),
                        node=int(entry["node"]),
                        start_ms=float(entry["start_ms"]),
                        end_ms=float(entry["end_ms"]),
                    )
                )
            except (TypeError, KeyError, ValueError):
                raise ConfigInvalid(f"bad crash fault {entry!r}")
        cfg.crashes = faults
    cfg.validate()
    return cfg


def load_config(path: str) -> SimConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigInvalid(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigInvalid(f"config line {e.lineno}: {e.msg}")
    return config_from_dict(raw)
