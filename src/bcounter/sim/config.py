"""Scenario configuration: validation, JSON loading, deterministic echo.

The dataclasses are the schema: ``config_from_dict`` and ``describe`` walk
``fields()`` and look up each field's annotation in ``_TYPES``, one strict
JSON reader and one echo per annotation. A record (``CounterSpec``, a fault)
is read from its own fields and echoed as their echoes joined by its
``echo_seps``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from enum import Enum
from typing import Any, Callable

from ..crdt import BoundedCounter, CounterError, Polarity
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
    polarity: str = "lower"
    bound: int = 0
    initial: int = 0
    echo_seps = ":::"  # c:lower:0:6000


@dataclass(frozen=True)
class PartitionFault:
    groups: tuple[tuple[int, ...], ...]
    start_ms: float
    end_ms: float
    echo_seps = "@-"  # 0,1/2@1500-3500


@dataclass(frozen=True)
class CrashFault:
    dc: int
    node: int
    start_ms: float
    end_ms: float
    echo_seps = ".@-"  # 0.1@2000-4000


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
        # check below; every time (each field named *_ms) must be finite, and
        # none may be negative, since the kernel cannot wait a negative delay
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
            if v < 0:
                raise ConfigInvalid(f"{name} must be >= 0, got {v!r}")
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
            try:  # every strategy is held to the counter the bounded ones seed
                BoundedCounter.new(Polarity(c.polarity), c.bound, self.n_dcs, 0, c.initial)
            except (ValueError, CounterError) as e:
                raise ConfigInvalid(f"counter {c.key!r}: {e}") from None
        for p in self.partitions:
            for g in p.groups:
                for dc in g:
                    if not 0 <= dc < self.n_dcs:
                        raise ConfigInvalid(f"partition group names unknown DC {dc}")
            if p.end_ms <= p.start_ms:
                raise ConfigInvalid("partition end must be after start")
        if self.crashes and self.strategy not in (Strategy.BCSRV, Strategy.BCSRV_NOBATCH):
            raise ConfigInvalid(f"strategy {self.strategy.value} has no owner nodes to crash")
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
        if self.rebalance_threshold is not None and self.rebalance_threshold < 1:
            raise ConfigInvalid("rebalance_threshold must be >= 1")
        if not 0 <= self.jitter_frac < 1:
            raise ConfigInvalid("jitter_frac must be within [0, 1)")

    def describe(self) -> str:
        """One-line deterministic echo of every setting, in field order."""
        return " ".join(f"{f.name}={_echo(f, getattr(self, f.name))}" for f in fields(self))


# -- readers and echoes, one pair per field annotation ------------------------

Reader = Callable[[str, Any], Any]


def _reject(name: str, v: Any, expected: str):
    raise ConfigInvalid(f"field {name!r}: cannot read {v!r} as {expected}")


def _read_int(name: str, v: Any) -> int:
    # JSON has one number type: 3.0 is read as 3, but 3.5 and true are not ints
    if type(v) is float and v.is_integer():
        return int(v)
    return v if type(v) is int else _reject(name, v, "an integer")


def _read_float(name: str, v: Any) -> float:
    return float(v) if type(v) in (int, float) else _reject(name, v, "a number")


def _read_bool(name: str, v: Any) -> bool:
    return v if type(v) is bool else _reject(name, v, "true or false")


def _read_str(name: str, v: Any) -> str:
    return v if type(v) is str else _reject(name, v, "a string")


def _list_of(item: Reader) -> Reader:
    def read(name: str, v: Any) -> list:
        return [item(name, x) for x in v] if type(v) is list else _reject(name, v, "a list")

    return read


def _one_or_list(item: Reader) -> Reader:
    many = _list_of(item)
    return lambda name, v: many(name, v) if type(v) is list else item(name, v)


def _read_enum(enum: type[Enum]) -> Reader:
    def read(name: str, v: Any) -> Enum:
        try:
            return enum(v)
        except ValueError:
            choices = ", ".join(m.value for m in enum)
            raise ConfigInvalid(f"unknown {name} {v!r} (choices: {choices})") from None

    return read


def _read_rtts(name: str, v: Any) -> dict[tuple[int, int], float] | None:
    if v is None:
        return None
    if type(v) is not list:
        _reject(name, v, "a list of [dc, dc, ms]")
    table = {}
    for entry in v:
        if type(entry) is not list or len(entry) != 3:
            raise ConfigInvalid(f"rtts entries must be [dc, dc, ms]; got {entry!r}")
        a, b, ms = entry
        table[(_read_int(name, a), _read_int(name, b))] = _read_float(name, ms)
    return table


def _read_groups(name: str, v: Any) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(g) for g in _list_of(_list_of(_read_int))(name, v))


def _read_record(cls: type) -> Reader:
    """Reads one ``cls`` from a JSON object: a field with a default is
    optional, any key that is not a field is rejected."""
    label = "".join(f" {c.lower()}" if c.isupper() else c for c in cls.__name__).strip()
    names = {f.name for f in fields(cls)}
    required = [f.name for f in fields(cls) if f.default is MISSING]

    def read(_: str, entry: Any):
        try:
            if type(entry) is not dict:
                raise ConfigInvalid("must be an object")
            if any(k not in entry for k in required):
                raise ConfigInvalid(f"need at least a {', '.join(required)}")
            extra = sorted(set(entry) - names)
            if extra:
                raise ConfigInvalid(f"unknown fields {extra}")
            return cls(**{f.name: _read(f, entry[f.name]) for f in fields(cls) if f.name in entry})
        except ConfigInvalid as e:
            raise ConfigInvalid(f"bad {label} {entry!r}: {e}") from None

    return read


_g = "{:g}".format


def _echo_list(item: Callable[[Any], str], sep: str = ",") -> Callable[[Any], str]:
    return lambda v: sep.join(map(item, v)) if isinstance(v, list) else item(v)


def _echo_rtts(v: dict[tuple[int, int], float] | None) -> str:
    table = symmetric_rtts(v if v is not None else DEFAULT_RTTS)
    return ";".join(f"{a}-{b}:{ms:g}" for (a, b), ms in sorted(table.items()))


def _echo_record(rec: Any) -> str:
    first, *rest = (_echo(f, getattr(rec, f.name)) for f in fields(rec))
    return first + "".join(sep + text for sep, text in zip(rec.echo_seps, rest))


_TYPES: dict[str, tuple[Reader, Callable[[Any], str]]] = {
    "int": (_read_int, str),
    "float": (_read_float, _g),
    "bool": (_read_bool, str),
    "str": (_read_str, str),
    "int | None": (
        lambda name, v: None if v is None else _read_int(name, v),
        lambda v: "auto" if v is None else str(v),
    ),
    "float | list[float]": (_one_or_list(_read_float), _echo_list(_g)),
    "int | list[int]": (_one_or_list(_read_int), _echo_list(str)),
    "Strategy": (_read_enum(Strategy), lambda v: v.value),
    "OpFlag": (_read_enum(OpFlag), lambda v: v.value),
    "dict[tuple[int, int], float] | None": (_read_rtts, _echo_rtts),
    "tuple[tuple[int, ...], ...]": (
        _read_groups,
        lambda v: "/".join(",".join(map(str, g)) for g in v),
    ),
}
for _cls in (CounterSpec, PartitionFault, CrashFault):
    _TYPES[f"list[{_cls.__name__}]"] = (
        _list_of(_read_record(_cls)),
        _echo_list(_echo_record, sep=";"),
    )


def _read(f: Field, v: Any) -> Any:
    return _TYPES[f.type][0](f.name, v)


def _echo(f: Field, v: Any) -> str:
    return _TYPES[f.type][1](v)


def config_from_dict(raw: dict) -> SimConfig:
    """Build and validate a SimConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be an object")
    names = {f.name for f in fields(SimConfig)}
    for key in raw:
        if key not in names:
            raise ConfigInvalid(f"unknown config field {key!r}")
    cfg = SimConfig(**{f.name: _read(f, raw[f.name]) for f in fields(SimConfig) if f.name in raw})
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
