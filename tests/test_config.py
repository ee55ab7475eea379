"""Config parsing, validation, and the resolved-settings echo line."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from bcounter.sim.config import (
    ConfigInvalid,
    CounterSpec,
    CrashFault,
    OpFlag,
    PartitionFault,
    SimConfig,
    Strategy,
    config_from_dict,
    load_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_validate():
    SimConfig().validate()


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_dcs=0),
        dict(inc_fraction=1.5),
        dict(clients_per_dc=[1, 2]),
        dict(write_ms=[1.0]),
        dict(counters=[]),
        dict(counters=[CounterSpec("a"), CounterSpec("a")]),
        dict(counters=[CounterSpec("a", polarity="sideways")]),
        dict(counters=[CounterSpec("a", bound=0, initial=-1)]),
        dict(counters=[CounterSpec("a", bound=5, initial=9, polarity="upper")]),
        # every strategy is held to the 64-bit counter the bounded ones seed
        dict(counters=[CounterSpec("a", bound=0, initial=2**63)]),
        dict(counters=[CounterSpec("a", "upper", bound=2**63, initial=0)]),
        dict(counters=[CounterSpec("a", bound=-(2**63) - 1, initial=0)]),
        dict(counters=[CounterSpec("a", "upper", bound=0, initial=-(2**63) - 1)]),
        # in range, but the slack, created as rights, is not
        dict(counters=[CounterSpec("a", bound=-(2**63), initial=2**63 - 1)]),
        dict(retry_limit=0),
        dict(nodes_per_dc=0),
        dict(think_ms=0.0),
        dict(jitter_frac=1.0),
        dict(partitions=[PartitionFault(((0, 9),), 1.0, 2.0)]),
        dict(partitions=[PartitionFault(((0,), (1, 2)), 5.0, 2.0)]),
        dict(crashes=[CrashFault(0, 7, 1.0, 2.0)]),
        dict(rtts={(0, 1): 80.0}),  # missing pairs for 3 DCs
        # only the owner-node strategies have nodes to crash
        dict(strategy=Strategy.WEAK, crashes=[CrashFault(0, 1, 1.0, 2.0)]),
        dict(strategy=Strategy.STRONG, crashes=[CrashFault(0, 1, 1.0, 2.0)]),
        dict(strategy=Strategy.BCCLT, crashes=[CrashFault(0, 1, 1.0, 2.0)]),
        # no time may be negative: the kernel cannot wait a negative delay
        dict(intra_dc_ms=-1.0),
        dict(crash_detect_ms=-5.0, crashes=[CrashFault(0, 1, 1.0, 2.0)]),
        dict(partitions=[PartitionFault(((0,), (1, 2)), -100.0, 2.0)]),
        dict(run_until_depleted=True, max_duration_ms=-1.0),
        dict(duration_ms=-1.0),
        dict(warmup_ms=-1.0),
        dict(post_depletion_ms=-1.0),
        # a set rebalance threshold asks for at least one right
        dict(rebalance_threshold=0),
        dict(rebalance_threshold=-3),
    ],
)
def test_validation_rejects(kw):
    with pytest.raises(ConfigInvalid):
        SimConfig(**kw).validate()


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "kw",
    [
        dict(think_ms=NAN),
        dict(write_ms=NAN),
        dict(write_ms=[5.0, NAN, 5.0]),
        dict(read_ms=INF),
        dict(intra_dc_ms=NAN),
        dict(sync_period_ms=NAN),
        dict(rebalance_period_ms=NAN),
        dict(owner_timeout_ms=NAN),
        dict(crash_detect_ms=NAN),
        dict(duration_ms=NAN),
        dict(duration_ms=INF),
        dict(warmup_ms=NAN),
        dict(bucket_ms=NAN),
        dict(post_depletion_ms=NAN),
        dict(max_duration_ms=INF),
        dict(rtts={(0, 1): NAN, (0, 2): 96.0, (1, 2): 163.0}),
        dict(partitions=[PartitionFault(((0,), (1, 2)), NAN, 2.0)]),
        dict(crashes=[CrashFault(0, 1, 1.0, NAN)]),
    ],
)
def test_validation_rejects_non_finite_times(kw):
    with pytest.raises(ConfigInvalid, match="finite"):
        SimConfig(**kw).validate()


def test_rtt_table_is_symmetric():
    cfg = SimConfig(n_dcs=2, rtts={(0, 1): 42.0})
    table = cfg.rtt_table()
    assert table[(0, 1)] == table[(1, 0)] == 42.0


def test_per_dc_lists():
    cfg = SimConfig(clients_per_dc=[1, 2, 3], write_ms=[5.0, 6.0, 7.0])
    assert cfg.clients_at(2) == 3
    assert cfg.write_ms_at(1) == 6.0
    assert cfg.store_latency_ms(0) == 6.0


def test_from_dict_full_roundtrip():
    raw = {
        "strategy": "bcsrv-nobatch",  # crashes need owner nodes
        "n_dcs": 2,
        "rtts": [[0, 1, 120]],
        "clients_per_dc": [4, 6],
        "inc_fraction": 0.5,
        "counters": [
            {"key": "a", "bound": 0, "initial": 100},
            {"key": "b", "bound": 50, "initial": 10, "polarity": "upper"},
        ],
        "partitions": [{"groups": [[0], [1]], "start_ms": 100, "end_ms": 200}],
        "crashes": [{"dc": 0, "node": 1, "start_ms": 100, "end_ms": 200}],
        "seed": 9,
    }
    cfg = config_from_dict(raw)
    assert cfg.strategy is Strategy.BCSRV_NOBATCH
    assert cfg.rtt_table()[(1, 0)] == 120.0
    assert cfg.counters[1].polarity == "upper"
    assert cfg.partitions[0].groups == ((0,), (1,))
    assert cfg.crashes[0].node == 1
    assert cfg.seed == 9


def test_from_dict_reads_integral_floats_as_ints():
    cfg = config_from_dict({"clients_per_dc": 10.0, "seed": 3.0, "write_ms": 7,
                            "rebalance_threshold": None})
    assert cfg.clients_per_dc == 10 and type(cfg.clients_per_dc) is int
    assert cfg.seed == 3 and type(cfg.seed) is int
    assert cfg.write_ms == 7.0 and type(cfg.write_ms) is float
    assert cfg.rebalance_threshold is None


@pytest.mark.parametrize(
    "raw,phrase",
    [
        ({"mystery": 1}, "unknown config field"),
        ({"strategy": "psychic"}, "unknown strategy"),
        ({"op_flag": "maybe"}, "unknown op_flag"),
        ({"counters": [{"bound": 0}]}, "need at least a key"),
        ({"counters": [{"key": "a", "colour": "red"}]}, "unknown fields"),
        ({"rtts": [[0, 1]]}, "rtts entries"),
        ({"partitions": [{"groups": [[0]]}]}, "bad partition fault"),
        ({"n_dcs": "three"}, "cannot read"),
        ([], "must be an object"),
        # each value is read strictly against its field's type
        ({"write_ms": "abc"}, "'write_ms': cannot read 'abc'"),
        ({"write_ms": [5, "x", 5]}, "'write_ms': cannot read 'x'"),
        ({"clients_per_dc": "ten"}, "'clients_per_dc': cannot read"),
        ({"clients_per_dc": 10.5}, "'clients_per_dc': cannot read 10.5"),
        ({"rebalance_threshold": "x"}, "'rebalance_threshold': cannot read"),
        ({"seed": 1.9}, "'seed': cannot read 1.9"),
        ({"seed": True}, "'seed': cannot read True"),
        ({"think_ms": False}, "'think_ms': cannot read False"),
        ({"run_until_depleted": "false"}, "'run_until_depleted': cannot read 'false'"),
        ({"record_ops": 1}, "'record_ops': cannot read 1"),
        ({"counters": [{"key": "a", "bound": "x"}]}, "bad counter spec .*'bound'"),
        ({"counters": [{"key": "a", "initial": 2.5}]}, "bad counter spec .*'initial'"),
        ({"counters": [{"key": 7}]}, "bad counter spec .*'key'"),
        ({"counters": [5]}, "bad counter spec 5: must be an object"),
        ({"counters": {"key": "a"}}, "'counters': cannot read"),
        ({"rtts": {"0-1": 80}}, "'rtts': cannot read"),
        ({"rtts": [[0, 1, "far"]]}, "'rtts': cannot read 'far'"),
        ({"partitions": {"groups": []}}, "'partitions': cannot read"),
        ({"partitions": [{"groups": [[0.5]], "start_ms": 1, "end_ms": 2}]},
         "bad partition fault"),
        ({"crashes": [{"dc": "0", "node": 1, "start_ms": 1, "end_ms": 2}]}, "bad crash fault"),
        ({"crashes": [{"dc": 0, "node": 1, "start_ms": 1, "end_ms": 2, "x": 0}]},
         "unknown fields"),
    ],
)
def test_from_dict_rejects_with_message(raw, phrase):
    with pytest.raises(ConfigInvalid, match=phrase):
        config_from_dict(raw)


def test_load_config_reports_json_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "n_dcs": 3,\n  oops\n}\n')
    with pytest.raises(ConfigInvalid, match="line 3"):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_load_config_ok(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"strategy": "weak", "seed": 3}))
    cfg = load_config(p)
    assert cfg.strategy is Strategy.WEAK
    assert cfg.seed == 3


def test_describe_contains_every_knob():
    cfg = SimConfig(seed=17)
    text = cfg.describe()
    for needle in ("strategy=", "seed=17", "rtts=", "counters=",
                   "rebalance_threshold=auto", "inc_fraction="):
        assert needle in text
    # deterministic: same config, same echo
    assert text == SimConfig(seed=17).describe()


def _other_value(f: dataclasses.Field, v):
    """A different value of ``f`` that still validates with the defaults."""
    by_type = {
        "int": lambda: v - 1 if v > 1 else v + 1,
        "float": lambda: v / 2 if v else 1.0,
        "bool": lambda: not v,
        "int | None": lambda: 5,
        "float | list[float]": lambda: [v, v, v],
        "int | list[int]": lambda: [v, v, v],
        "Strategy": lambda: Strategy.BCSRV_NOBATCH,
        "OpFlag": lambda: OpFlag.LOCAL,
        "dict[tuple[int, int], float] | None": lambda: {(0, 1): 10.0, (0, 2): 20.0,
                                                        (1, 2): 30.0},
        "list[CounterSpec]": lambda: v + [CounterSpec("d", polarity="upper", bound=9)],
        "list[PartitionFault]": lambda: [PartitionFault(((0,), (1, 2)), 1.0, 2.0)],
        "list[CrashFault]": lambda: [CrashFault(1, 2, 1.0, 2.0)],
    }
    return by_type[f.type]()


def test_describe_echoes_every_field_once_in_order():
    cfg = SimConfig()
    names = [f.name for f in dataclasses.fields(SimConfig)]
    assert [tok.split("=", 1)[0] for tok in cfg.describe().split(" ")] == names
    for f in dataclasses.fields(SimConfig):
        changed = dataclasses.replace(cfg, **{f.name: _other_value(f, getattr(cfg, f.name))})
        changed.validate()
        assert changed.describe() != cfg.describe(), f.name


def test_describe_echoes_faults_in_full():
    cfg = SimConfig(
        partitions=[PartitionFault(((0, 1), (2,)), 1500.0, 3500.0),
                    PartitionFault(((0,), (1, 2)), 4000.0, 4500.5)],
        crashes=[CrashFault(0, 1, 2000.0, 4000.0)],
    )
    text = cfg.describe()
    assert " partitions=0,1/2@1500-3500;0/1,2@4000-4500.5 " in text
    assert " crashes=0.1@2000-4000 " in text


def _readme_schema() -> str:
    text = README.read_text()
    section = text[text.index("## Config file schema"):]
    block = section[section.index("```jsonc\n") + len("```jsonc\n"):]
    return re.sub(r"//.*", "", block[:block.index("```")])


def test_readme_schema_matches_simconfig():
    raw = json.loads(_readme_schema())
    assert list(raw) == [f.name for f in dataclasses.fields(SimConfig)]
    cfg = config_from_dict(raw)
    # every value shown is the default, except one example fault of each kind
    assert dataclasses.replace(cfg, partitions=[], crashes=[]).describe() == SimConfig().describe()
