"""Config parsing, validation, and the resolved-settings echo line."""

import json

import pytest

from bcounter.sim.config import (
    ConfigInvalid,
    CounterSpec,
    CrashFault,
    PartitionFault,
    SimConfig,
    Strategy,
    config_from_dict,
    load_config,
)


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
        dict(retry_limit=0),
        dict(nodes_per_dc=0),
        dict(think_ms=0.0),
        dict(jitter_frac=1.0),
        dict(partitions=[PartitionFault(((0, 9),), 1.0, 2.0)]),
        dict(partitions=[PartitionFault(((0,), (1, 2)), 5.0, 2.0)]),
        dict(crashes=[CrashFault(0, 7, 1.0, 2.0)]),
        dict(rtts={(0, 1): 80.0}),  # missing pairs for 3 DCs
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
        "strategy": "bcclt",
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
    assert cfg.strategy is Strategy.BCCLT
    assert cfg.rtt_table()[(1, 0)] == 120.0
    assert cfg.counters[1].polarity == "upper"
    assert cfg.partitions[0].groups == ((0,), (1,))
    assert cfg.crashes[0].node == 1
    assert cfg.seed == 9


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
