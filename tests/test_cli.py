"""CLI surface: exit codes, config echo, CSV emission, trace files."""

import json

import pytest

from bcounter.cli import main
from bcounter.sim.scenarios import expand, scenario_names


def test_check_small_instance_verified(capsys):
    code = main(["check", "--replicas", "2", "--bound", "0", "--initial", "2",
                 "--decs", "2", "--transfers", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Verified" in out
    assert "replicas=2" in out  # resolved parameters are echoed


@pytest.mark.parametrize("polarity,bound", [("lower", 0), ("upper", 5)])
def test_check_echoes_every_flag(capsys, polarity, bound):
    assert main(["check", "--replicas", "2", "--polarity", polarity, "--bound", str(bound),
                 "--initial", "2", "--decs", "1", "--max-states", "900"]) == 0
    (echo,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("check: ")]
    assert echo == (
        f"check: replicas=2 polarity={polarity} bound={bound} initial=2 incs=0 decs=1 "
        "transfers=0 merges=4 updates=None depth=None max_states=900 unchecked_dec=False"
    )


def test_check_mutant_exits_one(capsys):
    code = main(["check", "--replicas", "2", "--bound", "0", "--initial", "2",
                 "--decs", "2", "--transfers", "1", "--unchecked-dec"])
    out = capsys.readouterr().out
    assert code == 1
    assert "Counterexample" in out


def test_check_bad_usage_exits_two(capsys):
    assert main(["check"]) == 2  # --replicas is required
    assert main(["check", "--replicas", "0"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()
    # malformed specs: a one-line error, never a traceback or exit 1
    for flags in (["--initial", "-1"],
                  ["--polarity", "upper", "--initial", "3"],
                  ["--bound", "99999999999999999999"]):
        assert main(["check", "--replicas", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_check_negative_cap_exits_two(capsys):
    # a negative cap explored nothing and used to print a vacuous Verified
    code = main(["check", "--replicas", "2", "--initial", "2", "--decs", "2",
                 "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Verified" not in captured.out
    assert "max_depth" in captured.err


def test_check_reports_wall_time_on_stderr_only(capsys):
    flags = ["check", "--replicas", "2", "--initial", "2", "--decs", "2"]
    assert main(flags) == 0
    first = capsys.readouterr()
    assert "wall_s=" in first.err and "states_per_s=" in first.err
    assert first.err.endswith(" symmetry=1\n")  # n=2 has only the identity renaming
    assert "wall_s" not in first.out
    assert main(flags) == 0
    assert capsys.readouterr().out == first.out


def test_check_counts_orbits_of_the_renamings(capsys):
    flags = ["check", "--replicas", "3", "--initial", "2", "--decs", "1", "--merges", "2"]
    assert main(flags) == 0
    captured = capsys.readouterr()
    assert captured.err.endswith(" symmetry=2\n")  # renaming replicas 1 and 2
    assert "Verified: states=" in captured.out


def test_check_state_budget_exceeded_exits_two(capsys):
    code = main(["check", "--replicas", "3", "--initial", "50", "--decs", "6",
                 "--transfers", "3", "--max-states", "50"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_trace_roundtrip_through_replay(tmp_path, capsys):
    trace = tmp_path / "probe.json"
    assert main(["check", "--replicas", "2", "--initial", "3", "--decs", "1",
                 "--transfers", "1", "--trace-out", str(trace)]) == 0
    assert main(["replay", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "match:" in out

    doc = json.loads(trace.read_text())
    doc["state_hash"] = "f" * 64
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["replay", str(bad)]) == 1


def _set_spec(key, value):
    def edit(doc):
        doc["spec"][key] = value
        return doc

    return edit


def _set_steps(doc):
    doc["steps"] = [1, 2]
    return doc


@pytest.mark.parametrize(
    "edit,needle",
    [
        (_set_spec("max_updates", -1), "max_updates"),
        (_set_spec("foo", 1), "exactly the keys"),
        (_set_spec("n", "3"), "spec n"),
        (_set_steps, "steps"),
        (lambda doc: [1], "exactly the keys"),
    ],
    ids=["negative-cap", "extra-key", "string-n", "flat-steps", "not-an-object"],
)
def test_replay_rejects_edited_spec(tmp_path, capsys, edit, needle):
    trace = tmp_path / "probe.json"
    assert main(["check", "--replicas", "2", "--initial", "3", "--decs", "1",
                 "--trace-out", str(trace)]) == 0
    trace.write_text(json.dumps(edit(json.loads(trace.read_text()))))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_replay_unreadable_exits_two(tmp_path):
    assert main(["replay", str(tmp_path / "absent.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["replay", str(garbage)]) == 2


def test_simulate_echoes_config_and_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "bcsrv",
        "clients_per_dc": 3,
        "duration_ms": 1500,
        "counters": [{"key": "k", "initial": 400}],
        "seed": 6,
    }))
    out_file = tmp_path / "run.csv"
    assert main(["simulate", str(cfg), "--out", str(out_file)]) == 0
    echoed = capsys.readouterr().out
    assert "# config:" in echoed
    assert "seed=6" in echoed
    text = out_file.read_text()
    assert text.splitlines()[1] == "# columns: v1"


def test_simulate_overrides_take_effect(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "bcsrv",
        "clients_per_dc": 3,
        "duration_ms": 1200,
        "counters": [{"key": "k", "initial": 400}],
    }))
    assert main(["simulate", str(cfg), "--seed", "11", "--strategy", "weak",
                 "--clients", "2", "--out", str(tmp_path / "o.csv")]) == 0
    echoed = capsys.readouterr().out
    assert "seed=11" in echoed
    assert "strategy=weak" in echoed
    assert "clients_per_dc=2" in echoed


def test_simulate_same_seed_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "bcclt",
        "clients_per_dc": 2,
        "duration_ms": 1200,
        "counters": [{"key": "k", "initial": 300}],
        "seed": 8,
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_and_bench_report_kernel_rate_on_stderr_only(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "bcsrv",
        "clients_per_dc": 2,
        "duration_ms": 1000,
        "counters": [{"key": "k", "initial": 300}],
        "seed": 3,
    }))
    assert main(["simulate", str(cfg)]) == 0
    first = capsys.readouterr()
    (line,) = [x for x in first.err.splitlines() if x.startswith("sim: ")]
    fields = dict(kv.split("=") for kv in line.split()[1:])
    assert set(fields) == {"wall_s", "events", "events_per_s"}
    assert int(fields["events"]) > 0
    assert "wall_s" not in first.out and "events" not in first.out
    assert main(["simulate", str(cfg)]) == 0
    assert capsys.readouterr().out == first.out
    assert main(["bench", "single-counter", "--strategy", "bcsrv", "--clients", "2,3",
                 "--duration", "500", "--out", str(tmp_path / "results")]) == 0
    bench = capsys.readouterr()
    assert sum(x.startswith("sim: wall_s=") for x in bench.err.splitlines()) == 2
    for csv in (tmp_path / "results").iterdir():
        assert "wall_s" not in csv.read_text()


def test_simulate_malformed_config_exits_two_with_line(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n "strategy": "weak",\n}\n')
    assert main(["simulate", str(cfg)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_mistyped_field_exits_two_without_traceback(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"write_ms": "abc"}))
    assert main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "write_ms" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"intra_dc_ms": -1},
        {"strategy": "bcsrv", "crash_detect_ms": -5,
         "crashes": [{"dc": 0, "node": 1, "start_ms": 100, "end_ms": 200}]},
        {"partitions": [{"groups": [[0], [1, 2]], "start_ms": -100, "end_ms": 200}]},
    ],
    ids=["intra", "crash-detect", "partition-start"],
)
def test_simulate_negative_time_exits_two_without_traceback(tmp_path, capsys, doc):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strategy", ["bcsrv", "weak"])
@pytest.mark.parametrize("counter", [{"initial": 2**63}, {"bound": -(2**63) - 1}])
def test_simulate_counter_outside_int64_exits_two(tmp_path, capsys, strategy, counter):
    # every strategy is held to the 64-bit counter the bounded ones seed
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"strategy": strategy, "counters": [{"key": "c", **counter}]}))
    assert main(["simulate", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: counter 'c': ") and "64-bit" in line


def test_simulate_unknown_field_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"warp_speed": 9}))
    assert main(["simulate", str(cfg)]) == 2
    assert "warp_speed" in capsys.readouterr().err


def test_bench_writes_one_csv_per_sweep_point(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["bench", "single-counter", "--strategy", "bcsrv",
                 "--clients", "2,3", "--duration", "1000",
                 "--seed", "2", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["single-counter-bcsrv-c2.csv", "single-counter-bcsrv-c3.csv"]


def test_bench_rejects_unknown_scenario(capsys):
    assert main(["bench", "not-a-scenario"]) == 2


def test_bench_rejects_bad_clients(capsys):
    assert main(["bench", "single-counter", "--clients", "ten"]) == 2


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "final counter value" in out
    assert "# config:" in out


def test_scenarios_expand_shapes():
    assert scenario_names() == sorted(scenario_names())
    points = expand("violation-count", clients=(1, 2), seed=1)
    names = [p.name for p in points]
    assert len(points) == 5 * 2  # every strategy crossed with both counts
    assert "violation-count-weak-c1" in names
    for p in points:
        p.config.validate()
        assert p.config.seed == 1
    with pytest.raises(KeyError):
        expand("nope")
