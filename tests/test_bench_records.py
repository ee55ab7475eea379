"""Every committed ``BENCH_*.json`` is a readable before/after record of one
speed change: it parses, carries the keys that say what was measured, on
what machine, how and in what order, and covers every workload the
benchmark declares in ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"what", "claim", "machine", "command", "order", "workloads", "traced", "tier1_durations"}


def test_records_are_committed():
    assert len(RECORDS) >= 4


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_covers_every_workload(path):
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert declared and declared <= record["workloads"].keys()
