"""Golden CSV digests: the sha256 of the bench CSV for a fixed set of
(scenario, strategy, seed). A refactor that means to keep behaviour keeps
every digest; one that moves a digest changes its pin and says why next to it.
"""

import hashlib

import pytest

from bcounter.sim.config import CounterSpec, CrashFault, PartitionFault, SimConfig, Strategy
from bcounter.sim.harness import run
from bcounter.sim.metrics import csv_lines
from bcounter.sim.scenarios import expand


def single_counter(strategy):
    (point,) = expand("single-counter", strategies=(strategy,), clients=(30,), seed=1,
                      duration_ms=3_000.0)
    return point.config


def violation_count(strategy):
    (point,) = expand("violation-count", strategies=(strategy,), clients=(20,), seed=1)
    point.config.counters = [CounterSpec("c", bound=0, initial=300)]
    return point.config


def faults(strategy):
    # weak has no owner nodes to crash; it runs under the partition alone
    crashes = [] if strategy is Strategy.WEAK else [
        CrashFault(dc=0, node=1, start_ms=2_000.0, end_ms=4_000.0)
    ]
    return SimConfig(
        strategy=strategy,
        clients_per_dc=4,
        duration_ms=6_000.0,
        think_ms=50.0,
        counters=[CounterSpec("k", bound=0, initial=2_000)],
        partitions=[PartitionFault(groups=((0, 1), (2,)), start_ms=1_500.0, end_ms=3_500.0)],
        crashes=crashes,
        seed=1,
    )


GOLDEN = {
    ("single-counter", Strategy.WEAK):
        "6e32bf782b333c056262d3b626acc5085fdc9b94b18de7ccc78489f17f79cf32",
    ("single-counter", Strategy.STRONG):
        "5af320a78e0fc744fabc1125c719c9f6fd9b9caa692406aff0874ac594ac08e2",
    ("single-counter", Strategy.BCCLT):
        "ac4a17dd6f375461cc07284a8d8cf58cdd3493090addcaa4188376eec7a6ea39",
    ("single-counter", Strategy.BCSRV):
        "2afa15099018f4eb1ee20a6cbb56a6fbe0d30e17fcf6c387415dd952f1c63a5f",
    # bcsrv-nobatch: synchronous acquisition now counts the rights that ops
    # and transfers parked ahead of a re-admitted op will take, so that op
    # asks for rights instead of failing with "rights" (failed 48 -> 4)
    ("single-counter", Strategy.BCSRV_NOBATCH):
        "13aa08a4db0861d99fd6612101cfb926daad1cf8bf3cc299e4d87bb2564be1cd",
    ("violation-count", Strategy.WEAK):
        "0f0570e911f65de951da6570fcd7fe760aeb99a7aefb1780e129d574af5b625a",
    ("violation-count", Strategy.STRONG):
        "c85c9b3fcd044dd7618fd33965fc7614d24a9582de8df882b96a2f54e02ffdd4",
    ("violation-count", Strategy.BCCLT):
        "bbc4a618c4890f54d4fa374d45fb833a172b0e128b77ca2e44c401e8bb272a57",
    ("violation-count", Strategy.BCSRV):
        "8dfe4befa7728670335d4f6ae36c2d38771b13532c7b17f9c0ce5e852cc37120",
    # moved with the single-counter bcsrv-nobatch pin, for the same reason:
    # more ops ask for rights (transfer requests 44 -> 73), fewer fail
    ("violation-count", Strategy.BCSRV_NOBATCH):
        "d159088fb9798e4643a22b75148c8153f5ef0e88198c7a029b06ef4e605026f1",
    ("faults", Strategy.WEAK):
        "1b6110a6f45cff184674a5b24a12f487acdf272358c9e8e8f49b03fd951c95ac",
    ("faults", Strategy.BCSRV):
        "bbbd62dc3688f58497400da4d2da8a3393986d41d03835216cf650ca3158ff64",
    # last moved when bcsrv-nobatch became the batching writer with one waiter
    # per write (acquisition and rebalancing read the working copy, which can
    # hold that waiter); counting parked work in acquisition leaves this run as
    # it was
    ("faults", Strategy.BCSRV_NOBATCH):
        "5feea3625b4eae2c709f0968c0bef4d8e82ab12d834342c0687e1fa451b9e445",
}

CONFIGS = {
    "single-counter": single_counter,
    "violation-count": violation_count,
    "faults": faults,
}


def digest(cfg: SimConfig) -> str:
    text = "\n".join(csv_lines(cfg.describe(), *run(cfg))) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name,strategy", list(GOLDEN), ids=[f"{n}-{s.value}" for n, s in GOLDEN]
)
def test_csv_digest_is_pinned(name, strategy):
    assert digest(CONFIGS[name](strategy)) == GOLDEN[(name, strategy)]
