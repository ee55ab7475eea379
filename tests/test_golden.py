"""Golden CSV digests: the sha256 of the bench CSV for a fixed set of
(scenario, strategy, seed). A refactor that means to keep behaviour keeps
every digest; one that moves a digest changes its pin and says why next to it.

To re-pin, print every config's current digest in ``GOLDEN`` order, each
followed by the digest of its CSV without the bucket rows, which shows
whether a move touched anything but bucket cells:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from bcounter.sim.config import CounterSpec, CrashFault, PartitionFault, SimConfig, Strategy
from bcounter.sim.harness import run
from bcounter.sim.metrics import csv_lines
from bcounter.sim.scenarios import expand


OWNER_NODES = (Strategy.BCSRV, Strategy.BCSRV_NOBATCH)


def single_counter(strategy):
    (point,) = expand("single-counter", strategies=(strategy,), clients=(30,), seed=1,
                      duration_ms=3_000.0)
    return point.config


def violation_count(strategy):
    (point,) = expand("violation-count", strategies=(strategy,), clients=(20,), seed=1)
    point.config.counters = [CounterSpec("c", bound=0, initial=300)]
    return point.config


def multi_counter(strategy):
    (point,) = expand("multi-counter-100", strategies=(strategy,), clients=(10,), seed=0,
                      duration_ms=3_000.0)
    return point.config


def upper(strategy):
    # the only pins of an upper bound and of a set rebalance threshold
    return SimConfig(
        strategy=strategy,
        clients_per_dc=10,
        duration_ms=3_000.0,
        think_ms=50.0,
        inc_fraction=0.8,
        counters=[CounterSpec("u", "upper", bound=400, initial=0)],
        rebalance_threshold=5,
        seed=1,
    )


def faults(strategy):
    # only the owner-node strategies have nodes to crash; the others run
    # under the partition alone
    crashes = [] if strategy not in OWNER_NODES else [
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


# Re-pinned for one cause, the store op as its caller's round trip: a store
# counts an op when its caller issues it, one intra-DC hop earlier than when
# the op reached the store, so a few ops cross a bucket edge. Only the bucket
# rows' store_reads, store_weak_puts and store_cond_writes cells moved in the
# ten pins below that changed; single-counter bcsrv-nobatch, violation-count
# weak, bcsrv and bcsrv-nobatch, and faults strong kept theirs. Every other
# line, including the `# final:` and `# dcN:` lines, is byte-identical to the
# previous pins' runs.
#
# The three bcsrv-nobatch pins were re-pinned since, for one cause: merges and
# transfer grants no longer wait behind the owner's ops. Without batching only
# an op waits while another op is unanswered; a merge or a grant rides the
# next write, as with batching. Their `# final:` lines moved (single-counter:
# ok 951 -> 1316, failed 4 -> 0); the twelve other pins did not.
GOLDEN = {
    ("single-counter", Strategy.WEAK):
        "b0c5b7fb5a68b8633ef7229c01e3fbbac530ce34d98b855eb69c4059ec8a18c5",
    ("single-counter", Strategy.STRONG):
        "bede92e4eec279bb9a138db299b90cb5d0aef2582c7a29287b73d5b6b62c8c54",
    ("single-counter", Strategy.BCCLT):
        "5a628efdafffcffc279824b6bc37c0e0e888156afebb2c804a523c7d199b97ae",
    ("single-counter", Strategy.BCSRV):
        "316914795b355fc2f7a95d51a7d097dbe914833118373d930cd32de5496ad51b",
    ("single-counter", Strategy.BCSRV_NOBATCH):
        "693ead730a5564bd39fe3e4f0a6292c2ea483add10fa7132ee0ca09c84f0a79d",
    ("violation-count", Strategy.WEAK):
        "537a6545773cb30d91ebadedab3504a1186e51a64933a086d152d2ebda10ef79",
    ("violation-count", Strategy.STRONG):
        "fca8093d449f15623e92a821ce82459f69ce00c4989a3d551788f85471791c31",
    ("violation-count", Strategy.BCCLT):
        "43de3ffbd7a9a4796acf001c08ba4d95da944cef025049b6734eb6156e3b9414",
    ("violation-count", Strategy.BCSRV):
        "d0ed4075a36ccc4f9e0f38ab472d6e1eea80ee9aa1da09841185589b4cb22662",
    ("violation-count", Strategy.BCSRV_NOBATCH):
        "0198c677e9e4591cfee0319ac5f0b87a099a1f3e7923e9dd12e67092c5f71069",
    ("faults", Strategy.WEAK):
        "a0583985a1c382cb7ba06f0ebc2bd61077e675587585eda50e28fe94c0c14adb",
    ("faults", Strategy.STRONG):
        "ddfd8c71e936d950e8554ee105e905ec2d3780e4894ba449183f37b8e2fc7c75",
    ("faults", Strategy.BCCLT):
        "8bb808776e673293a0ea54d9bc4b339ea85cf11dc91bdfea0aa831305f263754",
    ("faults", Strategy.BCSRV):
        "a25fd1c78bfd17f50ab1ee598d14e10008350e155130c50b6f0ca29796d637cf",
    ("faults", Strategy.BCSRV_NOBATCH):
        "f82dd85b6b0acbe524207920d0745c842093051cf9faff679de1c779da92bc40",
    # multi-counter-100 at seed 0 records ops that fail for `rights` on
    # counters of 10^9 units (bcclt 22, bcsrv and bcsrv-nobatch 2 each): a
    # synchronous request that meets an in-flight grant is refused. Mending
    # that moves these pins
    ("multi-counter-100", Strategy.WEAK):
        "21f93f49f06421009790bdbbb32a578c1aee062341cc4af772738a2d6a9a7abd",
    ("multi-counter-100", Strategy.STRONG):
        "3d03c51879ba0911612b83766743b90c2eaf1035a510695c893268821244eb21",
    ("multi-counter-100", Strategy.BCCLT):
        "b59b1c473b8d51039226431bdf1ed1a54aa03587143820bd8501f87dcc1be52e",
    ("multi-counter-100", Strategy.BCSRV):
        "448a3d94d9848aa6703709ac64a59d60600541be8e11fed42fbfc2ef98fe0407",
    ("multi-counter-100", Strategy.BCSRV_NOBATCH):
        "9c4be21737a9f99e0c96463bfcdd4973cf803fb3d99ee540d062fe9401099d24",
    # weak reports 115 violations. bcsrv reports 1 with the observer ending
    # at 400: the observer applies ops in reply order, not in the order they
    # became durable, so a reply overtaken by a later one reads as crossing
    # the bound; mending that moves the bcsrv pin
    ("upper", Strategy.WEAK):
        "00e135a4bca08cd5c6856fcd2b3b2ba83806e8f3dcd7812b8a9c1c6311ae4564",
    ("upper", Strategy.STRONG):
        "471a5863d56a27d448b15f678e78e5e0edd8be2c4ab396c82ad7384f8d8e3e32",
    ("upper", Strategy.BCCLT):
        "2a3edf9c0fc7f5bca73fe853a3af9add8f1edf5ce05bdae7850eaa275423fe60",
    ("upper", Strategy.BCSRV):
        "893ac283d351f4280a1571d0347a0b6cfd2d822aae60eb04220aafdf9ba19579",
    ("upper", Strategy.BCSRV_NOBATCH):
        "7b4a3c3d6c431d8af7fb79ce71606d985eb599c0d3639bbb6f8fe60871cb341a",
}

CONFIGS = {
    "single-counter": single_counter,
    "violation-count": violation_count,
    "faults": faults,
    "multi-counter-100": multi_counter,
    "upper": upper,
}


def sha256(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def digest(cfg: SimConfig) -> str:
    return sha256(csv_lines(cfg.describe(), *run(cfg)))


@pytest.mark.parametrize(
    "name,strategy", list(GOLDEN), ids=[f"{n}-{s.value}" for n, s in GOLDEN]
)
def test_csv_digest_is_pinned(name, strategy):
    assert digest(CONFIGS[name](strategy)) == GOLDEN[(name, strategy)]


if __name__ == "__main__":
    for name, strategy in GOLDEN:
        cfg = CONFIGS[name](strategy)
        lines = csv_lines(cfg.describe(), *run(cfg))
        # the config echo, the two header lines, then summary comments only
        summary = lines[:3] + [line for line in lines[3:] if line.startswith("#")]
        print(f"{name} {strategy.value} {sha256(lines)} no-buckets={sha256(summary)}")
