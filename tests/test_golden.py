"""Golden CSV digests: the sha256 of the bench CSV for a fixed set of
(scenario, strategy, seed). A refactor that means to keep behaviour keeps
every digest; one that moves a digest changes its pin and says why next to it.

To re-pin, print every config's current digest in ``GOLDEN`` order:

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


# All re-pinned for one cause: the `# config:` line (line 1) became an echo
# of every SimConfig field in field order. It now prints max_duration_ms and
# record_ops, faults in full rather than as counts, and write_ms in shortest
# form like every float ("5", was "5.0"); the removed quiesce field is gone.
# Every line after line 1 is byte-identical to the previous pins' runs.
GOLDEN = {
    ("single-counter", Strategy.WEAK):
        "683547e33da7dabaab66dbaa59e4c98b60dd2cde2724f34054a487295b76d0f8",
    ("single-counter", Strategy.STRONG):
        "8e85083e28d5e350cdcaa9c432f8e5a24b9ece2d515667bd7b2185ccc0cedba9",
    ("single-counter", Strategy.BCCLT):
        "02b6021df36052950616cb9d850d7f47c20815f0edf78f497bd192c6d5652b35",
    ("single-counter", Strategy.BCSRV):
        "a85a078938d43790f0218008eae119339fd6c32a1a69a6ee1c995f4014f525bf",
    ("single-counter", Strategy.BCSRV_NOBATCH):
        "4b64d04224843864db374c1d625939c7761d730f9bf0484894dd773bf5a64e6f",
    ("violation-count", Strategy.WEAK):
        "537a6545773cb30d91ebadedab3504a1186e51a64933a086d152d2ebda10ef79",
    ("violation-count", Strategy.STRONG):
        "f0b3997c06dc64dc94eaf019839bc95ee17aba11e560a0f0e5899db00e7c5a1b",
    ("violation-count", Strategy.BCCLT):
        "3f6abd556feace5d72738228910af94d26a6f020fbb6a24b1dcabbcaf903c33a",
    ("violation-count", Strategy.BCSRV):
        "d0ed4075a36ccc4f9e0f38ab472d6e1eea80ee9aa1da09841185589b4cb22662",
    ("violation-count", Strategy.BCSRV_NOBATCH):
        "b2800c6215d537bfa9e5a6dde44abc21fe6d48c77d87947f16d1cd8bee759761",
    ("faults", Strategy.WEAK):
        "82b07338318c214457539a3860e3d771448ebab2c4b2ced81301d61f674ec462",
    ("faults", Strategy.STRONG):
        "ddfd8c71e936d950e8554ee105e905ec2d3780e4894ba449183f37b8e2fc7c75",
    ("faults", Strategy.BCCLT):
        "e27fc5f674125b7c09a570eddee37a21d9cbdd8f24303bab2d366f2c03976b62",
    ("faults", Strategy.BCSRV):
        "d84c7c5c847ccf195213dbe268e37d911ddd1180c57bb4a323e254f14cdb491e",
    ("faults", Strategy.BCSRV_NOBATCH):
        "d230169edd72083cf6cb18b18aa2af5a73903491f932952c4a8fdaf99814a722",
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


if __name__ == "__main__":
    for name, strategy in GOLDEN:
        print(f"{name} {strategy.value} {digest(CONFIGS[name](strategy))}")
