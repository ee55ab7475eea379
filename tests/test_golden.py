"""Golden CSV digests: the sha256 of the bench CSV for a fixed set of
(scenario, strategy, seed). A refactor that means to keep behaviour keeps
every digest; one that moves a digest changes its pin and says why next to it.

Next to each digest sits its run's ``# final:`` line up to ``values=``, the
run totals, so a moved pin names the modelled numbers that moved; the digest
is the byte gate, and it also covers the observer's values per key.

To re-pin, print every config's current digest in ``GOLDEN`` order, each
followed by the digest of its CSV without the bucket rows, which shows
whether a move touched anything but bucket cells, and by its totals, then
each ``EVENT_STREAM`` entry's current tuple, then the benchmark's output
digests (``perfbench/workloads.py``): each simulation workload at seeds 0
and 7, and the checker's verdict:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
from pathlib import Path

import pytest

from bcounter.sim.config import CounterSpec, CrashFault, PartitionFault, SimConfig, Strategy
from bcounter.sim.harness import Run, run
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
#
# The four bcclt pins marked "full resync" were re-pinned since, for one
# cause: the client middleware's sync loop is now the owner's, so it also
# pushes every key every FULL_RESYNC_TICKS ticks, and a merge that gave up is
# delivered again. Its extra store reads and pushes move later jitter draws.
# single-counter kept its `# final:` line (only bucket cells moved); the
# other three moved theirs, named at each pin. faults bcclt held.
#
# The four owner pins marked "one loop pair" were re-pinned since, for one
# cause: a DC runs one sync loop and one rebalance loop, not a pair per owner
# node, and they read each key from its current owner. So a DC pushes and
# rebalances its keys in one sorted order, a former owner no longer pushes
# its stale copy or offers it to the rebalancer, and a recovered node starts
# no second pair of loops; later jitter draws move. In the two faults runs a
# former owner whose write lands after its key moved pushes that write
# itself (3 times with batching, 4 without). Each moved its `# final:`
# line and its digest without the bucket rows, named at each pin; the other
# twenty-one pins held.
#
# The two faults owner pins marked "newest durable push" were re-pinned
# since, for one cause: a DC's sync loop pushes the newest durable state that
# any of its nodes read or wrote, not the current owner's cache. So a
# returning owner's stale cache no longer leaves the DC, a key whose owner
# crashed or is cold still leaves it, and a former owner's landed write rides
# the next tick instead of its own push; later jitter draws move. Both moved
# their `# final:` line and their digest without the bucket rows; the other
# twenty-three pins held.
GOLDEN = {
    ("single-counter", Strategy.WEAK): (
        "b0c5b7fb5a68b8633ef7229c01e3fbbac530ce34d98b855eb69c4059ec8a18c5",
        "attempted=2458 ok=2458 failed=0 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=0 store_conflicts=0 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=713.043 p50_ms=10.005 p99_ms=10.242 "
        "depletion_time_ms= converged=True",
    ),
    ("single-counter", Strategy.STRONG): (
        "bede92e4eec279bb9a138db299b90cb5d0aef2582c7a29287b73d5b6b62c8c54",
        "attempted=1008 ok=430 failed=578 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=12492 store_conflicts=12062 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=113.846 p50_ms=134.597 p99_ms=255.192 "
        "depletion_time_ms= converged=True",
    ),
    ("single-counter", Strategy.BCCLT): (  # full resync
        "c89f8f001734510e8b6134a687c2b7653d51a3e0e77f5ec40daf082b14ca23da",
        "attempted=1435 ok=1013 failed=422 retry=0 violations=0 "
        "op_writes=11925 store_cond_writes=14892 store_conflicts=13671 sync_ops=64 "
        "transfer_requests=100 throughput_ok_per_s=264.615 p50_ms=50.251 p99_ms=160.329 "
        "depletion_time_ms= converged=True",
    ),
    ("single-counter", Strategy.BCSRV): (
        "316914795b355fc2f7a95d51a7d097dbe914833118373d930cd32de5496ad51b",
        "attempted=2394 ok=2394 failed=0 retry=0 violations=0 "
        "op_writes=1048 store_cond_writes=1185 store_conflicts=0 sync_ops=2 "
        "transfer_requests=12 throughput_ok_per_s=702.609 p50_ms=12.128 p99_ms=16.131 "
        "depletion_time_ms= converged=True",
    ),
    ("single-counter", Strategy.BCSRV_NOBATCH): (
        "693ead730a5564bd39fe3e4f0a6292c2ea483add10fa7132ee0ca09c84f0a79d",
        "attempted=1316 ok=1316 failed=0 retry=0 violations=0 "
        "op_writes=1316 store_cond_writes=1333 store_conflicts=0 sync_ops=2 "
        "transfer_requests=10 throughput_ok_per_s=343.200 p50_ms=109.819 p99_ms=110.719 "
        "depletion_time_ms= converged=True",
    ),
    ("violation-count", Strategy.WEAK): (
        "537a6545773cb30d91ebadedab3504a1186e51a64933a086d152d2ebda10ef79",
        "attempted=883 ok=338 failed=545 retry=0 violations=38 "
        "op_writes=0 store_cond_writes=0 store_conflicts=0 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=198.824 p50_ms=10.000 p99_ms=10.244 "
        "depletion_time_ms=548.465 converged=True",
    ),
    ("violation-count", Strategy.STRONG): (
        "fca8093d449f15623e92a821ce82459f69ce00c4989a3d551788f85471791c31",
        "attempted=957 ok=300 failed=657 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=5540 store_conflicts=5240 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=85.714 p50_ms=119.364 p99_ms=247.574 "
        "depletion_time_ms=2274.650 converged=True",
    ),
    # full resync: failed 870 -> 833, depletion_time_ms 2264.304 -> 2494.090
    ("violation-count", Strategy.BCCLT): (
        "61a8336fdb1b996c262c1235c7972f35a9de048c5165babcc40b8f3599c8c8ca",
        "attempted=1133 ok=300 failed=833 retry=0 violations=0 "
        "op_writes=2143 store_cond_writes=2907 store_conflicts=2407 sync_ops=356 "
        "transfer_requests=686 throughput_ok_per_s=82.192 p50_ms=29.846 p99_ms=292.865 "
        "depletion_time_ms=2494.090 converged=True",
    ),
    ("violation-count", Strategy.BCSRV): (
        "d0ed4075a36ccc4f9e0f38ab472d6e1eea80ee9aa1da09841185589b4cb22662",
        "attempted=841 ok=300 failed=541 retry=0 violations=0 "
        "op_writes=105 store_cond_writes=166 store_conflicts=0 sync_ops=19 "
        "transfer_requests=53 throughput_ok_per_s=153.846 p50_ms=16.277 p99_ms=165.467 "
        "depletion_time_ms=821.900 converged=True",
    ),
    ("violation-count", Strategy.BCSRV_NOBATCH): (
        "0198c677e9e4591cfee0319ac5f0b87a099a1f3e7923e9dd12e67092c5f71069",
        "attempted=910 ok=300 failed=610 retry=0 violations=0 "
        "op_writes=300 store_cond_writes=370 store_conflicts=0 sync_ops=16 "
        "transfer_requests=57 throughput_ok_per_s=115.385 p50_ms=40.574 p99_ms=351.097 "
        "depletion_time_ms=1453.787 converged=True",
    ),
    ("faults", Strategy.WEAK): (
        "a0583985a1c382cb7ba06f0ebc2bd61077e675587585eda50e28fe94c0c14adb",
        "attempted=1200 ok=1200 failed=0 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=0 store_conflicts=0 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=196.721 p50_ms=10.008 p99_ms=10.268 "
        "depletion_time_ms= converged=True",
    ),
    ("faults", Strategy.STRONG): (
        "ddfd8c71e936d950e8554ee105e905ec2d3780e4894ba449183f37b8e2fc7c75",
        "attempted=564 ok=564 failed=0 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=1899 store_conflicts=1335 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=90.968 p50_ms=91.231 p99_ms=185.143 "
        "depletion_time_ms= converged=True",
    ),
    ("faults", Strategy.BCCLT): (
        "8bb808776e673293a0ea54d9bc4b339ea85cf11dc91bdfea0aa831305f263754",
        "attempted=1013 ok=1007 failed=6 retry=0 violations=0 "
        "op_writes=2088 store_cond_writes=3306 store_conflicts=1775 sync_ops=8 "
        "transfer_requests=20 throughput_ok_per_s=163.740 p50_ms=19.778 p99_ms=60.308 "
        "depletion_time_ms= converged=True",
    ),
    # one loop pair: ok 1193 -> 1192, store_cond_writes 1649 -> 1622
    # newest durable push: ok 1192 -> 1194, op_writes 1169 -> 1170,
    # store_cond_writes 1622 -> 1636
    ("faults", Strategy.BCSRV): (
        "22040eafebbc46d489df4e164c887c6d037ac4a186c490a59abadfc89c45177d",
        "attempted=1194 ok=1194 failed=0 retry=0 violations=0 "
        "op_writes=1170 store_cond_writes=1636 store_conflicts=1 sync_ops=2 "
        "transfer_requests=10 throughput_ok_per_s=194.146 p50_ms=9.076 p99_ms=16.023 "
        "depletion_time_ms= converged=True",
    ),
    # one loop pair: op_writes 1190 -> 1189, store_cond_writes 1652 -> 1673
    # newest durable push: ok 1189 -> 1190, op_writes 1189 -> 1191,
    # store_cond_writes 1673 -> 1652
    ("faults", Strategy.BCSRV_NOBATCH): (
        "b1243c27bee6df2faff358549e85b7365161987efc449c7b6741255ff5c9932f",
        "attempted=1190 ok=1190 failed=0 retry=0 violations=0 "
        "op_writes=1191 store_cond_writes=1652 store_conflicts=1 sync_ops=2 "
        "transfer_requests=10 throughput_ok_per_s=193.496 p50_ms=9.078 p99_ms=16.188 "
        "depletion_time_ms= converged=True",
    ),
    # multi-counter-100 at seed 0 records ops that fail for `rights` on
    # counters of 10^9 units (bcclt 22, bcsrv and bcsrv-nobatch 5 each): a
    # synchronous request that meets an in-flight grant is refused. Mending
    # that moves these pins
    ("multi-counter-100", Strategy.WEAK): (
        "21f93f49f06421009790bdbbb32a578c1aee062341cc4af772738a2d6a9a7abd",
        "attempted=818 ok=818 failed=0 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=0 store_conflicts=0 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=194.286 p50_ms=10.003 p99_ms=10.266 "
        "depletion_time_ms= converged=True",
    ),
    ("multi-counter-100", Strategy.STRONG): (
        "3d03c51879ba0911612b83766743b90c2eaf1035a510695c893268821244eb21",
        "attempted=583 ok=583 failed=0 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=593 store_conflicts=10 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=162.500 p50_ms=89.610 p99_ms=112.150 "
        "depletion_time_ms= converged=True",
    ),
    # full resync: ok 752 and failed 22 held; store_cond_writes 2786 -> 2754,
    # store_conflicts 109 -> 121
    ("multi-counter-100", Strategy.BCCLT): (
        "5ab752a708076889ebf7c5c5562f14987517bcd0b539d8914b49e87bfaee218a",
        "attempted=774 ok=752 failed=22 retry=0 violations=0 "
        "op_writes=769 store_cond_writes=2754 store_conflicts=121 sync_ops=44 "
        "transfer_requests=275 throughput_ok_per_s=225.000 p50_ms=9.999 p99_ms=20.002 "
        "depletion_time_ms= converged=True",
    ),
    # one loop pair: ok 757 -> 751, failed 2 -> 5, store_cond_writes 3110 -> 3111
    ("multi-counter-100", Strategy.BCSRV): (
        "48b46430dbd70c86e07e49d3de505ebe53899dae96f46731a8d66027862c854d",
        "attempted=756 ok=751 failed=5 retry=0 violations=0 "
        "op_writes=748 store_cond_writes=3111 store_conflicts=0 sync_ops=64 "
        "transfer_requests=589 throughput_ok_per_s=236.522 p50_ms=9.004 p99_ms=14.882 "
        "depletion_time_ms= converged=True",
    ),
    # one loop pair: ok 757 -> 751, failed 2 -> 5, store_cond_writes 3102 -> 3109
    ("multi-counter-100", Strategy.BCSRV_NOBATCH): (
        "84bd8e158928fb2dfd3dfbebf8f381c52fd3289eacc1c567b7c442e28c04bb46",
        "attempted=756 ok=751 failed=5 retry=0 violations=0 "
        "op_writes=751 store_cond_writes=3109 store_conflicts=0 sync_ops=64 "
        "transfer_requests=585 throughput_ok_per_s=236.522 p50_ms=8.996 p99_ms=12.282 "
        "depletion_time_ms= converged=True",
    ),
    # weak reports 115 violations. bcsrv reports 1 with the observer ending
    # at 400: the observer applies ops in reply order, not in the order they
    # became durable, so a reply overtaken by a later one reads as crossing
    # the bound; mending that moves the bcsrv pin
    ("upper", Strategy.WEAK): (
        "00e135a4bca08cd5c6856fcd2b3b2ba83806e8f3dcd7812b8a9c1c6311ae4564",
        "attempted=1568 ok=1020 failed=548 retry=0 violations=115 "
        "op_writes=0 store_cond_writes=0 store_conflicts=0 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=323.810 p50_ms=10.000 p99_ms=10.269 "
        "depletion_time_ms=1287.102 converged=True",
    ),
    ("upper", Strategy.STRONG): (
        "471a5863d56a27d448b15f678e78e5e0edd8be2c4ab396c82ad7384f8d8e3e32",
        "attempted=516 ok=396 failed=120 retry=0 violations=0 "
        "op_writes=0 store_cond_writes=4234 store_conflicts=3838 sync_ops=0 "
        "transfer_requests=0 throughput_ok_per_s=121.846 p50_ms=107.803 p99_ms=251.730 "
        "depletion_time_ms= converged=True",
    ),
    # full resync: store_cond_writes 4856 -> 4855
    ("upper", Strategy.BCCLT): (
        "503811e9235ddb9d6a98d21665e0f7576fd040a743d97039385ed42ace743ec3",
        "attempted=807 ok=681 failed=126 retry=0 violations=0 "
        "op_writes=3327 store_cond_writes=4855 store_conflicts=3876 sync_ops=86 "
        "transfer_requests=184 throughput_ok_per_s=203.284 p50_ms=19.937 p99_ms=225.230 "
        "depletion_time_ms= converged=True",
    ),
    ("upper", Strategy.BCSRV): (
        "893ac283d351f4280a1571d0347a0b6cfd2d822aae60eb04220aafdf9ba19579",
        "attempted=843 ok=726 failed=117 retry=0 violations=1 "
        "op_writes=457 store_cond_writes=653 store_conflicts=0 sync_ops=47 "
        "transfer_requests=114 throughput_ok_per_s=223.385 p50_ms=13.252 p99_ms=266.267 "
        "depletion_time_ms=2197.199 converged=True",
    ),
    ("upper", Strategy.BCSRV_NOBATCH): (
        "7b4a3c3d6c431d8af7fb79ce71606d985eb599c0d3639bbb6f8fe60871cb341a",
        "attempted=921 ok=758 failed=163 retry=0 violations=0 "
        "op_writes=758 store_cond_writes=891 store_conflicts=0 sync_ops=29 "
        "transfer_requests=77 throughput_ok_per_s=226.269 p50_ms=20.028 p99_ms=292.231 "
        "depletion_time_ms=2104.644 converged=True",
    ),
}

# The event stream behind two pins: the events the kernel dispatched and the
# stores' totals of reads, conditional writes and conflicts, summed over the
# DCs. A change that adds or drops a hop, or an op, moves these by name even
# where the CSV keeps its bytes. single-counter bcclt was re-pinned for the
# full resync above: 63,749 events and 15,439 reads before, the same
# conditional writes and conflicts. faults bcsrv was re-pinned for the one
# loop pair above: 12,165 events and 1,649 conditional writes before, the
# same reads and conflicts. It was re-pinned again for the newest durable
# push above: 11,029 events and 1,622 conditional writes before, the same
# reads and conflicts.
EVENT_STREAM = {
    ("single-counter", Strategy.BCCLT): (63_769, 15_445, 14_892, 13_671),
    ("faults", Strategy.BCSRV): (11_070, 5, 1_636, 1),
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


def event_stream(cfg: SimConfig) -> tuple[int, int, int, int]:
    """The events dispatched and the stores' reads, conditional writes and
    conflicts, summed over the DCs."""
    r = Run(cfg)
    r.execute()
    stores = r.stores
    return (
        r.sim.events,
        sum(s.reads for s in stores),
        sum(s.cond_writes for s in stores),
        sum(s.conflicts for s in stores),
    )


def totals(lines: list[str]) -> str:
    """The ``# final:`` line's fields before ``values=``."""
    (final,) = [line for line in lines if line.startswith("# final: ")]
    return final[len("# final: ") : final.index(" values=")]


@pytest.mark.parametrize(
    "name,strategy", list(GOLDEN), ids=[f"{n}-{s.value}" for n, s in GOLDEN]
)
def test_csv_digest_is_pinned(name, strategy):
    cfg = CONFIGS[name](strategy)
    lines = csv_lines(cfg.describe(), *run(cfg))
    pin, pinned_totals = GOLDEN[(name, strategy)]
    assert totals(lines) == pinned_totals
    assert sha256(lines) == pin


@pytest.mark.parametrize(
    "name,strategy", list(EVENT_STREAM), ids=[f"{n}-{s.value}" for n, s in EVENT_STREAM]
)
def test_event_stream_is_pinned(name, strategy):
    assert event_stream(CONFIGS[name](strategy)) == EVENT_STREAM[(name, strategy)]


if __name__ == "__main__":
    for name, strategy in GOLDEN:
        cfg = CONFIGS[name](strategy)
        lines = csv_lines(cfg.describe(), *run(cfg))
        # the config echo, the two header lines, then summary comments only
        summary = lines[:3] + [line for line in lines[3:] if line.startswith("#")]
        print(f"{name} {strategy.value} {sha256(lines)} no-buckets={sha256(summary)}")
        print(f"    {totals(lines)}")
    for name, strategy in EVENT_STREAM:
        print(f"{name} {strategy.value} event stream {event_stream(CONFIGS[name](strategy))}")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for name, seeds in [
        ("srv-abundant", (0, 7)),
        ("clt-depletion", (0, 7)),
        ("weak-depletion", (0, 7)),
        ("check-n3", (0,)),  # the checker takes no seed
    ]:
        for seed in seeds:
            print(f"perfbench {name} seed {seed} {workloads.prepare(name, seed)().digest}")
