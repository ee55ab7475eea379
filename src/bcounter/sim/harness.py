"""Experiment harness: wires a configuration into one simulated run.

A run builds the event kernel, network, per-DC stores, metrics, and the
configured strategy driver, seeds every counter everywhere, then spawns one
looping process per client. Client processes draw from their own named random
stream so results are reproducible per seed regardless of scheduling noise
elsewhere.

Phases:

1. load: clients issue operations with fixed think time until the configured
   duration elapses, or, for depletion runs, until a global observer sees all
   counters pinned at their bound (plus a post-depletion tail).
2. drain: clients stop starting new operations; the run continues until every
   in-flight operation resolved.
3. quiesce: the background synchronization keeps running; the harness probes
   durable state once per sync period and records how many periods it took
   for all DCs to converge.

The metrics bucket closer and an optional warmup marker run alongside. Faults
(network partitions, owner-node crashes) fire at their configured times.
"""

from __future__ import annotations

import random

from ..store import DCStore
from .config import CrashFault, OpFlag, PartitionFault, SimConfig
from .kernel import Simulator
from .metrics import Metrics, Report
from .net import Network
from .strategies import Driver, make_driver

DRAIN_CAP_MS = 30000.0  # give in-flight ops this long to resolve after stop
PROBE_CAP_PERIODS = 40  # convergence probe budget, in sync periods
CHUNK_MS = 50.0  # stepping granularity for phase checks


class Run:
    """One configured simulation, stepped to completion by run()."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.sim = Simulator()
        self.net = Network(
            self.sim,
            cfg.n_dcs,
            rtts=cfg.rtt_table(),
            intra_ms=cfg.intra_dc_ms,
            jitter_frac=cfg.jitter_frac,
            rng=random.Random(f"{cfg.seed}:net"),
        )
        self.stores = [
            DCStore(dc, cfg.read_ms, cfg.write_ms_at(dc), self.net.intra_delay)
            for dc in range(cfg.n_dcs)
        ]
        self.metrics = Metrics(
            cfg.strategy.value,
            cfg.n_dcs,
            self.stores,
            warmup_ms=cfg.warmup_ms,
            record_ops=cfg.record_ops,
        )
        self.driver: Driver = make_driver(cfg, self.sim, self.net, self.stores, self.metrics)
        self.keys = sorted(spec.key for spec in cfg.counters)
        self.stopped = False
        self._client_procs = []
        self._last_bucket_t = 0.0

    # -- setup ------------------------------------------------------------

    def _setup(self) -> None:
        cfg = self.cfg
        for spec in cfg.counters:
            self.driver.seed(spec)
            polarity = self.driver.polarities[spec.key]
            self.metrics.observer_register(spec.key, polarity, spec.bound, spec.initial)
        self.driver.start()
        for fault in cfg.partitions:
            self.sim.spawn(self._partition_fault(fault))
        for fault in cfg.crashes:
            self.sim.spawn(self._crash_fault(fault))
        for dc in range(cfg.n_dcs):
            for idx in range(cfg.clients_at(dc)):
                rng = random.Random(f"{cfg.seed}:client:{dc}:{idx}")
                self._client_procs.append(self.sim.spawn(self._client(dc, idx, rng)))
        self.sim.spawn(self._bucket_closer())
        if cfg.warmup_ms > 0:
            # a lambda, not the bound method: a traced run attributes each
            # scheduled callback to the module that defines it
            self.sim.schedule(cfg.warmup_ms, lambda: self.metrics.mark_warmup())

    def _partition_fault(self, fault: PartitionFault):
        yield fault.start_ms
        self.net.partition([list(g) for g in fault.groups])
        yield fault.end_ms - fault.start_ms
        self.net.heal()

    def _crash_fault(self, fault: CrashFault):
        # validate() admits crashes only for the owner-node strategies
        cluster = self.driver.replicas[fault.dc]
        yield fault.start_ms
        cluster.crash_node(fault.node)
        detect = min(self.cfg.crash_detect_ms, fault.end_ms - fault.start_ms)
        yield detect
        cluster.mark_failed(fault.node)
        yield fault.end_ms - fault.start_ms - detect
        cluster.recover_node(fault.node)

    def _client(self, dc: int, idx: int, rng: random.Random):
        cfg = self.cfg
        actor = f"{dc}:{idx}"
        flag = "local" if cfg.op_flag is OpFlag.LOCAL else "global"
        yield rng.uniform(0, cfg.think_ms)  # stagger startup
        while not self.stopped:
            key = self.keys[rng.randrange(len(self.keys))]
            kind = "inc" if rng.random() < cfg.inc_fraction else "dec"
            t0 = self.sim.now
            self.metrics.op_started(dc, kind, t0)
            status, reason, used_sync = yield from self.driver.client_op(
                dc, actor, key, kind, 1, flag
            )
            self.metrics.op_finished(dc, kind, status, reason, t0, self.sim.now, used_sync)
            if status == "ok":
                self.metrics.observer_apply(key, kind, 1, self.sim.now)
            yield cfg.think_ms

    def _bucket_closer(self):
        while True:
            yield self.cfg.bucket_ms
            self._last_bucket_t = self.sim.now
            self.metrics.close_bucket(self.sim.now)

    # -- phase control --------------------------------------------------------

    def _run_chunks(self, until: float, stop_when=None) -> None:
        while self.sim.now < until:
            self.sim.run(until=min(self.sim.now + CHUNK_MS, until))
            if stop_when is not None and stop_when():
                return

    def execute(self) -> tuple[Metrics, Report]:
        cfg = self.cfg
        self._setup()
        if cfg.run_until_depleted:
            self._run_chunks(cfg.max_duration_ms, stop_when=self.metrics.depleted)
            if self.metrics.depleted():
                tail = min(self.sim.now + cfg.post_depletion_ms, cfg.max_duration_ms)
                self.sim.run(until=tail)
        else:
            self.sim.run(until=cfg.duration_ms)
        self.stopped = True
        drain_end = self.sim.now + DRAIN_CAP_MS
        self._run_chunks(
            drain_end, stop_when=lambda: not any(p.alive for p in self._client_procs)
        )
        periods = 0
        while not self.driver.converged() and periods < PROBE_CAP_PERIODS:
            self.sim.run(until=self.sim.now + cfg.sync_period_ms)
            periods += 1
        if self.sim.now > self._last_bucket_t:
            self.metrics.close_bucket(self.sim.now)
        report = self.metrics.finalize(self.sim.now)
        report.convergence_sync_periods = periods
        values = self.driver.converged_values()
        report.converged_values = values
        report.converged = self.driver.converged() and values == report.observer_values
        return self.metrics, report


def run(cfg: SimConfig) -> tuple[Metrics, Report]:
    return Run(cfg).execute()
