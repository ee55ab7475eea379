"""The benchmark's workloads: inputs from a seed, one timed run, output checks.

Each workload is prepared in two steps so set-up and run time are measured
apart. ``prepare`` builds and validates the inputs and constructs the run
(for a simulation, the ``Run`` with its kernel, stores and middleware; for
the checker, the spec and its initial world). The callable it returns does
the timed work: a simulation up to a finalized ``Report`` and its rendered
CSV lines, or the checker up to its verdict. ``check`` then inspects the
outcome outside the timed region.

The simulation calls go through module attributes (``harness.Run``,
``metrics.csv_lines``, ``checker.explore``) so that a traced run, which
patches those attributes, times the same calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from bcounter import checker
from bcounter.sim import harness, metrics, scenarios
from bcounter.sim.config import CounterSpec, SimConfig, Strategy

# Sizes. The full sizes keep each workload's shape at a run length of a few
# seconds, so one benchmark run can take several samples; the tiny sizes keep
# the same shape for the smoke tests.
SRV_CLIENTS, SRV_DURATION_MS = 200, 8000.0
SRV_TINY_CLIENTS, SRV_TINY_DURATION_MS = 20, 2500.0
DEPLETION_CLIENTS, DEPLETION_INITIAL = 100, 2000
DEPLETION_TINY_CLIENTS, DEPLETION_TINY_INITIAL = 20, 100
CHECK_MERGES, CHECK_UPDATES = 5, 5
CHECK_TINY_MERGES, CHECK_TINY_UPDATES = 2, 3


@dataclass
class Outcome:
    """What one timed run produced."""

    ops: int  # simulated client ops resolved; 1 (the verdict) for the checker
    digest: str  # sha256 of the CSV lines, or of the checker's verdict
    report: Any = None  # sim.metrics.Report, for simulation workloads
    dropped: int = 0  # messages the simulated network dropped
    verdict: Any = None  # checker.Verified or checker.Counterexample
    spec: Any = None  # checker.ExploreSpec


def is_sim(name: str) -> bool:
    return name != "check-n3"


def sim_config(name: str, seed: int, tiny: bool = False) -> SimConfig:
    """Simulation inputs; every random choice in the run derives from ``seed``."""
    if name == "srv-abundant":
        clients = SRV_TINY_CLIENTS if tiny else SRV_CLIENTS
        duration = SRV_TINY_DURATION_MS if tiny else SRV_DURATION_MS
        (point,) = scenarios.expand(
            "single-counter",
            strategies=(Strategy.BCSRV,),
            clients=(clients,),
            seed=seed,
            duration_ms=duration,
        )
        return point.config
    strategy = {"clt-depletion": Strategy.BCCLT, "weak-depletion": Strategy.WEAK}[name]
    clients = DEPLETION_TINY_CLIENTS if tiny else DEPLETION_CLIENTS
    (point,) = scenarios.expand(
        "violation-count", strategies=(strategy,), clients=(clients,), seed=seed
    )
    cfg = point.config
    initial = DEPLETION_TINY_INITIAL if tiny else DEPLETION_INITIAL
    cfg.counters = [CounterSpec("c", bound=0, initial=initial)]
    cfg.validate()
    return cfg


def check_spec(tiny: bool = False) -> checker.ExploreSpec:
    """The checker's input. Exploration is exhaustive, so no seed enters it."""
    return checker.ExploreSpec(
        n=3,
        initial=5,
        incs=1,
        decs=1,
        transfers=1,
        max_merges=CHECK_TINY_MERGES if tiny else CHECK_MERGES,
        max_updates=CHECK_TINY_UPDATES if tiny else CHECK_UPDATES,
    )


def _sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def prepare(name: str, seed: int, tiny: bool = False) -> Callable[[], Outcome]:
    """Set up one run of ``name``; returns the callable that does the timed work."""
    if not is_sim(name):
        spec = check_spec(tiny)
        spec.validate()
        checker.initial_world(spec)  # explore builds it again; timed here as set-up cost

        def explore() -> Outcome:
            verdict = checker.explore(spec)
            if isinstance(verdict, checker.Verified):
                text = f"{verdict.states} {verdict.transitions}\n{verdict.probe.to_json()}"
            else:
                text = str(verdict)
            digest = hashlib.sha256(text.encode()).hexdigest()
            return Outcome(ops=1, digest=digest, verdict=verdict, spec=spec)

        return explore

    cfg = sim_config(name, seed, tiny)
    run = harness.Run(cfg)

    def simulate() -> Outcome:
        result_metrics, report = run.execute()
        lines = metrics.csv_lines(cfg.describe(), result_metrics, report)
        digest = _sha256_lines(lines)
        return Outcome(report.attempted, digest, report=report, dropped=run.net.dropped)

    return simulate


def check(name: str, out: Outcome) -> list[str]:
    """Output check for one run; returns the failed conditions (empty when correct)."""
    if not is_sim(name):
        verdict = out.verdict
        if not isinstance(verdict, checker.Verified):
            return [f"expected Verified, got {verdict}"]
        failures = []
        if checker.world_hash(checker.replay(verdict.probe)) != verdict.probe.state_hash:
            failures.append("probe trace does not replay to its state_hash")
        planted = dataclasses.replace(out.spec, unchecked_decrement=True)
        if not isinstance(checker.explore(planted), checker.Counterexample):
            failures.append("unchecked_decrement spec found no counterexample")
        return failures
    r = out.report
    failures = []
    if r.attempted != r.ok + r.failed + r.retry:
        failures.append(f"attempted {r.attempted} != ok+failed+retry {r.ok + r.failed + r.retry}")
    if r.converged is not True:
        failures.append(f"converged is {r.converged}")
    if name == "weak-depletion":
        if r.violations <= 0:
            failures.append("weak baseline showed no bound violation")
    elif r.violations != 0:
        failures.append(f"{r.violations} bound violations")
    return failures
