"""Runs one workload in a fresh process and prints JSON lines.

Usage: python3 perfbench/worker.py {setup|serve|trace} WORKLOAD SEED

``bcounter`` must be importable from the checkout's ``src`` (run.py sets
PYTHONPATH).

setup    time the import of bcounter plus one set-up of the workload
serve    for each line read from stdin, do one timed, checked run of the seed
         and print it; at the end of stdin, print the process's peak
         resident memory
trace    one untraced and one traced run of the seed; report the per-layer
         metrics of the traced run
"""

import time

_T0 = time.perf_counter()  # before bcounter is imported: set-up includes the import

import workloads  # noqa: E402  (imports bcounter)

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bcounter  # noqa: E402
from tracer import LAYERS, Tracer, traced  # noqa: E402

MAX_UNATTRIBUTED_FRAC = 0.1


def setup(name: str, seed: int) -> dict:
    workloads.prepare(name, seed)
    return {"setup_s": time.perf_counter() - _T0}


def _timed(name: str, seed: int, tiny: bool, tracer: Tracer | None = None):
    gc.collect()
    go = workloads.prepare(name, seed, tiny)
    if tracer is None:
        t0 = time.perf_counter()
        out = go()
        return out, time.perf_counter() - t0
    with traced(tracer):
        t0 = time.perf_counter()
        out = go()
        wall = time.perf_counter() - t0
    return out, wall


def sample(name: str, seed: int, tiny: bool = False, digest: str | None = None) -> dict:
    """One timed run of the seed and its output check.

    ``digest`` is the CSV digest of an earlier run of the same seed, which
    this run must reproduce.
    """
    out, wall = _timed(name, seed, tiny)
    failures = workloads.check(name, out)
    if digest is not None and out.digest != digest:
        failures.append("output differs from the first run of this seed")
    return {"wall_s": wall, "ops": out.ops, "digest": out.digest, "failures": failures}


def serve(name: str, seed: int) -> dict:
    digest = None
    for _ in sys.stdin:
        result = sample(name, seed, digest=digest)
        digest = digest or result["digest"]
        print(json.dumps(result), flush=True)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(name: str, seed: int, tiny: bool = False) -> dict:
    plain, plain_wall = _timed(name, seed, tiny)
    tracer = Tracer()
    out, wall = _timed(name, seed, tiny, tracer)
    traced_failures = workloads.check(name, out)
    if out.digest != plain.digest:
        traced_failures.append("traced output differs from the untraced output")
    # Time outside every span, measured apart from the layers' self times:
    # glue between the outermost spans plus the counting hooks inside them.
    unattributed = wall - tracer.root_s + tracer.hook_s
    attributed = sum(tracer.self_s.values())
    if abs(attributed + unattributed - wall) > 1e-6 * wall:
        traced_failures.append(
            f"self times {attributed} + unattributed {unattributed} != traced wall {wall}"
        )
    if unattributed >= MAX_UNATTRIBUTED_FRAC * wall:
        traced_failures.append(f"unattributed {unattributed} s of traced wall {wall} s")
    metrics = layer_metrics(tracer, plain, plain_wall, wall, unattributed)
    samples = [
        {"wall_s": plain_wall, "digest": plain.digest, "failures": workloads.check(name, plain)},
        {"wall_s": wall, "digest": out.digest, "failures": traced_failures, "traced": True},
    ]
    return {
        "samples": samples,
        "metrics": metrics,
        "calls": tracer.calls,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }


def layer_metrics(t: Tracer, plain, plain_wall: float, wall: float, unattributed: float) -> dict:
    """Per-layer metrics as {name: [value, unit]}; 0 where a layer does not run."""

    def calls(layer, *names):
        return t.calls_of(layer, *names)[0]

    def us(layer, *names):
        n, total = t.calls_of(layer, *names)
        return total / n * 1e6 if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = t.counts.get
    report = plain.report
    ok = report.ok if report else 0
    updates = calls("middleware_client", "ClientMiddleware.update")
    cond_writes = calls("store", "DCStore.put_conditional")
    requests = calls("transfer", "handle_request")
    verdict = plain.verdict
    states = getattr(verdict, "states", 0)
    transitions = getattr(verdict, "transitions", 0)
    m = {f"{layer}.self_s": [t.self_s[layer], "s"] for layer in LAYERS}
    m.update(
        {
            "crdt.encode.calls": [calls("crdt", "BoundedCounter.encode"), "count"],
            "crdt.decode.calls": [calls("crdt", "BoundedCounter.decode"), "count"],
            "crdt.merge.calls": [calls("crdt", "BoundedCounter.merge"), "count"],
            "crdt.encode.us": [us("crdt", "BoundedCounter.encode"), "us"],
            "crdt.decode.us": [us("crdt", "BoundedCounter.decode"), "us"],
            "crdt.merge.us": [us("crdt", "BoundedCounter.merge"), "us"],
            "crdt.update.us": [
                us(
                    "crdt",
                    "BoundedCounter.increment",
                    "BoundedCounter.decrement",
                    "BoundedCounter.transfer",
                ),
                "us",
            ],
            "crdt.local_rights.us": [us("crdt", "BoundedCounter.local_rights"), "us"],
            "transfer.requests": [requests, "count"],
            "transfer.granted_frac": [ratio(counts("transfer.granted", 0), requests), "ratio"],
            "store.reads": [calls("store", "DCStore.get"), "count"],
            "store.cond_writes": [cond_writes, "count"],
            "store.weak_puts": [calls("store", "DCStore.put"), "count"],
            "store.conflict_frac": [
                ratio(report.store_conflicts, report.store_cond_writes) if report else 0.0,
                "ratio",
            ],
            "store.siblings_per_read": [
                ratio(counts("store.siblings", 0), counts("store.records", 0)),
                "ratio",
            ],
            "middleware_client.updates": [updates, "count"],
            "middleware_client.writes_per_ok": [
                ratio(counts("cond_writes.middleware_client", 0), ok),
                "ratio",
            ],
            "middleware_client.sync_acquire_frac": [
                ratio(report.sync_ops, updates) if report else 0.0,
                "ratio",
            ],
            "middleware_server.requests": [
                calls("middleware_server", "ServerCluster.client_request"),
                "count",
            ],
            "middleware_server.ops_per_write": [
                ratio(ok, counts("cond_writes.middleware_server", 0)),
                "ratio",
            ],
            "sim.kernel.events": [counts("events", 0), "count"],
            "sim.kernel.processes": [counts("processes", 0), "count"],
            "sim.kernel.queue_peak": [counts("queue_peak", 0), "count"],
            "sim.net.messages": [calls("sim.net", "Network.send"), "count"],
            "sim.net.dropped": [plain.dropped, "count"],
            "sim.strategies.tally_decode.us": [us("sim.strategies", "TallyCounter.decode"), "us"],
            "sim.strategies.tally_merge.us": [us("sim.strategies", "TallyCounter.merge"), "us"],
            "sim.strategies.tally_actors": [
                ratio(counts("tally.actors", 0), counts("tally.decodes", 0)),
                "ratio",
            ],
            "checker.states": [states, "count"],
            "checker.transitions": [transitions, "count"],
            "checker.states_per_s": [ratio(states, plain_wall) if verdict else 0.0, "1/s"],
            "checker.encodes_per_transition": [
                ratio(calls("crdt", "BoundedCounter.encode"), transitions) if verdict else 0.0,
                "ratio",
            ],
            "checker.seen_keys": [len(t.seen_worlds), "count"],
            "trace.unattributed_s": [unattributed, "s"],
            "trace.overhead_frac": [wall / plain_wall - 1, "ratio"],
            "model.ok": [ok, "count"],
            "model.failed": [report.failed if report else 0, "count"],
            "model.violations": [report.violations if report else 0, "count"],
            "model.p50_ms": [(report.p50_ms or 0.0) if report else 0.0, "ms"],
            "model.p99_ms": [(report.p99_ms or 0.0) if report else 0.0, "ms"],
            "model.writes_per_ok": [report.writes_per_ok() if report else 0.0, "ratio"],
            "model.conflict_frac": [report.conflict_fraction() if report else 0.0, "ratio"],
        }
    )
    return m


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    root = Path(__file__).resolve().parent.parent
    if not Path(bcounter.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: bcounter imported from {bcounter.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        result = setup(name, seed)
    elif mode == "serve":
        result = serve(name, seed)
    elif mode == "trace":
        result = trace(name, seed)
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
