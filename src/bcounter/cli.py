"""Command-line entry point: check, simulate, bench, replay, demo.

Every command prints its fully resolved parameters (including the seed)
before doing any work, and all outputs are reproducible byte-for-byte from
the command line plus config plus seed. Wall-clock figures, which are not,
go to stderr only.

Exit codes: 0 success / Verified; 1 Counterexample or divergent replay;
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .checker import (
    BudgetTooLarge,
    Counterexample,
    ExploreSpec,
    InvalidStep,
    Trace,
    Verified,
    explore,
    replay,
    symmetries,
    world_hash,
)
from .crdt import Polarity
from .sim.config import ConfigInvalid, SimConfig, Strategy, load_config
from .sim.harness import Run, run
from .sim.metrics import csv_lines
from .sim.scenarios import expand, replace_duration, scenario_names


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bcounter", description="bounded counter simulator and checker"
    )
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="exhaustively check a small replica group")
    check.add_argument("--replicas", type=int, required=True)
    check.add_argument("--polarity", choices=["lower", "upper"], default="lower")
    check.add_argument("--bound", type=int, default=0)
    check.add_argument("--initial", type=int, default=0)
    check.add_argument("--incs", type=int, default=0, help="increments per replica")
    check.add_argument("--decs", type=int, default=0, help="decrements per replica")
    check.add_argument("--transfers", type=int, default=0, help="transfers per replica")
    check.add_argument("--merges", type=int, default=4, help="total merge events")
    check.add_argument("--updates", type=int, default=None, help="cap on total updates")
    check.add_argument("--depth", type=int, default=None, help="cap on total events")
    check.add_argument("--max-states", type=int, default=5_000_000)
    check.add_argument("--trace-out", type=Path, default=None)
    check.add_argument("--unchecked-dec", action="store_true", help=argparse.SUPPRESS)

    sim = sub.add_parser("simulate", help="run one simulation from a config file")
    sim.add_argument("config", type=Path)
    _sim_overrides(sim)

    bench = sub.add_parser("bench", help="run a bundled benchmark scenario")
    bench.add_argument("scenario", choices=scenario_names())
    _sim_overrides(bench)
    bench.add_argument(
        "--clients",
        type=str,
        default=None,
        help="comma-separated client counts per DC, overrides the sweep",
    )

    rep = sub.add_parser("replay", help="re-run a stored trace and verify its hash")
    rep.add_argument("trace", type=Path)

    sub.add_parser("demo", help="tiny end-to-end run with a readable summary")
    return top


def _sim_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--duration", type=float, default=None, help="milliseconds")
    p.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default=None
    )
    if p.prog.endswith("simulate"):
        p.add_argument("--clients", type=int, default=None, help="clients per DC")


# check's spec flags by argparse dest, each with the ExploreSpec field it
# sets, in echo order
_CHECK_FLAGS = (
    ("replicas", "n"), ("polarity", "polarity"), ("bound", "bound"), ("initial", "initial"),
    ("incs", "incs"), ("decs", "decs"), ("transfers", "transfers"), ("merges", "max_merges"),
    ("updates", "max_updates"), ("depth", "max_depth"), ("max_states", "max_states"),
    ("unchecked_dec", "unchecked_decrement"),
)


def _cmd_check(args) -> int:
    given = {field: getattr(args, flag) for flag, field in _CHECK_FLAGS}
    spec = ExploreSpec(**{**given, "polarity": Polarity(args.polarity)})
    print("check: " + " ".join(f"{flag}={getattr(args, flag)}" for flag, _ in _CHECK_FLAGS))
    started = time.perf_counter()
    try:
        result = explore(spec)
    except (BudgetTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    rate = f" states_per_s={result.states / wall:.0f}" if isinstance(result, Verified) else ""
    # the counts are of orbits under the renamings explore reduced by; say how many
    print(f"check: wall_s={wall:.3f}{rate} symmetry={len(symmetries(spec.n))}", file=sys.stderr)
    if isinstance(result, Verified):
        print(f"Verified: states={result.states} transitions={result.transitions}")
        if args.trace_out:
            args.trace_out.write_text(result.probe.to_json() + "\n")
            print(f"probe trace written to {args.trace_out}")
        return 0
    print(f"Counterexample: {result.invariant}")
    for step, action in enumerate(result.trace.steps, 1):
        print(f"  {step}. {action!r}")
    print(f"  per-replica values: {result.values}")
    if args.trace_out:
        args.trace_out.write_text(result.trace.to_json() + "\n")
        print(f"counterexample trace written to {args.trace_out}")
    return 1


def _emit(lines: list[str], out: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
        print(f"# wrote {out}")


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.duration is not None:
        cfg = replace_duration(cfg, args.duration)
    if args.strategy is not None:
        cfg.strategy = Strategy(args.strategy)
    if getattr(args, "clients", None) is not None and isinstance(args.clients, int):
        cfg.clients_per_dc = args.clients
    cfg.validate()
    return cfg


def _simulate(cfg: SimConfig):
    """One simulation; its wall-clock cost goes to stderr, like check's."""
    sim_run = Run(cfg)
    started = time.perf_counter()
    result = sim_run.execute()
    wall = time.perf_counter() - started
    events = sim_run.sim.events
    print(
        f"sim: wall_s={wall:.3f} events={events} events_per_s={events / max(wall, 1e-9):.0f}",
        file=sys.stderr,
    )
    return result


def _cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except (ConfigInvalid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# config: {cfg.describe()}")
    metrics, report = _simulate(cfg)
    _emit(csv_lines(cfg.describe(), metrics, report), args.out)
    return 0


def _cmd_bench(args) -> int:
    strategies = (Strategy(args.strategy),) if args.strategy else None
    clients = None
    if args.clients is not None:
        try:
            clients = tuple(int(x) for x in args.clients.split(","))
        except ValueError:
            print(f"error: bad --clients value {args.clients!r}", file=sys.stderr)
            return 2
    try:
        points = expand(
            args.scenario,
            strategies=strategies,
            clients=clients,
            seed=args.seed if args.seed is not None else 0,
            duration_ms=args.duration,
        )
    except (KeyError, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir: Path | None = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for point in points:
        print(f"# sweep: {point.name}")
        print(f"# config: {point.config.describe()}")
        metrics, report = _simulate(point.config)
        lines = [f"# sweep: {point.name}"] + csv_lines(
            point.config.describe(), metrics, report
        )
        _emit(lines, out_dir / f"{point.name}.csv" if out_dir else None)
    return 0


def _cmd_replay(args) -> int:
    try:
        trace = Trace.from_json(args.trace.read_text())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: unreadable trace: {exc}", file=sys.stderr)
        return 2
    print(
        f"replay: steps={len(trace.steps)} replicas={trace.spec.n} "
        f"expected_hash={trace.state_hash[:16]}..."
    )
    try:
        world = replay(trace)
    except (InvalidStep, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    got = world_hash(world)
    if got == trace.state_hash:
        print(f"match: {got[:16]}... values={tuple(v.value() for v in world)}")
        return 0
    print(f"divergent: got {got[:16]}...", file=sys.stderr)
    return 1


def _cmd_demo(args) -> int:
    from .sim.config import CounterSpec

    cfg = SimConfig(
        strategy=Strategy.BCSRV,
        clients_per_dc=5,
        duration_ms=3000.0,
        counters=[CounterSpec("demo", bound=0, initial=300)],
        seed=1,
    )
    print(f"# config: {cfg.describe()}")
    metrics, report = run(cfg)
    print(
        f"ran {report.duration_ms:.0f} ms simulated: {report.ok} ops succeeded, "
        f"{report.failed} failed, {report.violations} bound violations"
    )
    p50 = report.p50_ms if report.p50_ms is not None else 0.0
    print(
        f"final counter value {report.converged_values['demo']} "
        f"(observer agrees: {report.converged}), "
        f"median latency {p50:.1f} ms"
    )
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "replay": _cmd_replay,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
