"""Wall-clock benchmark of the bcounter simulator and checker.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload, untraced

Run it from any directory of a checkout that holds ``src/bcounter``. Only one
process works at a time:

* ``--trace 0``: one worker process repeats the seed's run for about S
  seconds, at least three times. Between its runs, this process times a
  fixed reference workload (``reference.py``) and starts the set-up probes,
  each a fresh process. Prints the end-to-end metrics: the median over the
  runs that passed their output check of the wall time, scaled by the
  reference to a fixed machine speed, and of simulated ops per scaled
  wall-second; the median set-up time; the worker's peak resident memory;
  and the share of runs that passed.
* ``--trace 1``: one process that runs the seed untraced and then traced,
  and prints the per-layer metrics of the traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the unscaled wall time. Both, with the per-run
details, the per-function call table and a sample of spans, are also written
to ``perfbench/out/``. Without ``src/bcounter`` the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

WORKLOADS = ("srv-abundant", "clt-depletion", "weak-depletion", "check-n3")
SETUP_PROBES = 12  # counted set-up probes per run, spread over its runs
MIN_SAMPLES = 3  # runs of one seed compare their outputs; a median of three resists one outlier
REF_SHARE = 0.1  # reference time after each run, as a share of that run's wall time
REF_MIN_CHUNKS = 2
# Wall times are scaled to a machine on which one reference chunk takes this
# long; on the 2-vCPU machine of the first baseline it takes about as long.
REF_NOMINAL_S = 0.1
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class WorkerFailed(Exception):
    pass


def _worker_cmd(mode: str, name: str, seed: int) -> tuple[list[str], dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return [sys.executable, str(HERE / "worker.py"), mode, name, str(seed)], env


def worker(mode: str, name: str, seed: int, timeout: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd, env = _worker_cmd(mode, name, seed)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker for {name} ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def references(ref: reference.Reference, wall: float) -> list[float]:
    """Time reference chunks for about REF_SHARE of ``wall``."""
    times: list[float] = []
    while len(times) < REF_MIN_CHUNKS or sum(times) < REF_SHARE * wall:
        times.append(ref.chunk())
    return times


def measure(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Repeat the seed's run in one worker for about ``seconds``.

    Each run's sample gets ``ref_s``, the mean reference chunk time just
    before and just after it. The set-up probes are spread over the runs, so
    that they meet the same drift of the machine's speed.
    """
    cmd, env = _worker_cmd("serve", name, seed)
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            return _alternate(proc, name, seed, seconds, deadline)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()


def _alternate(proc: subprocess.Popen, name: str, seed: int, seconds: float, deadline: float):
    # Built only now: a child started while this process is large inherits
    # its peak resident size, which would then read as the workload's.
    ref = reference.Reference()
    # the first probe may compile bytecode, so it is not counted
    worker("setup", name, seed, deadline - time.monotonic())
    setups: list[float] = []
    samples: list[dict] = []
    before = references(ref, 0.0)
    start = time.monotonic()
    wall = 0.0
    # start another run only if it should end within ``seconds``
    while len(samples) < MIN_SAMPLES or time.monotonic() - start + wall <= seconds:
        try:
            proc.stdin.write("run\n")
            proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerFailed(f"serve worker for {name} ended early") from exc
        line = proc.stdout.readline()
        if not line:
            raise WorkerFailed(f"serve worker for {name} ended early")
        result = json.loads(line)
        wall = result["wall_s"]
        after = references(ref, wall)
        result["ref_s"] = statistics.mean(before + after)
        samples.append(result)
        before = after
        done = min(1.0, (time.monotonic() - start) / seconds) if seconds > 0 else 1.0
        while len(setups) < SETUP_PROBES * done:
            setups.append(worker("setup", name, seed, deadline - time.monotonic())["setup_s"])
    proc.stdin.close()
    lines = proc.stdout.read().strip().splitlines()
    if proc.wait() != 0 or not lines:
        raise WorkerFailed(f"serve worker for {name} exited with code {proc.returncode}")
    return {"samples": samples, "setup_s": setups, **json.loads(lines[-1])}


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library's sources, which names the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bcounter").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def scaled_wall(sample: dict) -> float:
    """The run's wall time on a machine where a reference chunk takes REF_NOMINAL_S."""
    return sample["wall_s"] * REF_NOMINAL_S / sample["ref_s"]


def end_to_end(measured: dict) -> dict:
    """End-to-end metrics from ``measure``; every time is scaled by the reference."""
    samples = measured["samples"]
    passed = [s for s in samples if not s["failures"]]
    walls = [scaled_wall(s) for s in passed]
    # on check-n3 a run resolves one op, its verdict, so this is verdicts/s
    rates = [s["ops"] / scaled_wall(s) for s in passed]
    # the probes are spread over the runs, so the runs' median reference fits them
    setup_scale = REF_NOMINAL_S / statistics.median(s["ref_s"] for s in samples)
    return {
        "wall_s": [statistics.median(walls), "s"],
        "sim_ops_per_s": [statistics.median(rates), "ops/s"],
        "setup_s": [statistics.median(measured["setup_s"]) * setup_scale, "s"],
        "peak_rss_mb": [measured["peak_rss_mb"], "MB"],
        "pass_frac": [len(passed) / len(samples), "ratio"],
    }


def unscaled(details: dict) -> dict:
    """Unscaled medians of the wall and set-up times, and the reference chunk time."""
    samples = details["samples"]
    return {
        "raw_wall_s": statistics.median(s["wall_s"] for s in samples),
        "raw_setup_s": statistics.median(details["setup_s"]),
        "ref_s": statistics.median(s["ref_s"] for s in samples),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple:
    """One benchmark run; returns (result line, details for the output file)."""
    if trace:
        details = worker("trace", name, seed, deadline - time.monotonic())
        metrics = details.pop("metrics")
    else:
        details = measure(name, seed, seconds, deadline)
        if all(s["failures"] for s in details["samples"]):
            first = details["samples"][0]["failures"]
            raise WorkerFailed(f"every run of {name} failed its output check: {first}")
        metrics = end_to_end(details)
    samples = details["samples"]
    failed = sum(1 for s in samples if s["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bcounter" / "__init__.py").is_file():
        print(f"error: no bcounter sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        env = environment()
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result, details = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline
            )
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        env["loadavg_end"] = list(os.getloadavg())
        if not args.trace:
            env.update(unscaled(details))
        OUT.mkdir(exist_ok=True)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "env": env,
                  "result": result, **details}
        out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1))
        print(json.dumps({"workload": name, "env": env}))
        print(json.dumps(result))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
