"""boxsearch benchmark: closed-loop workloads with checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-n8 --seed 1 --seconds 36 --trace 0

Workloads: study-n3, solve-n8, p0-n5, cyclic (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Details
of the run (environment, tail percentile and sample count, failures,
set-up samples) go to perfbench/out/<workload>-trace<0|1>.json.

This launcher starts the workload process (perfbench/worker.py) with
OMP/OpenBLAS/MKL pinned to one thread. Only one worker runs at a time.
Set-up time is measured from just before a worker is started to the
moment it reports set-up done; the untraced run repeats set-up in
SETUP_PROBES extra workers first and reports the median. Times are
scaled to the reference speed (see reference.py); the unscaled wall
figures are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("study-n3", "solve-n8", "p0-n5", "cyclic")
SETUP_PROBES = 4
# the whole run must end within this many seconds
RUN_BUDGET_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def now() -> float:
    # system-wide on Linux, so comparable with the worker's clock
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one worker to completion; returns its report and its wall
    set-up time."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    started = now()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the run budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    report = json.loads(lines[-1])
    return report, report["ready"] - started


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(report: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "commit": git_commit(),
    }


def measure(args) -> dict:
    """Run the workload; untraced runs also set up SETUP_PROBES times more.

    Each set-up time is scaled to the reference speed by the kernel timed
    right after that set-up (see reference.py)."""
    deadline = now() + RUN_BUDGET_S
    probes = []
    if not args.trace:
        probes = [start_worker(args, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
    report, setup = start_worker(args, deadline, setup_only=False)
    probes.append((report, setup))
    report["setup_wall_s"] = [wall for _, wall in probes]
    if not args.trace:
        scaled = [wall * r["setup_scale"] for r, wall in probes]
        report["metrics"]["setup_s"] = (statistics.median(scaled), "s")
        report["wall"]["setup_s"] = statistics.median(report["setup_wall_s"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="boxsearch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        report = measure(args)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(report)
    failures = report["failures"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if report.get("absent"):
        print("absent wrap sites: " + ", ".join(report["absent"]))
    wall = report.get("wall", {})
    for name, (value, unit) in report["metrics"].items():
        unscaled = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:26s} {value:14.6g} {unit}{unscaled}")
    if not args.trace:
        print(f"  {'error_rate':26s} {report['error_rate']:14.6g} "
              f"({len(failures)} of {report['attempted']} games failed)")
        print(f"  times are scaled to the reference speed by "
              f"{report['speed_scale']:.4f}; game_ms_tail is "
              f"p{report['tail_percentile']:.2f} of {report['samples']} "
              f"games; setup_s is the median of "
              f"{len(report['setup_wall_s'])} set-ups")
    for k, reason in failures[:5]:
        print(f"  failed game {k}: {reason}")

    OUT.mkdir(parents=True, exist_ok=True)
    details = dict(report, environment=env, workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))

    # a tail made of failed games is infinite; JSON has no infinity
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None,
                   "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
