"""One workload process: set up, run the closed loop, report raw results.

Started by run.py, never directly by the user. It imports boxsearch from
the checkout's own src/, builds the workload's inputs from the seed, plays
one warm-up game from a seed of its own, and records the moment set-up
ended. Unless --setup-only is given, it then plays games one after the
other for --seconds seconds, checks each result outside the timed region,
and prints one JSON line with the measurements.

Between games it also times the reference kernel (reference.py), and it
scales the time metrics to the reference speed; the unscaled figures are
reported alongside.

With --trace 1 the same games are played twice: first untraced for half
the time, then traced, so the trace overhead is measured on equal work.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import math
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# a run keeps going past --seconds until it has this many games, so the
# tail percentile always has at least ten games beyond it
MIN_GAMES = 20
# input pool size, as a multiple of the games the seed code plays
POOL_FACTOR = 3
# warm-up input stream: a two-word seed no integer --seed can produce
WARMUP_SEED = (0x5EED, 0xBEEF)
# the reference kernel runs after each KERNEL_EVERY_S of game time, and a
# game's time is scaled by the median of the KERNEL_WINDOW runs nearest it
KERNEL_EVERY_S = 0.1
KERNEL_WINDOW = 7
# kernel runs right after set-up, to scale the set-up time
SETUP_KERNELS = 9


def set_up_import():
    """Import boxsearch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import boxsearch

    if Path(boxsearch.__file__).resolve().parent != src / "boxsearch":
        raise ImportError(f"boxsearch imported from {boxsearch.__file__}")
    return boxsearch


def tail_percentile(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest sample with at least `beyond`
    samples above it, and its percentile 100 * (N - beyond) / N.

    Needs more than `beyond` samples. Infinite samples (failed games)
    sort last, so failures push the tail up rather than vanish.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


@dataclass
class Loop:
    """Outcome of one closed loop over the input pool."""

    times: list[float] = field(default_factory=list)  # seconds, per game
    failures: list[tuple[int, str]] = field(default_factory=list)
    # (games played before it, seconds) per reference kernel run
    kernel: list[tuple[int, float]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def scales(self) -> list[float]:
        """Per game, REFERENCE_S over the median of the kernel runs
        nearest to it: the factor to the reference speed at that time."""
        at = [k for k, _ in self.kernel]
        secs = [s for _, s in self.kernel]
        half = KERNEL_WINDOW // 2
        out = []
        for k in range(self.attempted):
            lo = max(0, min(bisect.bisect_right(at, k) - half - 1,
                            len(secs) - KERNEL_WINDOW))
            out.append(reference.REFERENCE_S
                       / statistics.median(secs[lo:lo + KERNEL_WINDOW]))
        return out

    def latencies(self, scales) -> list[float]:
        """Per-game seconds times scales, with failed games at +inf: a
        failure misses every latency bound."""
        lat = [t * f for t, f in zip(self.times, scales)]
        for k, _ in self.failures:
            lat[k] = math.inf
        return lat


def closed_loop(bs, workload, inputs, seconds: float = 0.0, games: int = 0,
                tracer=None) -> Loop:
    """Play games back to back: for `seconds` (and at least MIN_GAMES),
    or exactly `games` games when given. Checks run between games,
    outside the timed region."""
    loop = Loop()
    deadline = perf_counter() + seconds
    since_kernel = KERNEL_EVERY_S
    k = 0
    while (k < games) if games else (k < MIN_GAMES or perf_counter() < deadline):
        if since_kernel >= KERNEL_EVERY_S:
            loop.kernel.append((k, reference.kernel()))
            since_kernel = 0.0
        inp = inputs[k % len(inputs)]
        if tracer is not None:
            tracer.game = k
        started = perf_counter()
        try:
            if tracer is None:
                out = workload.run(inp)
            else:
                out = tracer.call("game", workload.run, (inp,), {})
        except bs.BoxSearchError as exc:
            loop.times.append(perf_counter() - started)
            loop.failures.append((k, f"{type(exc).__name__}: {exc}"))
        else:
            loop.times.append(perf_counter() - started)
            problems = workload.check(inp, out)
            if problems:
                loop.failures.append((k, "; ".join(problems)))
        since_kernel += loop.times[-1]
        k += 1
    return loop


def _timings(loop: Loop, scales) -> dict:
    lat = loop.latencies(scales)
    completed = loop.attempted - len(loop.failures)
    return {
        "games_per_s": completed / sum(t * f for t, f in zip(loop.times, scales)),
        "game_ms_p50": 1e3 * statistics.median(lat),
        "game_ms_tail": 1e3 * tail_percentile(lat)[1],
    }


def end_to_end(loop: Loop) -> dict:
    """Metrics at the reference speed, plus the unscaled wall figures."""
    scales = loop.scales()
    scaled = _timings(loop, scales)
    return {
        "metrics": {
            "games_per_s": (scaled["games_per_s"], "1/s"),
            "game_ms_p50": (scaled["game_ms_p50"], "ms"),
            "game_ms_tail": (scaled["game_ms_tail"], "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        },
        "wall": _timings(loop, [1.0] * loop.attempted),
        "speed_scale": statistics.median(scales),
        "error_rate": len(loop.failures) / loop.attempted,
        "tail_percentile": tail_percentile(loop.times)[0],
        "samples": loop.attempted,
        "times": loop.times,
        "kernel": loop.kernel,
    }


def traced(bs, workload, inputs, seconds: float, out_path: Path) -> dict:
    import layers
    from spans import Tracer

    plain = closed_loop(bs, workload, inputs, seconds=seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        loop = closed_loop(bs, workload, inputs, games=plain.attempted,
                           tracer=tracer)
    finally:
        tracer.unwrap()
    metrics = layers.layer_metrics(tracer, loop.attempted, sum(plain.times))
    write_spans(tracer, out_path)
    return {
        "metrics": metrics,
        "failures": plain.failures + loop.failures,
        "attempted": plain.attempted + loop.attempted,
        "absent": tracer.absent,
        "spans": len(tracer.spans),
    }


def write_spans(tracer, path: Path) -> None:
    """One JSON array per span: name, start, end, parent, game, raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in tracer.spans:
            fh.write(json.dumps(
                [s.name, s.start, s.end, s.parent, s.game, s.raised]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bs = set_up_import()
    import workloads

    workload = workloads.make(args.workload)
    count = max(MIN_GAMES,
                math.ceil(POOL_FACTOR * args.seconds * 1e3 / workload.est_ms))
    inputs = workload.inputs(args.seed, count)
    (warm,) = workload.inputs(WARMUP_SEED, 1)
    workload.run(warm)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    kernel = statistics.median(reference.kernel() for _ in range(SETUP_KERNELS))
    result = {"ready": ready, "setup_scale": reference.REFERENCE_S / kernel}
    if not args.setup_only:
        if args.trace:
            path = OUT / f"{args.workload}.spans.jsonl.gz"
            result.update(traced(bs, workload, inputs, args.seconds, path))
        else:
            loop = closed_loop(bs, workload, inputs, seconds=args.seconds)
            result.update(end_to_end(loop))
            result["failures"] = loop.failures
            result["attempted"] = loop.attempted
        result["threads"] = threading.active_count()
        result["numpy"] = sys.modules["numpy"].__version__
        result["pool"] = len(inputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
