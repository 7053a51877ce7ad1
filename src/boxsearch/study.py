"""Desk-scale numerical studies and their CSV record formats.

run_batch samples games, tests whether the heuristic strategy p0 is
optimal, and runs the iterative solver where it is not, recording how far
p0 falls below the optimal value. ruckle_sweep treats the classic two-box
game with one perfect box. two_box_study measures how the sign of
p*_1 - p0_1 lines up with the future-benefit ordering of the boxes.

Per-game RNG streams derive from (seed, game index) only, so results are
independent of evaluation order and reproducible from the seed.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BoxSearchError, EmptyGame
from .gittins import gittins_sequence
from .model import (
    SCHEMES,
    HidingStrategy,
    SampleScheme,
    SearchGame,
    future_benefit,
    p0,
    per_game_seed,
    sample_game,
)
from .payoff import expected_payoff
from .solver import SolveConfig, solve, test_p0_optimality

BATCH_CSV_VERSION = "boxsearch-batch-v1"
RUCKLE_CSV_VERSION = "boxsearch-ruckle-v1"

# extract_tie_index locates the search h where p*'s two indices meet, to
# this relative tolerance, since p* itself comes from a float formula
_RUCKLE_H_REL_TOL = 1e-6


@dataclass(frozen=True)
class BatchRecord:
    index: int
    scheme: str
    t: tuple[float, ...]
    alpha: tuple[float, ...]
    v_star: float
    u_p0: float
    p0_optimal: bool | None
    pct_below: float
    iterations: int
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class BatchSummary:
    count: int
    mean_pct_below: float
    p95_pct_below: float
    frac_p0_optimal: float | None
    solved: int
    mean_iterations: float | None
    p95_iterations: float | None


class TwoBoxStudyResult(NamedTuple):
    n_suboptimal: int
    n_pstar_greater: int
    n_pstar_smaller: int


@dataclass(frozen=True)
class RuckleRecord:
    alpha: float
    p0_1: float
    p_star_1: float
    h: int


def run_batch(
    scheme: SampleScheme,
    n: int,
    count: int,
    epsilon: float = 1e-6,
    seed: int = 0,
) -> list[BatchRecord]:
    """Sample `count` games; test p0 optimality and solve where p0 is
    suboptimal. Per-game failures are recorded in the error field and the
    batch continues."""
    if count < 1:
        raise EmptyGame("count must be >= 1")
    config = SolveConfig(epsilon=epsilon)
    records = []
    for idx in range(count):
        game = sample_game(scheme, n, per_game_seed(seed, idx))
        started = time.perf_counter()
        try:
            records.append(_run_one(idx, scheme.name, game, config))
        except BoxSearchError as exc:
            records.append(
                BatchRecord(
                    index=idx, scheme=scheme.name, t=game.t, alpha=game.alpha,
                    v_star=math.nan, u_p0=math.nan, p0_optimal=None,
                    pct_below=math.nan, iterations=0,
                    wall_time=time.perf_counter() - started,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return records


def _run_one(idx, scheme_name, game, config) -> BatchRecord:
    started = time.perf_counter()
    result = test_p0_optimality(game)
    p0_optimal = result.optimal
    u_p0 = result.u_p0.midpoint
    v_star = result.v_D
    iterations = 0
    if p0_optimal:
        # v_D and u(p0) are independently rounded values of one number
        pct_below = 0.0
    else:
        sol = solve(game, config)
        v_star = sol.U
        iterations = sol.iterations
        pct_below = 100.0 * (v_star - u_p0) / v_star
    return BatchRecord(
        index=idx, scheme=scheme_name, t=game.t, alpha=game.alpha,
        v_star=v_star, u_p0=u_p0, p0_optimal=p0_optimal,
        pct_below=pct_below, iterations=iterations,
        wall_time=time.perf_counter() - started,
    )


def summarize(records: Iterable[BatchRecord]) -> BatchSummary:
    """Mean/95th-percentile of pct_below over all clean records, fraction
    p0-optimal, and iteration statistics over the solved (suboptimal)
    games only."""
    clean = [r for r in records if r.error is None]
    if not clean:
        raise EmptyGame("no usable records to summarize")
    pct = np.array([r.pct_below for r in clean])
    tested = [r for r in clean if r.p0_optimal is not None]
    frac = (
        sum(1 for r in tested if r.p0_optimal) / len(tested) if tested else None
    )
    iters = np.array([r.iterations for r in clean if r.iterations >= 1])
    return BatchSummary(
        count=len(clean),
        mean_pct_below=float(pct.mean()),
        p95_pct_below=float(np.percentile(pct, 95)),
        frac_p0_optimal=frac,
        solved=int(iters.size),
        mean_iterations=float(iters.mean()) if iters.size else None,
        p95_iterations=float(np.percentile(iters, 95)) if iters.size else None,
    )


def _ruckle_game(alpha: float) -> SearchGame:
    return SearchGame(t=(1.0, 1.0), alpha=(alpha, 1.0), allow_perfect=True)


def _ruckle_tie_strategy(alpha: float, h: int) -> HidingStrategy:
    """The hiding strategy whose Gittins counter ties the two indices at
    the h-th search: p alpha (1-alpha)^(h-1) = 1 - p."""
    p = 1.0 / (1.0 + alpha * (1.0 - alpha) ** (h - 1))
    return HidingStrategy((p, 1.0 - p))


def _ruckle_value(game: SearchGame, p: HidingStrategy) -> float:
    seq = gittins_sequence(game, p)
    return expected_payoff(game, p, seq).midpoint


def _ruckle_max_h(alpha: float) -> int:
    """The last search h that the Ruckle scans look at. u(p_h) = (1/alpha
    + x (1 + alpha h)) / (1 + alpha x) with x = (1-alpha)^(h-1), which
    for small alpha is about 1/alpha + s e^-s at s = alpha h: its peak is
    near h = 1/alpha (at most 1/alpha + 1 over alpha in 1e-4..1), so
    2/alpha + 2 leaves room for the decrease after it."""
    return math.ceil(2.0 / alpha) + 2


def _ruckle_pstar(alpha: float) -> tuple[float, int]:
    """Optimal hiding probability for box 1 in the perfect-box-2 game.

    u(p) is piecewise-linear concave and its kinks are exactly the tie
    strategies p_h, so the maximum over h of u(p_h) locates the optimum;
    values along the increasing path p_1 < p_2 < ... are unimodal, so the
    scan stops at the first decrease. Raises BoxSearchError when no
    decrease comes by _ruckle_max_h(alpha).
    """
    game = _ruckle_game(alpha)
    best_h, best_value = 1, -math.inf
    for h in range(1, _ruckle_max_h(alpha) + 1):
        value = _ruckle_value(game, _ruckle_tie_strategy(alpha, h))
        if value < best_value * (1.0 - 1e-13):
            return _ruckle_tie_strategy(alpha, best_h).p[0], best_h
        if value > best_value:
            best_h, best_value = h, value
    raise BoxSearchError(
        f"u(p_h) not past its peak by h = {h} at alpha={alpha}"
    )


def extract_tie_index(alpha: float, p_star_1: float) -> int:
    """First search at which the counter's two indices agree within
    relative 1e-6, simulating the counter that searches box 1 until the
    tie; no later than _ruckle_max_h(alpha), as the scan for p*."""
    i2 = 1.0 - p_star_1
    idx = p_star_1 * alpha
    for r in range(1, _ruckle_max_h(alpha) + 1):
        if abs(idx - i2) <= _RUCKLE_H_REL_TOL * max(idx, i2):
            return r
        idx *= 1.0 - alpha
    raise BoxSearchError(f"no index tie within {r} searches at alpha={alpha}")


def ruckle_sweep(alphas: Iterable[float]) -> list[RuckleRecord]:
    """For each alpha: two boxes with t=(1,1), box 2 perfect. Tests p0
    optimality; where suboptimal, locates p* and the tie search index h."""
    records = []
    for alpha in alphas:
        game = _ruckle_game(alpha)
        p0_1 = p0(game).p[0]
        result = test_p0_optimality(game)
        if result.optimal:
            p_star_1 = p0_1
        else:
            p_star_1, _ = _ruckle_pstar(alpha)
        h = extract_tie_index(alpha, p_star_1)
        records.append(
            RuckleRecord(alpha=alpha, p0_1=p0_1, p_star_1=p_star_1, h=h)
        )
    return records


def two_box_games(count: int, seed: int = 0):
    """Sampled varied-scheme two-box games relabeled so box 0 has the lower
    future benefit."""
    for idx in range(count):
        game = sample_game(SCHEMES["varied"], 2, per_game_seed(seed, idx))
        if future_benefit(game, 0) > future_benefit(game, 1):
            game = SearchGame(t=game.t[::-1], alpha=game.alpha[::-1])
        yield game


def two_box_study(
    count: int, seed: int = 0, epsilon: float = 1e-6,
) -> TwoBoxStudyResult:
    """Sample two-box games, relabel so box 0 has the lower future
    benefit, and count the sign of p*_0 - p0_0 among games where p0 is
    suboptimal."""
    if count < 1:
        raise EmptyGame("count must be >= 1")
    config = SolveConfig(epsilon=epsilon)
    n_sub = n_greater = n_smaller = 0
    for game in two_box_games(count, seed):
        if test_p0_optimality(game).optimal:
            continue
        n_sub += 1
        sol = solve(game, config)
        if sol.p_star.p[0] > p0(game).p[0]:
            n_greater += 1
        else:
            n_smaller += 1
    return TwoBoxStudyResult(n_sub, n_greater, n_smaller)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

_BATCH_FIELDS = [
    "index", "scheme", "t", "alpha", "v_star", "u_p0", "p0_optimal",
    "pct_below", "iterations", "wall_time", "error",
]
_RUCKLE_FIELDS = ["alpha", "p0_1", "p_star_1", "h"]


def _floats_to_field(values: tuple[float, ...]) -> str:
    return " ".join(repr(v) for v in values)


def _field_to_floats(field: str) -> tuple[float, ...]:
    return tuple(float(v) for v in field.split())


def write_batch_csv(records: Iterable[BatchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {BATCH_CSV_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=_BATCH_FIELDS)
        writer.writeheader()
        for r in records:
            writer.writerow({
                "index": r.index,
                "scheme": r.scheme,
                "t": _floats_to_field(r.t),
                "alpha": _floats_to_field(r.alpha),
                "v_star": repr(r.v_star),
                "u_p0": repr(r.u_p0),
                "p0_optimal": "" if r.p0_optimal is None else str(r.p0_optimal),
                "pct_below": repr(r.pct_below),
                "iterations": r.iterations,
                "wall_time": repr(r.wall_time),
                "error": r.error or "",
            })


def read_batch_csv(path) -> list[BatchRecord]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(f"# {BATCH_CSV_VERSION}"):
            raise BoxSearchError(f"unrecognized batch CSV version: {first!r}")
        records = []
        for row in csv.DictReader(fh):
            records.append(BatchRecord(
                index=int(row["index"]),
                scheme=row["scheme"],
                t=_field_to_floats(row["t"]),
                alpha=_field_to_floats(row["alpha"]),
                v_star=float(row["v_star"]),
                u_p0=float(row["u_p0"]),
                p0_optimal=(None if row["p0_optimal"] == ""
                            else row["p0_optimal"] == "True"),
                pct_below=float(row["pct_below"]),
                iterations=int(row["iterations"]),
                wall_time=float(row["wall_time"]),
                error=row["error"] or None,
            ))
    return records


def write_ruckle_csv(records: Iterable[RuckleRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {RUCKLE_CSV_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=_RUCKLE_FIELDS)
        writer.writeheader()
        for r in records:
            writer.writerow({
                "alpha": repr(r.alpha),
                "p0_1": repr(r.p0_1),
                "p_star_1": repr(r.p_star_1),
                "h": r.h,
            })


def read_ruckle_csv(path) -> list[RuckleRecord]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(f"# {RUCKLE_CSV_VERSION}"):
            raise BoxSearchError(f"unrecognized ruckle CSV version: {first!r}")
        return [
            RuckleRecord(
                alpha=float(row["alpha"]),
                p0_1=float(row["p0_1"]),
                p_star_1=float(row["p_star_1"]),
                h=int(row["h"]),
            )
            for row in csv.DictReader(fh)
        ]
