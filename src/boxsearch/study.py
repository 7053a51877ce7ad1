"""Desk-scale numerical studies and their CSV record formats.

run_batch samples games, tests whether the heuristic strategy p0 is
optimal, and runs the iterative solver where it is not, recording how far
p0 falls below the optimal value; a solve that does not converge is
recorded with its termination as the error. ruckle_sweep treats the
classic two-box game with one perfect box, locating p* by a bisection
over the tie strategies' search index h. two_box_study measures how the
sign of p*_1 - p0_1 lines up with the future-benefit ordering of the
boxes. Batch and Ruckle records share one versioned CSV codec.

Per-game RNG streams derive from (seed, game index) only, so results are
independent of evaluation order and reproducible from the seed.
"""

from __future__ import annotations

import csv
import dataclasses
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
from .solver import SolveConfig, Termination, solve, test_p0_optimality

BATCH_CSV_VERSION = "boxsearch-batch-v1"
RUCKLE_CSV_VERSION = "boxsearch-ruckle-v1"


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
    error = None
    if p0_optimal:
        # v_D and u(p0) are independently rounded values of one number
        pct_below = 0.0
    else:
        sol = solve(game, config, p0_test=result)
        v_star = sol.U
        iterations = sol.iterations
        pct_below = 100.0 * (v_star - u_p0) / v_star
        if sol.termination is not Termination.CONVERGED:
            # v_star is only an upper bound, so summarize leaves it out
            error = f"{sol.termination.value}: gap {sol.gap!r}"
    return BatchRecord(
        index=idx, scheme=scheme_name, t=game.t, alpha=game.alpha,
        v_star=v_star, u_p0=u_p0, p0_optimal=p0_optimal,
        pct_below=pct_below, iterations=iterations,
        wall_time=time.perf_counter() - started, error=error,
    )


def summarize(records: Iterable[BatchRecord]) -> BatchSummary:
    """Mean/95th-percentile of pct_below over all clean records, and
    iteration statistics over the solved (suboptimal) games only. The
    fraction p0-optimal is over every record the p0 test decided, clean
    or not: a solve that did not converge leaves that decision valid."""
    records = list(records)
    clean = [r for r in records if r.error is None]
    if not clean:
        raise EmptyGame("no usable records to summarize")
    pct = np.array([r.pct_below for r in clean])
    tested = [r for r in records if r.p0_optimal is not None]
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
    """The last search h that the Ruckle search looks at. u(p_h) = (1/alpha
    + x (1 + alpha h)) / (1 + alpha x) with x = (1-alpha)^(h-1), which
    for small alpha is about 1/alpha + s e^-s at s = alpha h: its peak is
    near h = 1/alpha (at most 1/alpha + 1 over alpha in 1e-4..1), so
    2/alpha + 2 leaves room for the decrease after it."""
    return math.ceil(2.0 / alpha) + 2


def _ruckle_pstar(alpha: float) -> tuple[float, int]:
    """Optimal hiding probability for box 1 in the perfect-box-2 game, and
    the search h at which its two Gittins indices tie.

    u(p) is piecewise-linear concave and its kinks are exactly the tie
    strategies p_h, so the maximum over h of u(p_h) locates the optimum.
    Values along the increasing path p_1 < p_2 < ... are unimodal, so
    the first h whose successor is lower (relative 1e-13, below which
    two values are the same number rounded apart) is the peak; a
    bisection on that test finds it in about 2 log2(2 / alpha)
    evaluations. Raises BoxSearchError when u has not decreased by
    _ruckle_max_h(alpha).
    """
    game = _ruckle_game(alpha)

    def past_peak(h: int) -> bool:
        value = _ruckle_value(game, _ruckle_tie_strategy(alpha, h))
        after = _ruckle_value(game, _ruckle_tie_strategy(alpha, h + 1))
        return after < value * (1.0 - 1e-13)

    lo, hi = 1, _ruckle_max_h(alpha)
    if not past_peak(hi):
        raise BoxSearchError(
            f"u(p_h) not past its peak by h = {hi} at alpha={alpha}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if past_peak(mid):
            hi = mid
        else:
            lo = mid + 1
    return _ruckle_tie_strategy(alpha, lo).p[0], lo


def ruckle_sweep(alphas: Iterable[float]) -> list[RuckleRecord]:
    """For each alpha: two boxes with t=(1,1), box 2 perfect. Tests p0
    optimality; where suboptimal, locates p* and the search h at which
    its indices tie. Where p0 is optimal, h = 1: p0 ties the indices at
    the first search."""
    records = []
    for alpha in alphas:
        game = _ruckle_game(alpha)
        p0_1 = p0(game).p[0]
        if test_p0_optimality(game).optimal:
            p_star_1, h = p0_1, 1
        else:
            p_star_1, h = _ruckle_pstar(alpha)
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
        result = test_p0_optimality(game)
        if result.optimal:
            continue
        n_sub += 1
        sol = solve(game, config, p0_test=result)
        if sol.p_star.p[0] > p0(game).p[0]:
            n_greater += 1
        else:
            n_smaller += 1
    return TwoBoxStudyResult(n_sub, n_greater, n_smaller)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

# (encode, decode) per record field, keyed by its annotation's text (the
# module postpones annotations): floats by repr, so they read back
# exactly; None as an empty cell
_CSV_CODECS = {
    "int": (str, int),
    "str": (str, str),
    "float": (repr, float),
    "tuple[float, ...]": (
        lambda v: " ".join(map(repr, v)),
        lambda s: tuple(map(float, s.split())),
    ),
    "bool | None": (
        lambda v: "" if v is None else str(v),
        lambda s: None if s == "" else s == "True",
    ),
    "str | None": (lambda v: v or "", lambda s: s or None),
}


def _write_csv(records, path, cls, version: str) -> None:
    """A version line, a header of cls's field names, one row per record."""
    fields = dataclasses.fields(cls)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {version}\n")
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields])
        for r in records:
            writer.writerow(
                [_CSV_CODECS[f.type][0](getattr(r, f.name)) for f in fields]
            )


def _read_csv(path, cls, version: str) -> list:
    fields = dataclasses.fields(cls)
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(f"# {version}"):
            raise BoxSearchError(
                f"unrecognized CSV version {first!r}, expected {version!r}"
            )
        return [
            cls(**{f.name: _CSV_CODECS[f.type][1](row[f.name]) for f in fields})
            for row in csv.DictReader(fh)
        ]


def write_batch_csv(records: Iterable[BatchRecord], path) -> None:
    _write_csv(records, path, BatchRecord, BATCH_CSV_VERSION)


def read_batch_csv(path) -> list[BatchRecord]:
    return _read_csv(path, BatchRecord, BATCH_CSV_VERSION)


def write_ruckle_csv(records: Iterable[RuckleRecord], path) -> None:
    _write_csv(records, path, RuckleRecord, RUCKLE_CSV_VERSION)


def read_ruckle_csv(path) -> list[RuckleRecord]:
    return _read_csv(path, RuckleRecord, RUCKLE_CSV_VERSION)
