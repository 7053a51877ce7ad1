"""Expected time to detection, with certified lower/upper brackets.

For a hider in box i and a search sequence xi with visit times tau_i(r),
the expected detection time is

    u(i, xi) = tau_i(1) + sum_{r>=1} (1-alpha_i)^r [tau_i(r+1) - tau_i(r)].

Truncating the sum after R terms gives a lower bound. An upper bound
follows from a worst-case continuation: under any Gittins sequence no more
than l_hat time passes between successive visits of a box, so the tail is
at most l_hat (1-alpha_i)^{R+1} / alpha_i.

payoff_column() is the one evaluator every caller uses: it brackets
u(i, xi) for every box i at once and memoizes the column on the sequence.
Once a sequence has a cycle (x_i visits of box i repeating forever), the
tail is a geometric sum with ratio (1-alpha_i)^{x_i} and each box gets
its closed form as a zero-width bracket, exact up to rounding, from one
request for every box's visits. Otherwise each box takes its series at a
depth R_i fixed per game, deep enough that the bracket's relative width
is below PAYOFF_REL_TOL / 2 (see _first_depths), in one array pass: one
request realizes every box's R_i + 1 visits, their times are gathered
into one buffer and differenced once, and each box's series is one dot
of its steps with the powers (1-alpha_i)^r.

Every mixed payoff here is interval arithmetic over per-box brackets, so
reported values are certified brackets rather than point estimates. A box
a sequence provably never visits has infinite payoff: its column entries
read inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoxNeverSearched, CapExceeded, InvalidMixture
from .gittins import SearchSequence, _stream_params
from .model import HidingStrategy, SearchGame, _once_per_game

# relative width of series brackets; certified value bounds are built from
# these brackets and can never be tighter, so keep this well below any
# solver epsilon
PAYOFF_REL_TOL = 1e-10

# the deepest first series depth a payoff may need: each visit it asks
# for is realized and stored, so a game needing more is refused
DEPTH_CAP = 10_000_000

# the series plan takes the powers of boxes up to this depth from one grid
_GRID_DEPTH = 4096


@dataclass(frozen=True)
class PayoffBracket:
    """Certified bracket lower <= u <= upper; searches_used is the
    truncation depth R behind it (0 when the value is exact)."""

    lower: float
    upper: float
    searches_used: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class TailBoundParams:
    """l: max searches of any one box between successive visits of another;
    l_hat: max time between successive visits of any box."""

    l: int
    l_hat: float


@_once_per_game
def tail_params(game: SearchGame) -> TailBoundParams:
    """Worst-case visit spacing under any Gittins sequence.

    Over the boxes with alpha_j < 1, l = floor(max_{i,j} log(1-alpha_i) /
    log(1-alpha_j)) + 1, so that (1-alpha_j)^l < 1-alpha_i for every pair.
    l_hat = l * (their t_j summed), plus the t_j of each perfect box once:
    a perfect box is searched at most once ever. With no imperfect box,
    l = 0 and l_hat = 0.
    """
    finite = [j for j in range(game.n) if game.alpha[j] < 1.0]
    if not finite:
        return TailBoundParams(l=0, l_hat=0.0)
    logs = [math.log1p(-game.alpha[j]) for j in finite]
    l = int(math.floor(max(li / lj for li in logs for lj in logs))) + 1
    l_hat = l * math.fsum(game.t[j] for j in finite) + math.fsum(
        game.t[j] for j in range(game.n) if game.alpha[j] == 1.0
    )
    return TailBoundParams(l=l, l_hat=l_hat)


@_once_per_game
def _first_depths(game: SearchGame) -> list[int]:
    """The series depth R_i of each box's bracket: the first R >= 1 with
    tail l_hat (1-alpha_i)^(R+1) / alpha_i <= PAYOFF_REL_TOL t_i
    (1-alpha_i). The lower end is at least tau_i(1) + (1-alpha_i)
    (tau_i(2) - tau_i(1)) >= t_i (2-alpha_i), so the bracket's relative
    width is at most PAYOFF_REL_TOL (1-alpha_i) / (2-alpha_i) <
    PAYOFF_REL_TOL / 2, and no box ever needs a deeper one. 0 for a
    perfect box, whose payoff is its first visit time. Raises CapExceeded
    when some box's depth is above DEPTH_CAP."""
    l_hat = tail_params(game).l_hat
    depths = [
        0 if a == 1.0 else max(1, math.ceil(
            math.log(PAYOFF_REL_TOL * t * a / l_hat) / math.log(1.0 - a)
        ))
        for t, a in zip(game.t, game.alpha)
    ]
    for i, depth in enumerate(depths):
        if depth > DEPTH_CAP:
            raise CapExceeded(
                f"box {i} needs a series depth of {depth} searches, above "
                f"the depth cap {DEPTH_CAP} (alpha_{i} = {game.alpha[i]})"
            )
    return depths


class _SeriesPlan(NamedTuple):
    """The array pass over every box's series bracket. lengths[i]
    = R_i + 1 visit times of box i are gathered into one buffer, box by
    box; segments[i] = (powers, start, stop) says that box i's first time
    sits at start and its series is the dot of powers, (1-alpha_i)^r for
    r = 1..R_i, with the buffer's steps start..stop. tail[i] is the
    bracket's width l_hat (1-alpha_i)^(R_i+1) / alpha_i, and depths[i] =
    R_i."""

    lengths: list[int]
    starts: np.ndarray
    segments: list[tuple[np.ndarray, int, int]]
    tail: np.ndarray
    depths: tuple[int, ...]


@_once_per_game
def _series_plan(game: SearchGame) -> _SeriesPlan:
    l_hat = tail_params(game).l_hat
    first = _first_depths(game)
    # the powers of the boxes no deeper than _GRID_DEPTH, from one
    # row-wise cumprod, which multiplies as a per-box cumprod does; a
    # deeper box takes its own, so the grid stays small whatever the depths
    width = min(max(first), _GRID_DEPTH) + 1
    grid = np.empty((game.n, width))
    grid[:] = [[1.0 - a] for a in game.alpha]
    grid.cumprod(axis=1, out=grid)
    segments, tail, depths = [], [], []
    start = 0
    for R, t, a, row in zip(first, game.t, game.alpha, grid):
        # powers[r - 1] = (1-alpha)^r; should rounding in the log formula
        # of _first_depths leave R short of its tail test, R grows here
        powers = row if R < width else np.cumprod(np.full(R + 1, 1.0 - a))
        while l_hat * powers.item(R) / a > PAYOFF_REL_TOL * t * (1.0 - a):
            R += 1
            powers = np.cumprod(np.full(R + 1, 1.0 - a))
        segments.append((powers[:R], start, start + R))
        tail.append(l_hat * powers.item(R) / a)
        depths.append(R)
        start += R + 1
    return _SeriesPlan(
        lengths=[R + 1 for R in depths],
        starts=np.array([s for _, s, _ in segments]),
        segments=segments,
        tail=np.array(tail),
        depths=tuple(depths),
    )


def release_tables(game: SearchGame) -> None:
    """Drop the series plan and the index-stream constants kept on game;
    the next call rebuilds them. A solve or p0 test releases them when it
    returns, so a game kept alive past its solve, say in a pool of inputs,
    does not keep R floats per box."""
    for derive in (_series_plan, _stream_params):
        game._derived.pop(derive.__wrapped__, None)


class PayoffColumn(NamedTuple):
    """u(i, xi) for every box i of one sequence: certified brackets
    lower[i] <= u(i, xi) <= upper[i] as float64 arrays, and the series
    depth R behind each (0 where the value is exact). A box the sequence
    never searches reads inf on both sides."""

    lower: np.ndarray
    upper: np.ndarray
    searches_used: tuple[int, ...]


def payoff_column(game: SearchGame, xi: SearchSequence) -> PayoffColumn:
    """Bracket u(i, xi) for every box, extending xi on demand.

    On a sequence with a cycle each bracket is the exact closed form (zero
    width, searches_used 0); otherwise it is the series bracket, of
    relative width below PAYOFF_REL_TOL / 2, which for a perfect box is
    its first visit time at depth 0, exact as well. The column is
    memoized on the sequence: extension is append-only, so it never goes
    stale.
    """
    column = xi._column
    if column is None:
        column = xi._column = _column_uncached(game, xi)
    return column


def _column_uncached(game: SearchGame, xi: SearchSequence) -> PayoffColumn:
    """The closed form on a cycle, else the series."""
    if xi.cycle is not None:
        return _cyclic_column(game, xi)
    return _series_column(game, xi)


def _series_column(game: SearchGame, xi: SearchSequence) -> PayoffColumn:
    """The column of a sequence without a cycle: one request and one array
    pass over every box's series at its depth from _series_plan. A box xi
    never searches (p_i = 0 in its counter) reads inf, at depth 0."""
    plan = _series_plan(game)
    # no visits are asked of a box never searched
    lengths = [k if xi.num_visits(i) or xi.can_visit_more(i) else 0
               for i, k in enumerate(plan.lengths)]
    xi.ensure_visits(range(game.n), lengths)
    tau = xi.visit_prefixes(plan.lengths)
    steps = tau[1:] - tau[:-1]
    # one dot per box keeps each series summed in the order of the
    # per-box form tau_i(1) + q_pows @ diff(tau_i)
    series = [q_pows.dot(steps[start:stop])
              for q_pows, start, stop in plan.segments]
    lower = tau[plan.starts] + series
    upper = lower + plan.tail
    used = plan.depths
    if 0 in lengths:
        never = [i for i, k in enumerate(lengths) if not k]
        lower[never] = upper[never] = math.inf
        used = tuple(R if k else 0 for k, R in zip(lengths, used))
    return PayoffColumn(lower, upper, used)


def _cyclic_column(game: SearchGame, xi: SearchSequence) -> PayoffColumn:
    """The closed form for every box of a sequence with a cycle, from one
    request for every box's visits; inf for a box its pattern leaves out.

    With R = xi.cycle.entry[i] visits before the cycle and x_i visits of
    box i in its pattern, the tail past R is a geometric sum over whole
    cycles of the x_i in-cycle gaps:

        u = tau_i(1) + u_R + (1-alpha_i)^R * A_i / (1 - (1-alpha_i)^x_i),
        A_i = sum_{r=1}^{x_i} (1-alpha_i)^r [tau_i(R+r+1) - tau_i(R+r)],

    where u_R is the truncated series over the pre-cycle visits. Exact up
    to float rounding.
    """
    entry = xi.cycle.entry
    x = [xi.cycle.pattern.count(i) for i in range(game.n)]
    boxes = [i for i in range(game.n) if x[i]]
    xi.ensure_visits(boxes, [entry[i] + x[i] + 1 for i in boxes])
    values = []
    for i, (a, R, x_i) in enumerate(zip(game.alpha, entry, x)):
        if not x_i:
            values.append(math.inf)
            continue
        q = 1.0 - a
        tau = xi.visit_times(i)[: R + x_i + 1].tolist()
        u_R = 0.0
        qr = 1.0
        for r in range(1, R + 1):
            qr *= q
            u_R += qr * (tau[r] - tau[r - 1])
        A_i = 0.0
        qc = qr
        for r in range(1, x_i + 1):
            qc *= q
            A_i += qc * (tau[R + r] - tau[R + r - 1])
        # qc has absorbed the (1-alpha_i)^R factor by continuing from qr
        values.append(tau[0] + u_R + A_i / (1.0 - q**x_i))
    return PayoffColumn(np.array(values), np.array(values), (0,) * game.n)


def round_robin_payoff(game: SearchGame, i: int) -> float:
    """u(i, xi') for xi' repeating (box 0, ..., box n-1): the hider in box
    i is reached after sum_{j<=i} t_j, then every full lap T."""
    a = game.alpha[i]
    if a == 1.0:
        return math.fsum(game.t[: i + 1])
    T = math.fsum(game.t)
    return math.fsum(game.t[: i + 1]) + (1.0 - a) / a * T


def expected_payoff(
    game: SearchGame, p: HidingStrategy, xi: SearchSequence,
) -> PayoffBracket:
    """u(p, xi) = sum_i p_i u(i, xi) with interval arithmetic.

    Boxes with p_i = 0 contribute nothing, even when their payoff is
    infinite. Each side is summed with fsum.
    """
    lower, upper, used = payoff_column(game, xi)
    lower, upper = lower.tolist(), upper.tolist()
    support = [i for i, pi in enumerate(p.p) if pi != 0.0]
    for i in support:
        if lower[i] == math.inf:
            raise BoxNeverSearched(
                f"box {i} has p_i = {p.p[i]} > 0 but is never searched"
            )
    return PayoffBracket(
        math.fsum([p.p[i] * lower[i] for i in support]),
        math.fsum([p.p[i] * upper[i] for i in support]),
        max(used[i] for i in support),
    )


def check_mixture_weights(weights: list[float]) -> None:
    """Refuse searcher mixture weights that are negative, not finite (NaN
    included) or do not sum to 1 (to 1e-9, with fsum)."""
    if (not all(0.0 <= w < math.inf for w in weights)
            or abs(math.fsum(weights) - 1.0) > 1e-9):
        raise InvalidMixture(
            f"mixture weights must be finite, >= 0 and sum to 1, got "
            f"{weights}"
        )
