"""Gittins index search sequences with explicit tie-breaking.

Against a fixed hiding strategy p, an optimal search sequence always next
searches a box of maximal index p_i (1-alpha_i)^{m_i} alpha_i / t_i, where
m_i counts completed searches of box i. gittins_sequence() builds every
such counter, with one tie rule: float indices are compared exactly, and
an exact tie goes to the box earliest in a tie ordering sigma (the
identity for best responses). The strategy p0 ties all n starting indices
by design; a counter to p0 starts them all at 1.0, so that tie is exact
and its first n searches simply follow sigma.

Cyclic games admit an exact integer tie rule: starting from p0, comparing
fractions r_i/x_i (r_i = searches of box i inside the current cycle)
reproduces the index order exactly, and every tie is detected. Sequences
there repeat a fixed cycle of x_hat searches from the very start. For
other full-support strategies generation runs until some window of x_hat
consecutive searches visits box i exactly x_i times; from that entry
point the sequence provably repeats the window forever.

A detected cycle is the sequence's periodic tail: past the cycle's entry
a sequence extends from the cycle's pattern, and otherwise from its index
streams. Sequences are generated lazily, one request at a time (so many
searches, or so many visits of some boxes), and a request is usually
realized in one merge: each box's next indices come from one sequential
product, a cumprod that yields exactly the floats of multiplying once per
search, run just past the request's last search, and one stable sort of
the streams laid out in sigma order merges them by index, breaking exact
ties as the one-step rule does. That rule, one comparison of all indices
per search, decides only rescaling; a request deeper than the cap on a
stream goes block by block (see _GittinsDriver). Per-box visit completion
times are memoized so repeated payoff evaluations never regenerate
prefixes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    CapExceeded,
    EmptyGame,
    InsufficientPrefix,
    InvalidGameError,
    InvalidHidingStrategy,
    NumericalFailure,
)
from .model import HidingStrategy, SearchGame, _once_per_game, p0

# the n! counters of the p0 test stop being practical above this n
ORDERING_CAP = 8

_CYCLE_STEP_BUDGET_FACTOR = 10_000

# indices only decay; once the largest falls below _RESCALE_BELOW, all of
# them are multiplied by its inverse, a power of two, which is exact, so
# no index ever stalls among the subnormals
_RESCALE_BELOW = 2.0 ** -600
_RESCALE = 2.0 ** 600

# the most searches per box in one merge's index streams
_MAX_WIDTH = 1 << 14
# searches a stream runs past its estimated length, against rounding in
# the estimate
_STREAM_SLACK = 3

_NO_VISITS = np.empty(0)


@dataclass(frozen=True)
class TieOrdering:
    """Preference permutation used to break index ties (0-based boxes)."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise InvalidGameError(
                f"{self.sigma} is not a permutation of 0..{len(self.sigma) - 1}"
            )

    @staticmethod
    def identity(n: int) -> "TieOrdering":
        return TieOrdering(tuple(range(n)))

    def rank(self) -> list[int]:
        """rank[i] = position of box i in the preference order."""
        r = [0] * len(self.sigma)
        for pos, box in enumerate(self.sigma):
            r[box] = pos
        return r


def initial_orderings(n: int) -> list[TieOrdering]:
    """The n cyclic rotations of (0, 1, ..., n-1)."""
    if n < 1:
        raise EmptyGame("n must be >= 1")
    base = list(range(n))
    return [TieOrdering(tuple(base[k:] + base[:k])) for k in range(n)]


def all_orderings(n: int) -> list[TieOrdering]:
    """All n! tie orderings, for the p0 optimality test. Refuses n above
    ORDERING_CAP, where the 40320 sequences stop being practical."""
    if n > ORDERING_CAP:
        raise CapExceeded(f"n = {n} exceeds the ordering cap {ORDERING_CAP}")
    return [TieOrdering(perm) for perm in itertools.permutations(range(n))]


@dataclass(frozen=True)
class CycleInfo:
    """A sequence's periodic tail: entry[i] = searches of box i before
    the cycle begins; pattern = the boxes repeated forever after entry
    (x_hat of them for a Gittins counter on a cyclic game)."""

    entry: tuple[int, ...]
    pattern: tuple[int, ...]


class _Block(NamedTuple):
    """One merge's searches, by driver row (see _GittinsDriver). Visit
    times go to a buffer laid out row by row: the search of rows[k] to
    slot slots[k], so row r's new visit times are the slice
    bounds[r]:bounds[r] + counts[r], in order."""

    rows: np.ndarray
    slots: np.ndarray
    bounds: list[int]
    counts: list[int]


class _StreamParams(NamedTuple):
    """Per-row constants of a game's index streams, row r holding box
    order[r] of a tie ordering (see _GittinsDriver)."""

    order: tuple[int, ...]
    box_of: np.ndarray  # order, as an array
    rank: list[int]  # the row of each box
    t: np.ndarray
    q: np.ndarray  # 1 - alpha, the factor an index takes per search
    q_list: list[float]
    log_q: list[float]  # -inf for a perfect box
    rows: np.ndarray  # 0, 1, ..., n - 1


@_once_per_game
def _stream_params(game: SearchGame) -> _StreamParams:
    """The identity ordering's stream constants, kept on the game."""
    q = 1.0 - np.asarray(game.alpha)
    rows = np.arange(game.n)
    return _StreamParams(
        order=tuple(range(game.n)), box_of=rows, rank=list(range(game.n)),
        t=np.asarray(game.t), q=q, q_list=q.tolist(),
        log_q=[math.log1p(-a) if a < 1.0 else -math.inf for a in game.alpha],
        rows=rows,
    )


def _ordered_params(game: SearchGame,
                    order: TieOrdering | None) -> _StreamParams:
    """The stream constants with rows in the order of `order`; None is
    the identity."""
    params = _stream_params(game)
    if order is None or order.sigma == params.order:
        return params
    box_of = np.array(order.sigma)
    q = params.q[box_of]
    return params._replace(
        order=order.sigma, box_of=box_of, rank=order.rank(),
        t=params.t[box_of], q=q, q_list=q.tolist(),
        log_q=[params.log_q[b] for b in order.sigma],
    )


class _GittinsDriver:
    """Generates the boxes of a Gittins sequence against p, in blocks.

    There is one tie rule: float indices are compared exactly, and an
    exact tie goes to the box earliest in the tie ordering. The driver
    keeps its state in that order, row r holding box order[r], so a tie
    goes to the lower row. Against p0 every index starts at 1.0: the
    common factor p0_i alpha_i / t_i cancels, so the designed start tie
    is exact and the first n searches follow the ordering.

    Row r's upcoming indices form one sequential product: idx_r, then
    idx_r q_r, idx_r q_r^2, ... with q_r = 1 - alpha of its box. A
    row-wise np.cumprod yields exactly the floats that multiplying the
    index once per search would, so a merge takes those streams for every
    row and sorts them by (-index, row): a stable sort of the row-major
    layout puts equal indices lower row first, as the one-step rule does.
    The streams are sized from the request: each runs to its first index
    below the request's last search (or below _RESCALE_BELOW, or for at
    most _MAX_WIDTH searches), so one merge usually realizes the whole
    request, and a deeper one goes block by block.

    The one-step rule (step) decides only the searches a merge cannot:
    one whose index falls below _RESCALE_BELOW. `tied` records whether any
    search found two or more boxes at the maximal index, i.e. whether the
    tie ordering ever mattered, except for the start tie of the first n
    searches against p0."""

    __slots__ = ("order", "box_of", "rank", "t", "q", "q_list", "log_q",
                 "rows", "idx", "settled", "pos", "tied")

    def __init__(self, game: SearchGame, p: HidingStrategy,
                 order: TieOrdering | None, at_p0: bool):
        (self.order, self.box_of, self.rank, self.t, self.q, self.q_list,
         self.log_q, self.rows) = _ordered_params(game, order)
        self.idx = [1.0] * game.n if at_p0 else [
            p.p[b] * game.alpha[b] / game.t[b] for b in self.order
        ]
        # ties within the first `settled` searches are the designed start
        # tie at p0, which `tied` leaves out
        self.settled = game.n if at_p0 else 0
        self.pos = 0
        self.tied = False

    def step(self) -> int:
        """The one-step rule: search the earliest row of maximal index."""
        idx = self.idx
        best = max(idx)
        if best < _RESCALE_BELOW:
            if best <= 0.0:
                raise NumericalFailure("all Gittins indices are zero")
            idx = self.idx = [v * _RESCALE for v in idx]
            best *= _RESCALE
        row = idx.index(best)
        if self.pos >= self.settled and idx.count(best) > 1:
            self.tied = True
        idx[row] *= self.q_list[row]
        self.pos += 1
        return self.order[row]

    def can_visit(self, i: int) -> bool:
        # index 0 means the box is never searched again: p_i = 0, or a
        # perfect box already searched once
        return self.idx[self.rank[i]] > 0.0

    def take(self, steps: int | None,
             need: list[int] | None) -> Iterator[int | _Block]:
        """The next searches: each the one-step rule decides as its box,
        each merge as a _Block. With `steps`, that many searches. With
        `need`, up to the search after which every box i has been
        searched need[i] more times or can never be searched again."""
        if need is not None:
            need = [need[b] for b in self.order]
        while (steps > 0 and max(self.idx) > 0.0 if need is None else
               any(k > 0 and v > 0.0 for k, v in zip(need, self.idx))):
            if max(self.idx) < _RESCALE_BELOW:
                box = self.step()
                yield box
                if need is None:
                    steps -= 1
                else:
                    need[self.rank[box]] -= 1
                continue
            block, done = self._merge(steps, need)
            yield block
            if done:
                return
            if need is None:
                steps -= len(block.rows)
            else:
                need = [k - c for k, c in zip(need, block.counts)]

    def _merge(self, steps: int | None,
               need: list[int] | None) -> tuple[_Block, bool]:
        """One block of the request, and whether it ends the request; need
        is by row. Its first search is not for the one-step rule, so it is
        never empty."""
        idx = self.idx
        n = len(idx)
        if need is None:
            last = ()
            width = min(steps, _MAX_WIDTH)
        else:
            # each wanted row's last search it can still get (a perfect
            # box has only its first), and the smallest of their indices,
            # estimated: every stream runs to its first index below it
            last = []
            low = math.inf
            for i, (k, v, q) in enumerate(zip(need, idx, self.q_list)):
                if k > 0 and v > 0.0:
                    d = k - 1 if q else 0
                    last.append((i, d))
                    v *= q ** d
                    if v < low:
                        low = v
            if low < _RESCALE_BELOW:
                low = _RESCALE_BELOW
            deepest = 0
            for v, log_q in zip(idx, self.log_q):
                if v >= low:
                    k = int(math.log(low / v) / log_q)
                    if k > deepest:
                        deepest = k
            width = min(deepest + _STREAM_SLACK, _MAX_WIDTH)
        grid = np.empty((n, width + 1))
        grid[:, 0] = idx
        grid[:, 1:] = self.q[:, None]
        streams = grid.cumprod(axis=1, out=grid)
        # past a stream's last entry that row's next index is unknown:
        # only the entries above every stream's last one are merged
        floor = streams[:, -1].max()
        # the request's last search (c, h), read exactly off the streams:
        # the smallest of the wanted rows' last indices, at the highest
        # row holding it, since equal indices merge lower row first
        c, h = math.inf, -1
        for i, d in last:
            v = streams.item(i, min(d, width))
            if v <= c:
                c, h = v, i
        ends = h >= 0 and c > floor and c >= _RESCALE_BELOW
        if ends:
            chosen = streams >= c
        elif _RESCALE_BELOW > floor:
            # the one-step rule rescales from the first index below it
            chosen = streams >= _RESCALE_BELOW
        else:
            chosen = streams > floor
        flat = np.flatnonzero(chosen)
        # descending by index; stable on the row-major layout, so equal
        # indices go to the lower row
        keys = -streams.ravel()[flat]
        ranked = keys.argsort(kind="stable")
        keys = keys[ranked]
        stop = len(keys) if steps is None else min(len(keys), steps)
        if ends:
            # indices equal to c in rows above h merge after (c, h) and
            # stay unrealized
            while flat[ranked[stop - 1]] // (width + 1) > h:
                stop -= 1
        rows = flat[ranked[:stop]] // (width + 1)
        counts = np.bincount(rows, minlength=n)
        self.idx = streams[self.rows, counts].tolist()
        # an exact tie is two equal indices next to each other in the
        # merge, or an unrealized index equal to the last one; the start
        # tie at p0 is not one
        k = max(self.settled - self.pos, 0)
        if not self.tied and k < stop:
            self.tied = (bool((keys[k + 1:stop] == keys[k:stop - 1]).any())
                         or -keys[stop - 1] in self.idx)
        self.pos += stop
        counts = counts.tolist()
        # each row's slice of the row-major layout holds all its merged
        # entries, realized or not
        merged = counts if stop == len(flat) else chosen.sum(axis=1).tolist()
        bounds = list(itertools.accumulate(merged, initial=0))
        block = _Block(rows, ranked[:stop], bounds, counts)
        return block, ends or stop == steps


class SearchSequence:
    """A lazily extendable search sequence with memoized visit times.

    boxes holds the realized prefix; visit time tau_i(r) (completion time
    of the r-th search of box i, r >= 1) is available once realized.
    Each box's visit times live in a float64 buffer that grows by
    doubling; a box's first block of visits becomes its buffer as it is.
    Completed prefixes are append-only, so values handed out never change.
    A sequence extends from its Gittins driver while it has one; once its
    cycle is known it repeats the pattern instead.
    """

    __slots__ = (
        "game", "_boxes", "_visits", "_counts", "_elapsed", "_driver",
        "cycle", "_column",
    )

    def __init__(self, game: SearchGame, driver: _GittinsDriver | None = None,
                 cycle: CycleInfo | None = None):
        self.game = game
        self._boxes: list[int] = []
        # box i's visit times are _visits[i][:_counts[i]]
        self._visits: list[np.ndarray] = [_NO_VISITS] * game.n
        self._counts: list[int] = [0] * game.n
        self._elapsed = 0.0
        self._driver = driver
        self.cycle = cycle
        # the payoff column, memoized by payoff.payoff_column
        self._column = None

    def _reserve(self, b: int, k: int) -> np.ndarray:
        """Box b's buffer, grown if needed to hold k more visit times."""
        buf = self._visits[b]
        count = self._counts[b]
        if count + k > len(buf):
            grown = np.empty(max(count + k, 2 * len(buf)))
            grown[:count] = buf[:count]
            self._visits[b] = buf = grown
        return buf

    def _append(self, b: int) -> None:
        self._boxes.append(b)
        self._elapsed += self.game.t[b]
        count = self._counts[b]
        self._reserve(b, 1)[count] = self._elapsed
        self._counts[b] = count + 1

    def _append_block(self, block: _Block) -> None:
        """Append a merged block; one cumsum from the elapsed time gives
        the same visit times as adding them one at a time."""
        rows, slots, bounds, counts = block
        driver = self._driver
        times = np.empty(len(rows) + 1)
        times[0] = self._elapsed
        times[1:] = driver.t[rows]
        times.cumsum(out=times)
        self._elapsed = float(times[-1])
        self._boxes.extend(driver.box_of[rows].tolist())
        by_row = np.empty(bounds[-1])
        by_row[slots] = times[1:]
        for b, start, k in zip(driver.order, bounds, counts):
            if not k:
                continue
            count = self._counts[b]
            if count:
                self._reserve(b, k)[count:count + k] = by_row[start:start + k]
            else:
                self._visits[b] = by_row[start:start + k]
            self._counts[b] = count + k

    def _realize(self, steps: int | None, need: list[int] | None) -> None:
        """Append what the driver's take(steps, need) realizes."""
        for block in self._driver.take(steps, need):
            if type(block) is int:
                self._append(block)
            else:
                self._append_block(block)

    def _extend_once(self) -> None:
        if self._driver is not None:
            self._append(self._driver.step())
        else:
            pattern = self.cycle.pattern
            past_entry = len(self._boxes) - sum(self.cycle.entry)
            self._append(pattern[past_entry % len(pattern)])

    def __len__(self) -> int:
        return len(self._boxes)

    def ensure_length(self, length: int) -> None:
        missing = length - len(self._boxes)
        if missing <= 0:
            return
        if self._driver is not None:
            self._realize(missing, None)
        while len(self._boxes) < length:
            self._extend_once()

    def prefix(self, length: int) -> tuple[int, ...]:
        self.ensure_length(length)
        return tuple(self._boxes[:length])

    def num_visits(self, i: int) -> int:
        return self._counts[i]

    @property
    def tied(self) -> bool:
        """Whether index generation has met an exact tie that the ordering
        had to break, in the searches realized so far, apart from the
        start tie of the first n searches against p0. False for a
        sequence that does not extend from an index stream."""
        return self._driver is not None and self._driver.tied

    def can_visit_more(self, i: int) -> bool:
        """Whether further extension can ever add another visit of box i."""
        if self._driver is not None:
            return self._driver.can_visit(i)
        return i in self.cycle.pattern

    def ensure_visits(self, i: int | Sequence[int],
                      count: int | Sequence[int]) -> None:
        """Extend until box i has `count` realized visits. `i` and `count`
        may also be equal-length sequences of boxes and counts: one request
        for all of them, realizing the searches up to the last one needed
        that its box can still get. Raises InsufficientPrefix when a box
        can never get its count."""
        if isinstance(i, (int, np.integer)):
            if self._counts[i] >= count:
                return
            boxes, counts = (i,), (count,)
        else:
            boxes, counts = i, count
        need = [0] * self.game.n
        for b, c in zip(boxes, counts):
            need[b] = max(need[b], c - self._counts[b])
        if not any(need):
            return
        if self._driver is not None:
            self._realize(None, need)
        else:
            for b, c in zip(boxes, counts):
                while self._counts[b] < c and self.can_visit_more(b):
                    self._extend_once()
        for b, c in zip(boxes, counts):
            if self._counts[b] < c:
                raise InsufficientPrefix(
                    f"box {b} reaches only {self._counts[b]} visits; "
                    f"{c} requested"
                )

    def visit_times(self, i: int) -> np.ndarray:
        """Realized completion times of searches of box i, as a read-only
        float64 view."""
        view = self._visits[i][:self._counts[i]]
        view.flags.writeable = False
        return view

    def visit_prefixes(self, counts: Sequence[int]) -> np.ndarray:
        """The first counts[i] realized visit times of every box i,
        concatenated in box order into one new array."""
        return np.concatenate(
            [buf[:k] for buf, k in zip(self._visits, counts)]
        )

    def visit_time(self, i: int, r: int) -> float:
        """tau_i(r): completion time of the r-th search of box i (r >= 1)."""
        self.ensure_visits(i, r)
        return float(self._visits[i][r - 1])

    def to_jsonable(self, length: int | None = None) -> dict:
        """Serialize as a 1-based box list, plus the cycle when detected."""
        if length is None:
            length = len(self._boxes)
        out: dict = {"boxes": [b + 1 for b in self.prefix(length)]}
        if self.cycle is not None:
            out["cycle"] = {
                "pattern": [b + 1 for b in self.cycle.pattern],
                "entry": list(self.cycle.entry),
            }
        return out


def from_pattern(game: SearchGame,
                 pattern: tuple[int, ...] | list[int]) -> SearchSequence:
    """Sequence repeating `pattern` forever from the first search."""
    pattern = tuple(pattern)
    if not pattern:
        raise EmptyGame("pattern must be nonempty")
    if any(not 0 <= b < game.n for b in pattern):
        raise InvalidGameError(f"pattern {pattern} has out-of-range boxes")
    return SearchSequence(
        game, cycle=CycleInfo(entry=(0,) * game.n, pattern=pattern)
    )


def gittins_sequence(
    game: SearchGame, p: HidingStrategy, order: TieOrdering | None = None,
) -> SearchSequence:
    """Gittins counter to p, with its cycle identified on cyclic games.

    Float indices are compared exactly, and an exact tie goes to the box
    earliest in `order`, by default the identity: best responses use it.
    Against p0 all starting indices tie by design, so the first n searches
    follow the ordering; a counter to p0 (p equal to p0(game)) starts
    every index at 1.0, which makes that tie exact, and its later indices
    are the exact products q_i^m.

    On a cyclic game the sequence at p0 (within relative 1e-12) is one
    cycle of the integer rule from the first search; against any other
    full-support p the cycle is the first window of x_hat searches
    visiting each box i exactly x_i times. Boxes with p_i = 0 are never
    searched, and the sequence then has no cycle. A one-box game has one
    sequence, the pattern (0,).
    """
    if p.n != game.n:
        raise InvalidHidingStrategy("strategy length differs from box count")
    if game.n == 1:
        return from_pattern(game, (0,))
    start = p0(game)
    if game.cyclic is not None and all(
        abs(pi - bi) <= 1e-12 * bi for pi, bi in zip(p.p, start.p)
    ):
        order = order or TieOrdering.identity(game.n)
        return from_pattern(game, _integer_rule_pattern(game, order))
    driver = _GittinsDriver(game, p, order, p == start)
    seq = SearchSequence(game, driver=driver)
    if game.cyclic is not None and p.full_support:
        seq.cycle = _find_cycle(seq)
        if seq.cycle is not None:
            seq._driver = None  # the pattern drives the tail from here
    return seq


def _integer_rule_pattern(game: SearchGame, order: TieOrdering) -> tuple[int, ...]:
    """One cycle of the exact integer rule for a cyclic game started at p0.

    Searching argmax x_i/r_i (i.e. the smallest fraction r_i/x_i of its
    cycle quota used) reproduces the index order exactly; ties, including
    the all-boxes tie at the start and end of each cycle, go to sigma.
    """
    x = game.cyclic.x
    n = game.n
    rank = order.rank()
    r = [0] * n
    pattern = []
    for _ in range(game.cyclic.x_hat):
        choice = min(
            range(n), key=lambda i: (Fraction(r[i], x[i]), rank[i])
        )
        pattern.append(choice)
        r[choice] += 1
    assert r == list(x)
    return tuple(pattern)


def _find_cycle(seq: SearchSequence) -> CycleInfo | None:
    """Extend seq until x_hat consecutive searches visit each box i exactly
    x_i times. The posterior then equals its value at the window start, so
    the window repeats forever. None when no window appears within the
    step budget; the searches generated so far stay seq's prefix."""
    x = list(seq.game.cyclic.x)
    x_hat = seq.game.cyclic.x_hat
    boxes = seq._boxes
    window_counts = [0] * len(x)
    for step in range(_CYCLE_STEP_BUDGET_FACTOR * x_hat):
        seq._extend_once()
        window_counts[boxes[step]] += 1
        if step >= x_hat:
            window_counts[boxes[step - x_hat]] -= 1
        if window_counts == x:
            start = step + 1 - x_hat
            entry = tuple(boxes[:start].count(i) for i in range(len(x)))
            return CycleInfo(entry=entry, pattern=tuple(boxes[start:]))
    return None
