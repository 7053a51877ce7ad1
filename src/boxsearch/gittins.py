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
streams. Either way it grows in blocks of searches, one driver's take()
at a time. Sequences are generated lazily, one request at a time (so many
searches, or so many visits of some boxes), and a request is usually
realized in one merge: each box's next indices come from one sequential
product, a cumprod that yields exactly the floats of multiplying once per
search, run just past the request's last search, and one stable sort of
the streams laid out in sigma order merges them by index, an exact tie
going to the box earliest in sigma. A request deeper than the cap on a
stream goes block by block (see _GittinsDriver). A pattern is tiled into
blocks (see _PatternDriver). Per-box visit completion times are memoized
so repeated payoff evaluations never regenerate prefixes. The box order
is kept as each block's box array, and becomes a Python list only when
a caller reads the boxes themselves (a prefix, a cycle search, JSON).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
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
    layout puts equal indices lower row first. The streams are sized from
    the request: each runs to its first index below the request's last
    search (or below _RESCALE_BELOW, or for at most _MAX_WIDTH searches),
    so one merge usually realizes the whole request, and a deeper one goes
    block by block.

    Once the largest index falls below _RESCALE_BELOW, take() multiplies
    every index by _RESCALE, a power of two, which is exact. `tied`
    records whether any search found two or more boxes at the maximal
    index, i.e. whether the tie ordering ever mattered, except for the
    start tie of the first n searches against p0."""

    __slots__ = ("order", "box_of", "rank", "t", "q", "q_list", "log_q",
                 "rows", "idx", "settled", "pos", "tied", "_unloaded")

    def __init__(self, game: SearchGame, p: HidingStrategy,
                 order: TieOrdering | None, at_p0: bool):
        # (game, order) until the stream constants are loaded: a counter
        # to p0 starts every index at 1.0 and needs none of them before
        # its first block, so one that is never realized builds none
        self._unloaded = (game, order)
        if at_p0:
            self.idx = [1.0] * game.n
        else:
            self._load()
            self.idx = [p.p[b] * game.alpha[b] / game.t[b]
                        for b in self.order]
        # ties within the first `settled` searches are the designed start
        # tie at p0, which `tied` leaves out
        self.settled = game.n if at_p0 else 0
        self.pos = 0
        self.tied = False

    def _load(self) -> None:
        (self.order, self.box_of, self.rank, self.t, self.q, self.q_list,
         self.log_q, self.rows) = _ordered_params(*self._unloaded)
        self._unloaded = None

    def can_visit(self, i: int) -> bool:
        # index 0 means the box is never searched again: p_i = 0, or a
        # perfect box already searched once; unloaded, every index is 1.0
        return self._unloaded is not None or self.idx[self.rank[i]] > 0.0

    def take(self, steps: int | None,
             need: list[int] | None) -> Iterator[_Block]:
        """The next searches, one merge per _Block. With `steps`, that many
        searches; NumericalFailure once every index is zero. With `need`,
        up to the search after which every box i has been searched need[i]
        more times or can never be searched again."""
        if self._unloaded is not None:
            self._load()
        if need is not None:
            need = [need[b] for b in self.order]
        while (steps > 0 if need is None else
               any(k > 0 and v > 0.0 for k, v in zip(need, self.idx))):
            best = max(self.idx)
            if best < _RESCALE_BELOW:
                if best <= 0.0:
                    raise NumericalFailure("all Gittins indices are zero")
                self.idx = [v * _RESCALE for v in self.idx]
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
        is by row. take() rescales first, so its first search is at or above
        _RESCALE_BELOW and it is never empty."""
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
            # take() rescales from the first index below it
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


class _PatternDriver:
    """Repeats a pattern of boxes forever, in blocks of at most _MAX_WIDTH
    searches. Its rows are those of the identity ordering (row r holds box
    r), so it shares the game's _stream_params; pos is the place in the
    pattern of the next search."""

    __slots__ = ("order", "box_of", "t", "period", "places", "tiled", "pos",
                 "tied")

    def __init__(self, game: SearchGame, pattern: tuple[int, ...]):
        params = _stream_params(game)
        self.order, self.box_of, self.t = params.order, params.box_of, params.t
        self.period = len(pattern)
        # places[i]: the places of box i in the pattern, ascending
        self.places = [[] for _ in range(game.n)]
        for k, b in enumerate(pattern):
            self.places[b].append(k)
        # the pattern repeated, as often as the widest block yet needs
        self.tiled = np.array(pattern * 2)
        self.pos = 0
        self.tied = False

    def can_visit(self, i: int) -> bool:
        return bool(self.places[i])

    def take(self, steps: int | None,
             need: list[int] | None) -> Iterator[_Block]:
        """The next searches, in blocks. With `steps`, that many. With
        `need`, up to the last search that brings some box i in the
        pattern need[i] more visits."""
        period = self.period
        if need is not None:
            steps = 0
            for places, k in zip(self.places, need):
                if k > 0 and places:
                    # box i's first visit from pos on is at its j-th place,
                    # and its k-th visit k - 1 places further on, counting
                    # through the pattern's repeats
                    j = bisect.bisect_left(places, self.pos)
                    laps, r = divmod(j + k - 1, len(places))
                    steps = max(steps, laps * period + places[r] - self.pos + 1)
        n = len(self.order)
        while steps > 0:
            width = min(steps, _MAX_WIDTH)
            stop = self.pos + width
            if stop > len(self.tiled):
                self.tiled = np.tile(self.tiled[:period], stop // period + 1)
            rows = self.tiled[self.pos:stop]
            self.pos = stop % period
            steps -= width
            counts = np.bincount(rows, minlength=n).tolist()
            # the buffer holds the block's searches by row, in order
            slots = np.empty(width, dtype=np.intp)
            slots[rows.argsort(kind="stable")] = np.arange(width)
            yield _Block(rows, slots,
                         list(itertools.accumulate(counts, initial=0)), counts)


class SearchSequence:
    """A lazily extendable search sequence with memoized visit times.

    The realized prefix is kept as the box arrays of the blocks appended,
    joined into one list of boxes only when prefix(), to_jsonable() or a
    cycle search reads it; len() is a running count. Visit time tau_i(r)
    (completion time of the r-th search of box i, r >= 1) is available
    once realized.
    Each box's visit times live in a float64 buffer that grows by
    doubling; a box's first block of visits becomes its buffer as it is.
    Completed prefixes are append-only, so values handed out never change.
    A sequence extends from its driver's blocks: a Gittins driver's index
    streams, or, once its cycle is known, a pattern driver's repeats.
    """

    __slots__ = (
        "game", "_boxes", "_blocks", "_length", "_visits", "_counts",
        "_elapsed", "_driver", "cycle", "_column",
    )

    def __init__(self, game: SearchGame,
                 driver: _GittinsDriver | _PatternDriver,
                 cycle: CycleInfo | None = None):
        self.game = game
        # the realized boxes: _boxes as a list, then the box arrays of the
        # blocks appended since _box_list last read them
        self._boxes: list[int] = []
        self._blocks: list[np.ndarray] = []
        self._length = 0
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
        self._blocks.append(driver.box_of[rows])
        self._length += len(rows)
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
        """Append the blocks of the driver's take(steps, need)."""
        for block in self._driver.take(steps, need):
            self._append_block(block)

    def _box_list(self) -> list[int]:
        """The realized boxes as a list, which later calls extend in place."""
        if self._blocks:
            self._boxes.extend(np.concatenate(self._blocks).tolist())
            self._blocks.clear()
        return self._boxes

    def _cut(self, length: int) -> None:
        """Drop every search past the first `length`, before any visit
        time is handed out."""
        boxes = self._box_list()
        del boxes[length:]
        self._length = length
        self._counts = [0] * self.game.n
        for b in boxes:
            self._counts[b] += 1
        last = boxes[-1]
        self._elapsed = float(self._visits[last][self._counts[last] - 1])

    def __len__(self) -> int:
        return self._length

    def ensure_length(self, length: int) -> None:
        if length > self._length:
            self._realize(length - self._length, None)

    def prefix(self, length: int) -> tuple[int, ...]:
        self.ensure_length(length)
        return tuple(self._box_list()[:length])

    def num_visits(self, i: int) -> int:
        return self._counts[i]

    @property
    def tied(self) -> bool:
        """Whether index generation has met an exact tie that the ordering
        had to break, in the searches realized so far, apart from the
        start tie of the first n searches against p0. False for a
        sequence that extends from a pattern."""
        return self._driver.tied

    def can_visit_more(self, i: int) -> bool:
        """Whether further extension can ever add another visit of box i."""
        return self._driver.can_visit(i)

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
            k = c - self._counts[b]
            if k > need[b]:
                need[b] = k
        if not any(need):
            return
        self._realize(None, need)
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
        """The first counts[i] visit times of every box i, concatenated in
        box order into one new array. A box with fewer realized visits
        reads 0.0 in all its slots: no unrealized slot is read."""
        return np.concatenate([
            buf[:k] if k <= c else np.zeros(k)
            for buf, c, k in zip(self._visits, self._counts, counts)
        ])

    def visit_time(self, i: int, r: int) -> float:
        """tau_i(r): completion time of the r-th search of box i (r >= 1)."""
        self.ensure_visits(i, r)
        return float(self._visits[i][r - 1])

    def to_jsonable(self, length: int | None = None) -> dict:
        """Serialize as a 1-based box list, plus the cycle when detected."""
        if length is None:
            length = self._length
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
    return SearchSequence(game, _PatternDriver(game, pattern),
                          CycleInfo(entry=(0,) * game.n, pattern=pattern))


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
    seq = SearchSequence(game, _GittinsDriver(game, p, order, p == start))
    if game.cyclic is not None and p.full_support:
        seq.cycle = _find_cycle(seq)
        if seq.cycle is not None:
            # the pattern drives the tail from here
            seq._driver = _PatternDriver(game, seq.cycle.pattern)
    return seq


def _integer_rule_pattern(game: SearchGame, order: TieOrdering) -> tuple[int, ...]:
    """One cycle of the exact integer rule for a cyclic game started at p0.

    Searching the box with the smallest fraction r_i/x_i of its cycle quota
    used (r_i = its searches in the cycle so far) reproduces the index
    order exactly; ties, including the all-boxes tie at the start and end
    of each cycle, go to sigma. Box i's k-th search in the cycle (k from
    0) comes at fraction k/x_i, so the cycle is one sort of the exact
    integer keys k * lcm(x) / x_i, ties by rank in sigma.
    """
    x = game.cyclic.x
    lcm = math.lcm(*x)
    rank = order.rank()
    keys = sorted((k * lcm // x_i, rank[i], i)
                  for i, x_i in enumerate(x) for k in range(x_i))
    return tuple(i for _, _, i in keys)


def _find_cycle(seq: SearchSequence) -> CycleInfo | None:
    """Realize seq, in blocks doubling in length, until x_hat consecutive
    searches visit each box i exactly x_i times. The posterior then equals
    its value at the window start, so the window repeats forever; seq is
    cut back to the end of the first such window, since past it the float
    indices need not follow the pattern. None when no window appears
    within the step budget; the searches realized so far stay seq's
    prefix."""
    x = list(seq.game.cyclic.x)
    x_hat = seq.game.cyclic.x_hat
    budget = _CYCLE_STEP_BUDGET_FACTOR * x_hat
    # window[i] counts box i's searches among the x_hat that end at search
    # `end`, the last one scanned
    window = [0] * len(x)
    end = 0
    while end < budget:
        seq.ensure_length(min(max(2 * end, 2 * x_hat), budget))
        boxes = seq._box_list()
        while end < len(boxes):
            window[boxes[end]] += 1
            if end >= x_hat:
                window[boxes[end - x_hat]] -= 1
            end += 1
            if window == x:
                start = end - x_hat
                seq._cut(end)
                entry = tuple(boxes[:start].count(i) for i in range(len(x)))
                return CycleInfo(entry=entry, pattern=tuple(boxes[start:]))
    return None
