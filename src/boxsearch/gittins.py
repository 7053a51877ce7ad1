"""Gittins index search sequences with explicit tie-breaking.

Against a fixed hiding strategy p, an optimal search sequence always next
searches a box of maximal index p_i (1-alpha_i)^{m_i} alpha_i / t_i, where
m_i counts completed searches of box i. gittins_sequence() builds every
such counter, and its tie ordering chooses the tie rule:

- no ordering gives the exact counter: float indices are compared
  directly and an exact tie goes to the lower box. Best responses use it.
- an ordering sigma gives the sigma-deterministic counter: indices within
  relative 1e-9 of the maximum tie, and the box earliest in sigma is
  searched. The strategy p0 ties all n starting indices by design, so
  against p0 the first n searches simply follow sigma.

Cyclic games admit an exact integer tie rule: starting from p0, comparing
fractions r_i/x_i (r_i = searches of box i inside the current cycle)
reproduces the index order exactly, and every tie is detected. Sequences
there repeat a fixed cycle of x_hat searches from the very start. For
other full-support strategies generation runs until some window of x_hat
consecutive searches visits box i exactly x_i times; from that entry
point the sequence provably repeats the window forever.

A detected cycle is the sequence's periodic tail: past the cycle's entry
a sequence extends from the cycle's pattern, and otherwise from its index
stream. Sequences are generated lazily and extended on demand; per-box
visit completion times are memoized so repeated payoff evaluations never
regenerate prefixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceeded,
    EmptyGame,
    InsufficientPrefix,
    InvalidGameError,
    InvalidHidingStrategy,
    NumericalFailure,
)
from .model import HidingStrategy, SearchGame, p0

TIE_REL_TOL = 1e-9

# the n! counters of the p0 test stop being practical above this n
ORDERING_CAP = 8

_CYCLE_STEP_BUDGET_FACTOR = 10_000

# indices only decay; once the largest falls below _RESCALE_BELOW, all of
# them are multiplied by its inverse, a power of two, which is exact, so
# no index ever stalls among the subnormals
_RESCALE_BELOW = 2.0 ** -600
_RESCALE = 2.0 ** 600


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


def gittins_index(p_i: float, alpha_i: float, t_i: float, m_i: int) -> float:
    """Index of a box holding probability p_i after m_i failed searches."""
    return p_i * (1.0 - alpha_i) ** m_i * alpha_i / t_i


@dataclass(frozen=True)
class CycleInfo:
    """A sequence's periodic tail: entry[i] = searches of box i before
    the cycle begins; pattern = the boxes repeated forever after entry
    (x_hat of them for a Gittins counter on a cyclic game)."""

    entry: tuple[int, ...]
    pattern: tuple[int, ...]


class _GittinsDriver:
    """Streams the next box of a Gittins sequence against p.

    Maintains current index values by one multiplication per step; drift
    versus recomputing powers is ~1 ulp per step, far below the tie
    tolerance. An optional forced prefix pins the first searches to a
    given order (the designed starting tie at p0). `tied` records whether
    any step after that prefix found two or more boxes within tolerance
    of the maximal index, i.e. whether the tie ordering ever mattered."""

    __slots__ = ("alpha", "idx", "rank", "tol", "forced", "pos", "tied")

    def __init__(self, game: SearchGame, p: HidingStrategy, order: TieOrdering,
                 tol: float, forced: tuple[int, ...] | None):
        self.alpha = game.alpha
        self.idx = [
            pi * ai / ti for pi, ai, ti in zip(p.p, game.alpha, game.t)
        ]
        self.rank = order.rank()
        self.tol = tol
        self.forced = forced
        self.pos = 0
        self.tied = False

    def step(self) -> int:
        if self.forced is not None and self.pos < len(self.forced):
            choice = self.forced[self.pos]
        else:
            idx = self.idx
            best = max(idx)
            if best < _RESCALE_BELOW:
                if best <= 0.0:
                    raise NumericalFailure("all Gittins indices are zero")
                idx = self.idx = [v * _RESCALE for v in idx]
                best *= _RESCALE
            cut = best - best * self.tol
            choice = -1
            choice_rank = len(idx)
            for i, v in enumerate(idx):
                if v >= cut:
                    if choice >= 0:
                        self.tied = True
                    if self.rank[i] < choice_rank:
                        choice = i
                        choice_rank = self.rank[i]
        self.idx[choice] *= 1.0 - self.alpha[choice]
        self.pos += 1
        return choice

    def can_visit(self, i: int) -> bool:
        # index 0 means the box is never searched again: p_i = 0, or a
        # perfect box already searched once
        return self.idx[i] > 0.0


class SearchSequence:
    """A lazily extendable search sequence with memoized visit times.

    boxes holds the realized prefix; visit time tau_i(r) (completion time
    of the r-th search of box i, r >= 1) is available once realized.
    Completed prefixes are append-only, so values handed out never change.
    A sequence extends from its Gittins driver while it has one; once its
    cycle is known it repeats the pattern instead, and without either it
    is finite.
    """

    __slots__ = (
        "game", "_boxes", "_visits", "_elapsed", "_driver", "cycle",
        "degenerate_support", "_payoff_cache",
    )

    def __init__(self, game: SearchGame, driver: _GittinsDriver | None = None,
                 boxes: tuple[int, ...] = (), cycle: CycleInfo | None = None,
                 degenerate_support: bool = False):
        self.game = game
        self._boxes: list[int] = []
        self._visits: list[list[float]] = [[] for _ in range(game.n)]
        self._elapsed = 0.0
        self._driver = driver
        self.cycle = cycle
        self.degenerate_support = degenerate_support
        self._payoff_cache: dict = {}
        for b in boxes:
            self._append(b)

    def _append(self, b: int) -> None:
        self._boxes.append(b)
        self._elapsed += self.game.t[b]
        self._visits[b].append(self._elapsed)

    def _extend_once(self) -> None:
        if self._driver is not None:
            self._append(self._driver.step())
        elif self.cycle is not None:
            pattern = self.cycle.pattern
            past_entry = len(self._boxes) - sum(self.cycle.entry)
            self._append(pattern[past_entry % len(pattern)])
        else:
            raise InsufficientPrefix(
                f"sequence of length {len(self._boxes)} is not extendable"
            )

    def __len__(self) -> int:
        return len(self._boxes)

    def ensure_length(self, length: int) -> None:
        while len(self._boxes) < length:
            self._extend_once()

    def prefix(self, length: int) -> tuple[int, ...]:
        self.ensure_length(length)
        return tuple(self._boxes[:length])

    def num_visits(self, i: int) -> int:
        return len(self._visits[i])

    @property
    def tied(self) -> bool:
        """Whether index generation has met a tie that the ordering had to
        break after the forced prefix, in the searches realized so far.
        False for a sequence that does not extend from an index stream."""
        return self._driver is not None and self._driver.tied

    def can_visit_more(self, i: int) -> bool:
        """Whether further extension can ever add another visit of box i."""
        if self._driver is not None:
            return self._driver.can_visit(i)
        return self.cycle is not None and i in self.cycle.pattern

    def ensure_visits(self, i: int, count: int) -> None:
        while len(self._visits[i]) < count:
            if not self.can_visit_more(i):
                raise InsufficientPrefix(
                    f"box {i} reaches only {len(self._visits[i])} visits; "
                    f"{count} requested"
                )
            self._extend_once()

    def visit_times(self, i: int) -> list[float]:
        """Realized completion times of searches of box i (read-only use)."""
        return self._visits[i]

    def visit_time(self, i: int, r: int) -> float:
        """tau_i(r): completion time of the r-th search of box i (r >= 1)."""
        self.ensure_visits(i, r)
        return self._visits[i][r - 1]

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


def from_boxes(game: SearchGame, boxes) -> SearchSequence:
    """Finite, non-extendable sequence (requests past its end fail)."""
    return SearchSequence(game, driver=None, boxes=tuple(boxes))


def gittins_sequence(
    game: SearchGame, p: HidingStrategy, order: TieOrdering | None = None,
) -> SearchSequence:
    """Gittins counter to p, with its cycle identified on cyclic games.

    Without `order` this is the exact counter: indices are compared
    directly and an exact tie goes to the lower box. Whatever comes out is
    a Gittins counter of the rounded index process, which is all a best
    response needs. With `order` it is the sigma-deterministic counter:
    indices within TIE_REL_TOL tie and go to the box earliest in sigma,
    and when p is p0 (within relative 1e-12) the first n searches follow
    sigma, since all starting indices tie there by design.

    On a cyclic game the sequence at p0 is one cycle of the integer rule
    from the first search; against any other full-support p the cycle is
    the first window of x_hat searches visiting each box i exactly x_i
    times. Boxes with p_i = 0 are never searched; the sequence is then
    flagged degenerate_support and has no cycle.
    """
    if p.n != game.n:
        raise InvalidHidingStrategy("strategy length differs from box count")
    exact = order is None
    if exact:
        order = TieOrdering.identity(game.n)
    at_p0 = all(
        abs(pi - bi) <= 1e-12 * bi for pi, bi in zip(p.p, p0(game).p)
    )
    if game.cyclic is not None and at_p0:
        return from_pattern(game, _integer_rule_pattern(game, order))
    driver = _GittinsDriver(
        game, p, order,
        tol=0.0 if exact else TIE_REL_TOL,
        forced=order.sigma if at_p0 and not exact else None,
    )
    seq = SearchSequence(
        game, driver=driver, degenerate_support=not p.full_support
    )
    if game.cyclic is not None and p.full_support:
        seq.cycle = _find_cycle(seq)
        if seq.cycle is not None:
            seq._driver = None  # the pattern drives the tail from here
    return seq


def replay_check(game: SearchGame, p: HidingStrategy, seq: SearchSequence,
                 rel_tol: float = TIE_REL_TOL, length: int | None = None) -> bool:
    """Verify each realized choice attains the maximal index within rel_tol.

    Recomputes every index from scratch per step, independently of the
    incremental generator.
    """
    if length is None:
        length = len(seq)
    boxes = seq.prefix(length)
    m = [0] * game.n
    for step in range(length):
        b = boxes[step]
        vals = [
            gittins_index(p.p[i], game.alpha[i], game.t[i], m[i])
            for i in range(game.n)
        ]
        best = max(vals)
        if vals[b] < best - best * rel_tol:
            return False
        m[b] += 1
    return True


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
