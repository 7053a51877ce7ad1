"""The one-step Gittins generator, kept as a test oracle.

This is how boxsearch generated Gittins sequences before it realized
them in blocks: every search re-reads all current indices, takes the
largest (an exact tie goes to the box earliest in the tie ordering, and
sets `tied` unless it is the start tie of the first n searches against
p0, where every index starts at 1.0), multiplies the chosen box's index
by 1 - alpha, and adds the search time to the clock. The largest index
is rescaled by 2**600 once it falls below 2**-600. Block generation must
reproduce its boxes, visit times, `tied` flag and length after every
request exactly. replay_check is a second, stateless reference: it
recomputes every index from its closed form.

OraclePattern does the same for a sequence that repeats a pattern, one
search at a time, and integer_rule_greedy is the integer tie rule of a
cyclic game at p0 as boxsearch first computed it: one exact Fraction
comparison per search.
"""

from fractions import Fraction

from boxsearch.errors import InsufficientPrefix, NumericalFailure
from boxsearch.gittins import TieOrdering
from boxsearch.model import p0

_RESCALE_BELOW = 2.0 ** -600
_RESCALE = 2.0 ** 600

# replay_check's closed-form pow indices and the generator's sequential
# products round differently, so a choice may trail the maximum by this
_REPLAY_SLACK = 1e-9


class OracleSequence:
    """The Gittins counter to p that gittins_sequence builds on a game of
    two or more boxes without declared cyclic structure, one search at a
    time."""

    def __init__(self, game, p, order: TieOrdering | None = None):
        order = order or TieOrdering.identity(game.n)
        at_p0 = p == p0(game)
        self.game = game
        self.idx = [1.0] * game.n if at_p0 else [
            pi * ai / ti for pi, ai, ti in zip(p.p, game.alpha, game.t)
        ]
        self.rank = order.rank()
        self.settled = game.n if at_p0 else 0
        self.tied = False
        self.boxes: list[int] = []
        self.visits: list[list[float]] = [[] for _ in range(game.n)]
        self.elapsed = 0.0

    def __len__(self) -> int:
        return len(self.boxes)

    def _step(self) -> None:
        best = max(self.idx)
        if best < _RESCALE_BELOW:
            if best <= 0.0:
                raise NumericalFailure("all Gittins indices are zero")
            self.idx = [v * _RESCALE for v in self.idx]
            best *= _RESCALE
        choice, choice_rank = -1, len(self.idx)
        for i, v in enumerate(self.idx):
            if v == best:
                if choice >= 0 and len(self.boxes) >= self.settled:
                    self.tied = True
                if self.rank[i] < choice_rank:
                    choice, choice_rank = i, self.rank[i]
        self.idx[choice] *= 1.0 - self.game.alpha[choice]
        self.boxes.append(choice)
        self.elapsed += self.game.t[choice]
        self.visits[choice].append(self.elapsed)

    def ensure_length(self, length: int) -> None:
        while len(self.boxes) < length:
            self._step()

    def ensure_visits(self, boxes, counts) -> None:
        """Search while some requested box is short of its count and can
        still be searched (nonzero index); raise if one stays short."""
        while any(len(self.visits[b]) < c and self.idx[b] > 0.0
                  for b, c in zip(boxes, counts)):
            self._step()
        for b, c in zip(boxes, counts):
            if len(self.visits[b]) < c:
                raise InsufficientPrefix(f"box {b} stays short of {c} visits")


def gittins_index(p_i: float, alpha_i: float, t_i: float, m_i: int) -> float:
    """Index of a box holding probability p_i after m_i failed searches."""
    return p_i * (1.0 - alpha_i) ** m_i * alpha_i / t_i


def replay_check(game, p, seq, rel_tol: float = _REPLAY_SLACK,
                 length: int | None = None) -> bool:
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


class OraclePattern:
    """A sequence that searches the boxes of `head`, then repeats `pattern`
    forever, one search at a time; `tied` is always False."""

    def __init__(self, game, head, pattern):
        self.game = game
        self.head = list(head)
        self.pattern = list(pattern)
        self.tied = False
        self.boxes: list[int] = []
        self.visits: list[list[float]] = [[] for _ in range(game.n)]
        self.elapsed = 0.0

    def __len__(self) -> int:
        return len(self.boxes)

    def _step(self) -> None:
        k = len(self.boxes)
        if k < len(self.head):
            box = self.head[k]
        else:
            box = self.pattern[(k - len(self.head)) % len(self.pattern)]
        self.boxes.append(box)
        self.elapsed += self.game.t[box]
        self.visits[box].append(self.elapsed)

    def _can_visit(self, box) -> bool:
        return box in self.pattern or box in self.head[len(self.boxes):]

    def ensure_length(self, length: int) -> None:
        while len(self.boxes) < length:
            self._step()

    def ensure_visits(self, boxes, counts) -> None:
        """Search while some requested box is short of its count and can
        still be searched; raise if one stays short."""
        while any(len(self.visits[b]) < c and self._can_visit(b)
                  for b, c in zip(boxes, counts)):
            self._step()
        for b, c in zip(boxes, counts):
            if len(self.visits[b]) < c:
                raise InsufficientPrefix(f"box {b} stays short of {c} visits")


def integer_rule_greedy(x, order: TieOrdering) -> tuple[int, ...]:
    """One cycle of the integer rule: each search goes to the box with the
    smallest fraction r_i/x_i of its quota used (r_i = its searches so
    far), an exact tie to the box earliest in the ordering."""
    rank = order.rank()
    r = [0] * len(x)
    pattern = []
    for _ in range(sum(x)):
        choice = min(range(len(x)),
                     key=lambda i: (Fraction(r[i], x[i]), rank[i]))
        pattern.append(choice)
        r[choice] += 1
    assert r == list(x)
    return tuple(pattern)
