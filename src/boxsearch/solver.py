"""Smoothed cutting-plane solver with certified value brackets.

The hider's payoff u(p) = min_xi u(p, xi) is the lower envelope of the
linear functions p -> u(p, xi), one per search sequence, so maximizing it
is a cutting-plane problem. Each iteration solves the finite matrix game
restricted to the sequences stored so far; its optimum (p_k, v_k) bounds
the game value from above, since the searcher is restricted. Kelley's
method would query the Gittins best response at p_k itself, which can
lie on the boundary of the simplex, where a response need not search
every box. Here the query point is smoothed (Wentges 1997):
q = lambda p_k + (1 - lambda) p_best with lambda = 0.3, where the
stability center p_best is the point with the best lower bound
L = u(p_best) so far, starting at p0. Every query point is interior, so
every response searches every box and pays finitely against each. A
response that cuts off (p_k, v_k) is stored as a new column. One that
does not (a mispricing) still lifts L by at least lambda (v_k - L), by
concavity of u, and the query is repeated nearer p_k. Iteration stops
once U_k/L - 1 < epsilon, with U_k the LP value plus the worst bracket
half-width; p_best is the returned hiding strategy, and the searcher's
optimal mixture comes from the final LP's duals and mixes at most n
sequences.

The first LP has n columns: the sigma-deterministic counters to p0 for
the n rotations sigma of (0, ..., n-1). Each searches every box once, in
the order sigma, and then faces the same indices, so unless a later
index tie lets the ordering matter again they share one tail and
u(i, sigma) = alpha_i P_sigma(i) + D_i, with P_sigma(i) the end of box
i's first search. One builder, _p0_columns, makes these columns for the
solve and for the p0 test alike. Only the identity-ordered counter is
realized; the other columns are its column shifted by alpha_i
(P_sigma(i) - P_identity(i)), with its bracket half-widths. On cyclic
games, and when that counter met a tie, every column is evaluated from
its own counter. A counter whose column was shifted is realized only if
the final mixture uses it, and the certificate brackets it from its own
series. Given the p0 test's result on the same game, the solve starts
from that test's realized identity counter, whose column is memoized,
and, where the test shifted its columns, from the test's first LP, which
is the solve's own first LP over the same n columns.

A separate finite test decides whether the heuristic strategy p0 is
exactly optimal: p0 is optimal in the full game if and only if it is
optimal in the finite game restricted to the sigma-deterministic Gittins
counters against p0, which reduces to comparing that game's value with
u(p0). The test is one loop over the builder's columns. Where they are
shifted, those counters differ only in the order of their first n
searches, and the loop is column generation from the n rotations,
pricing each new ordering with Smith's rule for single-machine weighted
completion time; u(p0) is the identity counter's bracket. Otherwise
(cyclic games, a tie) it is one LP over all n! counters, and u(p0) is
the bracket of the counter that pays least against p0.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxNeverSearched
from .gittins import (
    SearchSequence,
    TieOrdering,
    all_orderings,
    gittins_sequence,
    initial_orderings,
)
from .lp import LpSolution, recover_searcher_mixture, solve_hider_lp
from .model import HidingStrategy, SearchGame, p0
from .payoff import (
    PayoffBracket,
    check_mixture_weights,
    expected_payoff,
    payoff_column,
    release_tables,
)

P0_OPT_REL_THRESHOLD = 1e-9
# column generation in the p0 test stops when the best ordering pays at
# least the LP value less this relative margin, which absorbs LP rounding
_PRICE_REL_TOL = 1e-12
# the solve queries best responses at weight p_k + (1 - weight) p_best:
# first at _LAMBDA, then after each mispricing at the next weight, and
# last at p_k itself when p_k is interior
_LAMBDA = 0.3
_QUERY_WEIGHTS = (_LAMBDA, 0.95, 0.999)


@dataclass(frozen=True)
class SolveConfig:
    """epsilon is the relative-gap target of the certified bracket [L, U];
    max_iterations caps the cutting-plane loop. Payoff brackets are built
    to PAYOFF_REL_TOL (1e-10), so epsilon should stay well above it."""

    epsilon: float = 1e-6
    max_iterations: int = 10000

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class Termination(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    # no query cut the LP optimum, and either the last response's column
    # was already stored (the LP cannot change) or L did not rise (the
    # next iteration would repeat this one)
    STALLED = "stalled"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    upper: float
    lower: float
    gap: float
    added_sequence: int | None
    # queries in this iteration whose response could not cut (p_k, v_k)
    mispriced: int


@dataclass(frozen=True)
class Solution:
    p_star: HidingStrategy
    theta: tuple[float, ...]
    sequences: tuple[SearchSequence, ...]
    L: float
    U: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    termination: Termination

    @property
    def gap(self) -> float:
        return self.U / self.L - 1.0

    def theta_support(self) -> list[tuple[float, SearchSequence]]:
        return [
            (w, seq) for w, seq in zip(self.theta, self.sequences) if w > 0
        ]


@dataclass(frozen=True)
class P0TestResult:
    """sequences[0] is the realized identity counter to p0. _first_lp is
    the LP over the n rotation columns where the test shifted its
    columns (else None), which a solve of the same game starts from."""

    optimal: bool
    v_D: float
    u_p0: PayoffBracket
    theta: tuple[float, ...]
    sequences: tuple[SearchSequence, ...]
    sequences_used: int
    _first_lp: LpSolution | None = field(default=None, compare=False,
                                         repr=False)


def _store_column(mat: np.ndarray, k: int, values: np.ndarray) -> np.ndarray:
    """mat with values as its column k, doubled in width when it is full."""
    if k == mat.shape[1]:
        mat = np.concatenate([mat, np.empty_like(mat)], axis=1)
    mat[:, k] = values
    return mat


def _column_values(game: SearchGame,
                   seq: SearchSequence) -> tuple[np.ndarray, float]:
    """Midpoint payoffs u(i, seq) for all boxes and their worst bracket
    half-width (zero on sequences with a cycle, where brackets are exact)."""
    lower, upper, _ = payoff_column(game, seq)
    return 0.5 * (lower + upper), float((0.5 * (upper - lower)).max())


def _mixture_certificate(game: SearchGame, theta, sequences) -> float:
    """max_i u(i, theta) over bracket upper bounds: a rigorous upper bound
    on the game value for any searcher mixture theta, independent of LP
    rounding.

    For each box i, the fsum of w * u(i, xi).upper over the mixture's
    support in its order, from one pass over the support's payoff columns.
    """
    check_mixture_weights(theta)
    support = [(w, payoff_column(game, seq))
               for w, seq in zip(theta, sequences) if w != 0.0]
    if any((column.lower == math.inf).any() for _, column in support):
        raise BoxNeverSearched(
            "a box is never searched by a mixed-in sequence"
        )
    terms = np.array([w * column.upper for w, column in support])
    return max(math.fsum(box) for box in terms.T.tolist())


def _p0_counters(game: SearchGame,
                 orderings: list[TieOrdering]) -> list[SearchSequence]:
    """The sigma-deterministic Gittins counters to p0, one per ordering.

    Their first n searches follow sigma, so distinct orderings give
    pairwise distinct counters.
    """
    start = p0(game)
    return [gittins_sequence(game, start, sigma) for sigma in orderings]


def _p0_columns(game: SearchGame, orderings: list[TieOrdering],
                exhaustive: bool = False,
                identity: SearchSequence | None = None):
    """The counters to p0 for orderings (the identity first), a matrix of
    their midpoint payoffs with one column per ordering, the worst bracket
    half-width among them, and the column model sigma -> u(., sigma).

    Column 0 is the identity counter's, realized; `identity`, when given,
    is that counter, else a new one is built. Unless the game is
    cyclic or that counter met a tie, every counter to p0 shares its tail,
    u(i, sigma) = alpha_i P_sigma(i) + D_i, and the other columns are its
    column shifted by that model, their counters left unrealized.
    Otherwise the model is None and every column is its counter's own;
    with `exhaustive`, orderings is then first extended in place to all
    n! orderings, the identity still first.
    """
    if identity is None:
        identity = _p0_counters(game, orderings[:1])[0]
    values, worst_half = _column_values(game, identity)
    column_of = None
    if game.cyclic is None and not identity.tied:
        alpha = np.asarray(game.alpha)
        shared = values - alpha * _completion_times(game, range(game.n))

        def column_of(sigma):
            return alpha * _completion_times(game, sigma) + shared

    elif exhaustive:
        orderings[1:] = all_orderings(game.n)[1:]
    sequences = [identity] + _p0_counters(game, orderings[1:])
    mat = np.empty((game.n, len(orderings)))
    mat[:, 0] = values
    for k in range(1, len(orderings)):
        if column_of is not None:
            mat[:, k] = column_of(orderings[k].sigma)
        else:
            mat[:, k], half = _column_values(game, sequences[k])
            worst_half = max(worst_half, half)
    return sequences, mat, worst_half, column_of


def solve(game: SearchGame, config: SolveConfig | None = None,
          p0_test: P0TestResult | None = None) -> Solution:
    """Run the smoothed cutting-plane solve to an epsilon-certified value
    bracket.

    p0_test, the p0 test's result on this game, saves work the test has
    done: the solve takes its identity counter to p0, and its first LP
    where it has one, and returns what it would without them. A result
    from another game is refused with ValueError.
    """
    cfg = config or SolveConfig()
    identity = lp = None
    if p0_test is not None:
        identity = p0_test.sequences[0]
        if identity.game != game:
            raise ValueError("p0_test is the p0 test of another game")
        lp = p0_test._first_lp
    # column k holds the payoffs of sequences[k]; the LP reads a view
    sequences, mat, worst_half, _ = _p0_columns(
        game, initial_orderings(game.n), identity=identity)
    u = mat[:, :len(sequences)]
    stored = {mat[:, k].tobytes() for k in range(len(sequences))}

    # the stability center: the best lower-bound point queried so far;
    # the identity counter to p0 is the best response there
    p_best = p0(game)
    lower = expected_payoff(game, p_best, sequences[0]).lower
    trace: list[IterationRecord] = []
    added: int | None = None
    stalled = False
    for k in range(1, cfg.max_iterations + 1):
        # the LP changes only when the last iteration stored a column
        if lp is None or added is not None:
            u = mat[:, :len(sequences)]
            lp = solve_hider_lp(u, warm=lp)
        p_k = lp.p.as_array()
        # the LP sees bracket midpoints; inflating its value by the worst
        # half-width keeps the reported upper bound certified
        upper = lp.v + worst_half
        weights = _QUERY_WEIGHTS + ((1.0,) if all(lp.p.p) else ())
        added = None
        mispriced = 0
        lower_before = lower
        for weight in weights:
            q = weight * p_k + (1.0 - weight) * p_best.as_array()
            query = HidingStrategy(tuple((q / q.sum()).tolist()))
            response = gittins_sequence(game, query)
            bracket = expected_payoff(game, query, response)
            if bracket.lower > lower:
                lower, p_best = bracket.lower, query
            if upper / lower - 1.0 < cfg.epsilon:
                break
            # the payoff column is memoized on the response by expected_payoff
            values, half = _column_values(game, response)
            key = values.tobytes()
            # LP rounding can let a stored column pass the cut test
            repeated = key in stored
            if not repeated and p_k @ values < lp.v:
                stored.add(key)
                added = len(sequences)
                sequences.append(response)
                mat = _store_column(mat, added, values)
                worst_half = max(worst_half, half)
                break
            # mispriced: the response does not cut (p_k, v_k); u(query) still
            # lifts L by at least weight (v_k - L)
            mispriced += 1
        else:
            # no query cut (p_k, v_k): a stored column leaves the LP
            # unchanged, and with p_best unmoved the next iteration would
            # repeat this one
            stalled = repeated or lower == lower_before
        gap = upper / lower - 1.0
        trace.append(IterationRecord(k, upper, lower, gap, added, mispriced))
        if gap < cfg.epsilon or stalled:
            break

    final = trace[-1]
    theta = recover_searcher_mixture(u, lp)
    # the final LP predates any column added in its own iteration
    theta_full = [float(w) for w in theta]
    theta_full += [0.0] * (len(sequences) - len(theta_full))
    upper = final.upper
    if final.gap < cfg.epsilon:
        termination = Termination.CONVERGED
        # replace the LP value (subject to pivot rounding) by the dual
        # certificate; the two agree to ~1e-12
        upper = _mixture_certificate(game, theta_full, sequences)
    elif stalled:
        termination = Termination.STALLED
    else:
        termination = Termination.MAX_ITERATIONS
    release_tables(game)
    return Solution(
        p_star=p_best,
        theta=tuple(theta_full),
        sequences=tuple(sequences),
        L=final.lower,
        U=upper,
        iterations=final.iteration,
        trace=tuple(trace),
        termination=termination,
    )


def _completion_times(game: SearchGame, sigma: tuple[int, ...]) -> np.ndarray:
    """P_sigma(i): the time at which box i's search ends when every box is
    searched once, in the order sigma."""
    times = [0.0] * game.n
    for i, end in zip(sigma, itertools.accumulate(game.t[i] for i in sigma)):
        times[i] = end
    return np.array(times)


def _smith_order(game: SearchGame, weights: np.ndarray) -> tuple[int, ...]:
    """The ordering minimizing sum_i w_i P_sigma(i) (Smith's rule): boxes
    by t_i / w_i ascending, ties to the lower box, w_i = 0 last."""
    return tuple(sorted(
        range(game.n),
        key=lambda i: (game.t[i] / weights[i] if weights[i] > 0 else math.inf, i),
    ))


def test_p0_optimality(game: SearchGame) -> P0TestResult:
    """Decide exactly whether p0 is an optimal hiding strategy.

    p0 is optimal in the full game iff it is optimal in the finite game
    spanned by the sigma-deterministic Gittins counters to p0, i.e. iff
    that game's value v_D matches u(p0) to relative 1e-9. When optimal,
    the finite game's searcher mixture is optimal in the full game.

    Against p0 all starting indices tie, so every such counter searches
    each box once, in the order sigma, and then faces the same indices.
    Unless the tie ordering matters again later, all of them share one
    tail, and u(i, sigma) = alpha_i P_sigma(i) + D_i with D independent of
    sigma. The columns come from _p0_columns, as the solve's seed does,
    and one loop solves the finite game over them. With the shared-tail
    model it is column generation: the n rotations to start, then at each
    LP optimum p the ordering that minimizes p.u(., sigma), which is
    Smith's rule for weights p_i alpha_i, until no ordering pays less than
    the LP value; u(p0) is the identity counter's bracket. On cyclic
    games, and where the identity-ordered counter meets a tie after its
    first n searches, there is no model: the loop runs one LP over all n!
    counters, each column from its own counter, and u(p0) is the bracket
    of the counter that pays least against p0.
    """
    orderings = initial_orderings(game.n)
    sequences, mat, _, column_of = _p0_columns(game, orderings,
                                               exhaustive=True)
    start = p0(game)
    alpha = np.asarray(game.alpha)
    lp = first_lp = None
    while True:
        u = mat[:, :len(orderings)]
        lp = solve_hider_lp(u, warm=lp)
        if column_of is None:
            break
        if first_lp is None:
            first_lp = lp
        p = lp.p.as_array()
        ordering = TieOrdering(_smith_order(game, p * alpha))
        if ordering in orderings:
            break
        column = column_of(ordering.sigma)
        if p @ column >= lp.v * (1.0 - _PRICE_REL_TOL):
            break
        mat = _store_column(mat, len(orderings), column)
        orderings.append(ordering)
    # every counter pays u(p0) against p0: the identity's bracket when the
    # other columns are shifted from it, else the cheapest column's
    best = 0 if column_of is not None else int(np.argmin(start.as_array() @ u))
    u_p0 = expected_payoff(game, start, sequences[best])
    sequences += _p0_counters(game, orderings[len(sequences):])
    release_tables(game)
    theta = recover_searcher_mixture(u, lp)
    return P0TestResult(
        optimal=abs(u_p0.midpoint - lp.v) / lp.v < P0_OPT_REL_THRESHOLD,
        v_D=lp.v,
        u_p0=u_p0,
        theta=tuple(theta.tolist()),
        sequences=tuple(sequences),
        sequences_used=len(sequences),
        _first_lp=first_lp,
    )


TRACE_CSV_VERSION = "boxsearch-trace-v2"


def write_trace(solution: Solution, path) -> None:
    """Line-per-iteration CSV after a version line:
    iter,U,L,gap,added_seq,mispriced."""
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_CSV_VERSION}\n")
        fh.write("iter,U,L,gap,added_seq,mispriced\n")
        for rec in solution.trace:
            added = "" if rec.added_sequence is None else rec.added_sequence
            fh.write(
                f"{rec.iteration},{rec.upper!r},{rec.lower!r},"
                f"{rec.gap!r},{added},{rec.mispriced}\n"
            )
