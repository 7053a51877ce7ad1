"""Dense simplex solver for the hider LP, a plain matrix game.

The iteration's subproblem is: maximize v subject to
v <= sum_i p_i u[i][k] for every stored column k and p on the simplex,
i.e. the hider's side of the matrix game u with rows as boxes and the
stored search sequences as columns. Since all entries are positive, the
game solves by one primal simplex pass on the column player's scaled form
(maximize 1'y subject to u y <= 1, y >= 0), the row strategy p falls out
of the dual prices, and a vertex solution mixes at most n columns.

The cutting-plane loop appends columns between calls, as in column
generation, and appending a column keeps the previous optimal basis
primal feasible. So each solution carries its final tableau, and a warm
solve extends it instead of refactoring the basis: the slack block of an
optimal tableau holds B^-1 in its body and the dual prices pi in its
objective row, so a new column a enters as B^-1 a with reduced cost
pi.a - 1, and a few pivots restore optimality. Nothing is solved against
the basis and no feasibility check is needed. The tableau's rounding is
carried from call to call; the searcher-mixture check against the real
u (recover_searcher_mixture) bounds what it can do to a solve's result.
A cold solve starts from the slack basis B = I, which is always feasible,
and a warm pass that fails falls back to it.

Only the last LP of a solve has its searcher mixture read, so a
solution derives theta from its tableau, basis and value the first time
theta is read, and keeps it. A solution's tableau is never pivoted in
place once returned: a warm start works on an extended copy.

Instances are tiny (n+1 effective variables, tens to hundreds of
columns), so a hand-rolled tableau keeps the solve deterministic:
Dantzig's rule with lowest-index tie-breaks, and Bland's rule as the
fallback when the pivot budget is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DualInconsistent, Infeasible, NumericalFailure
from .model import HidingStrategy

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-11
DUAL_REL_TOL = 1e-9


class _DerivedTheta:
    """LpSolution.theta: kept as given, or, left at its default, derived
    by _searcher_mixture on first read and kept from then on."""

    def __get__(self, solution, owner=None):
        if solution is None:
            # the dataclass default, which reads as "derive on read"
            return self
        theta = solution.__dict__["theta"]
        if theta is None:
            theta = solution.__dict__["theta"] = _searcher_mixture(solution)
        return theta

    def __set__(self, solution, theta):
        solution.__dict__["theta"] = None if theta is self else theta


@dataclass(frozen=True)
class LpSolution:
    """Optimal hider strategy p, game value v, and the searcher's dual
    weights theta over columns.

    basis lists the optimal basic variables, column k < m of u as k and
    the slack of row j as m + j; passed back as a warm start it is
    renumbered for the appended columns. pivots counts the simplex pivots
    of the pass that found this vertex. _tableau is the optimal tableau,
    which a warm start extends by the appended columns. theta, unless
    given, is derived from the tableau's basic values the first time it
    is read: small weights are pruned as dual noise and the rest
    renormalized.
    """

    p: HidingStrategy
    v: float
    theta: np.ndarray = field(default=_DerivedTheta(), kw_only=True)
    basis: tuple[int, ...]
    pivots: int
    _tableau: np.ndarray = field(compare=False, repr=False)

    @property
    def columns(self) -> int:
        """The number of payoff columns this LP was solved over."""
        rows, width = self._tableau.shape
        return width - rows


class _Vertex(NamedTuple):
    w: list[float]
    value: float
    basis: tuple[int, ...]
    pivots: int
    tableau: np.ndarray


def _vertex_theta(T: np.ndarray, basis, value: float) -> np.ndarray:
    """The column strategy at the vertex of tableau T: y_k times the game
    value for each basic column k, 0 elsewhere (and for nonpositive y)."""
    n = T.shape[0] - 1
    m = T.shape[1] - n - 1
    theta = np.zeros(m)
    for k, y in zip(basis, T[1:, -1].tolist()):
        if k < m and y > 0.0:
            theta[k] = y * value
    return theta


def _searcher_mixture(solution: LpSolution) -> np.ndarray:
    """The vertex's column strategy with dual noise pruned and the rest
    renormalized; a vertex already mixes <= n columns."""
    theta = _vertex_theta(solution._tableau, solution.basis, solution.v)
    theta[theta <= 1e-12 * max(1.0, theta.max())] = 0.0
    theta /= theta.sum()
    return theta


def _numpy_sum(values: list[float]) -> float:
    """The float64 sum of values in NumPy's order: one running sum below
    8 terms; up to 128, eight interleaved running sums added pairwise,
    then the rest in turn, with no array built; past 128, NumPy's own."""
    n = len(values)
    if n > 128:
        return float(np.sum(values))
    if n < 8:
        # a loop, not sum(), which compensates its rounding from Python 3.12
        total = 0.0
        for x in values:
            total += x
        return total
    whole = n - n % 8
    lanes = values[:8]
    for start in range(8, whole, 8):
        lanes = [a + b for a, b in zip(lanes, values[start:start + 8])]
    r0, r1, r2, r3, r4, r5, r6, r7 = lanes
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in values[whole:]:
        total += x
    return total


def _start_tableau(A: np.ndarray) -> np.ndarray:
    """The tableau of max 1'y s.t. Ay <= 1, y >= 0 at the slack basis."""
    n, m = A.shape
    width = m + n + 1
    T = np.zeros((n + 1, width))
    T[0, :m] = -1.0
    T[1:, :m] = A
    # the slack block's diagonal, T[1 + k, m + k] for k < n: one strided
    # run through the flat tableau, which ends past row n by itself
    T.reshape(-1)[width + m :: width + 1] = 1.0
    T[1:, -1] = 1.0
    return T


def _appended_tableau(T: np.ndarray, new: np.ndarray) -> np.ndarray:
    """A copy of the optimal tableau T with the columns new inserted
    before its slack block.

    The slack block holds B^-1 below the dual prices pi, so one product
    gives each new column's body B^-1 a and, in row 0, pi.a, less 1 for
    its reduced cost. The basis and its values are unchanged, so the
    copy is still primal feasible.
    """
    n = T.shape[0] - 1
    m = T.shape[1] - n - 1
    block = T[:, m : m + n] @ new
    block[0] -= 1.0
    return np.concatenate((T[:, :m], block, T[:, m:]), axis=1)


def _simplex_game(T: np.ndarray, basis: list[int], bland: bool) -> _Vertex:
    """Solve a positive matrix game A (rows maximize) from T, a primal
    feasible tableau of max 1'y s.t. Ay <= 1, y >= 0 at basis; T and
    basis are pivoted in place.

    The optimal row strategy w comes from the dual prices and the game
    value is 1 / 1'y; the column strategy, from the primal y, is left to
    _vertex_theta.
    """
    n = T.shape[0] - 1
    m = T.shape[1] - n - 1
    row0 = T[0, : m + n]
    rhs = T[1:, -1]
    max_pivots = 200 + 60 * (m + n)
    for pivots in range(max_pivots):
        if bland:
            candidates = (row0 < -_ENTER_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            col = int(candidates[0])
        else:
            col = int(row0.argmin())
            if row0[col] >= -_ENTER_TOL:
                break
        # the ratio test runs over at most n rows, in Python floats; among
        # the near-ties, the row with the lowest basic index leaves
        column = T[1:, col].tolist()
        tol = _PIVOT_TOL * max(1.0, max(column), -min(column))
        ratios = [(b / a, r)
                  for r, (a, b) in enumerate(zip(column, rhs.tolist()))
                  if a > tol]
        if not ratios:
            raise NumericalFailure("unbounded pivot in a positive game")
        best = min(ratios)[0]
        cut = best + 1e-12 * max(1.0, best)
        leave = min((r for ratio, r in ratios if ratio <= cut),
                    key=basis.__getitem__)
        T[1 + leave] /= T[1 + leave, col]
        pivot_row = T[1 + leave]
        factors = T[:, col].copy()
        factors[1 + leave] = 0.0
        T -= factors[:, None] * pivot_row
        basis[leave] = col
    else:
        raise NumericalFailure(
            f"simplex exceeded {max_pivots} pivots (bland={bland})"
        )

    obj = float(T[0, -1])
    if obj <= 0.0:
        raise NumericalFailure("nonpositive game objective")
    # the dual prices clipped at 0 as np.maximum does: NaN stays, -0.0
    # reads 0.0
    pi = [0.0 if x <= 0.0 else x for x in T[0, m : m + n].tolist()]
    total = _numpy_sum(pi)
    if total <= 0.0:
        raise NumericalFailure("degenerate dual prices")
    w = [x / total for x in pi]
    return _Vertex(w, 1.0 / obj, tuple(basis), pivots, T)


def _solve_game(A: np.ndarray, warm: LpSolution | None) -> _Vertex:
    """Solve from warm's tableau extended by A's new columns, by Dantzig's
    rule; if warm is None or that pass fails, solve cold from the slack
    basis by Dantzig's rule, then Bland's."""
    n, m = A.shape
    if warm is not None:
        old = warm.columns
        # the slacks follow the columns, so they move up by the new ones
        basis = [k if k < old else k + m - old for k in warm.basis]
        try:
            return _simplex_game(
                _appended_tableau(warm._tableau, A[:, old:]), basis, False
            )
        except NumericalFailure:
            pass
    slack = range(m, m + n)
    try:
        return _simplex_game(_start_tableau(A), list(slack), False)
    except NumericalFailure:
        return _simplex_game(_start_tableau(A), list(slack), True)


def solve_hider_lp(u: np.ndarray, warm: LpSolution | None = None) -> LpSolution:
    """Maximize v s.t. v <= p.u[:,k] per column, p >= 0, sum p = 1.

    u[i][k] is the payoff of box i against stored column k; every entry
    must be finite and > 0. warm, a solution for the first columns of u,
    starts the simplex from its optimal tableau; those columns are
    neither checked nor read again, so a warm start for a game with other
    rows or more columns is refused.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
        raise Infeasible(f"payoff matrix shape {u.shape} unusable")
    n, m = u.shape
    old = 0
    if warm is not None:
        old = warm.columns
        rows = warm._tableau.shape[0] - 1
        if rows != n or old > m:
            raise ValueError(
                f"warm start solved a {rows} x {old} game, which does not "
                f"begin the {n} x {m} payoff matrix"
            )
    # NaN fails both comparisons
    if not all(0.0 < a < math.inf for a in u[:, old:].ravel().tolist()):
        raise NumericalFailure("payoff entries must be finite and > 0")
    w, v, basis, pivots, tableau = _solve_game(u, warm)
    total = _numpy_sum(w)
    p = HidingStrategy(tuple([x / total for x in w]))
    return LpSolution(p=p, v=v, basis=basis, pivots=pivots, _tableau=tableau)


def recover_searcher_mixture(u: np.ndarray,
                             solution: LpSolution) -> np.ndarray:
    """Validate and return the searcher's optimal column weights.

    Checks complementary slackness (supported columns pay exactly v
    against p), support size at most n, and the searcher's guarantee
    max_i (u theta)_i <= v + tol.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    theta = solution.theta
    v = solution.v
    scale = DUAL_REL_TOL * max(1.0, abs(v))
    if np.any(theta < 0) or abs(float(theta.sum()) - 1.0) > 1e-9:
        raise DualInconsistent("theta must be a distribution over columns")
    if int(np.count_nonzero(theta)) > n:
        raise DualInconsistent(
            f"support {np.count_nonzero(theta)} exceeds box count {n}"
        )
    p = np.asarray(solution.p.p)
    col_values = p @ u
    support = np.nonzero(theta)[0]
    if np.any(np.abs(col_values[support] - v) > scale):
        raise DualInconsistent("a supported column does not pay v against p")
    if float((u @ theta).max()) > v + scale:
        raise DualInconsistent("mixture exceeds v against some box")
    return theta
