"""Dense simplex solver for the hider LP, a plain matrix game.

The iteration's subproblem is: maximize v subject to
v <= sum_i p_i u[i][k] for every stored column k and p on the simplex,
i.e. the hider's side of the matrix game u with rows as boxes and the
stored search sequences as columns. Since all entries are positive, the
game solves by one primal simplex pass on the column player's scaled form
(maximize 1'y subject to u y <= 1, y >= 0), the row strategy p falls out
of the dual prices, and a vertex solution mixes at most n columns.

The cutting-plane loop appends one column per iteration, and appending a
column keeps the previous optimal basis primal feasible. So a solve may
start from the basis of the previous solution (warm start): the tableau
is rebuilt from the original matrix as B^-1 [u | I | 1], a few pivots
restore optimality, and no tableau, hence no rounding drift, is carried
between calls. A cold start is the same pass from the slack basis B = I,
which is always feasible; a start basis that is singular or infeasible
falls back to it.

Instances are tiny (n+1 effective variables, tens to hundreds of
columns), so a hand-rolled tableau keeps the solve deterministic:
Dantzig's rule with lowest-index tie-breaks, and Bland's rule as the
fallback when the pivot budget is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DualInconsistent, Infeasible, NumericalFailure
from .model import HidingStrategy

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-11
# a start basis whose B^-1 1 has an entry below -_FEAS_TOL * max(1, max
# entry) is infeasible; entries above that are rounding and read as 0
_FEAS_TOL = 1e-9
DUAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    """Optimal hider strategy p, game value v, and the searcher's dual
    weights theta over columns.

    basis lists the optimal basic variables, column k < m of u as k and
    the slack of row j as m + j; passed back as a warm start it is
    renumbered for the appended columns. pivots counts the simplex pivots
    of the pass that found this vertex.
    """

    p: HidingStrategy
    v: float
    theta: np.ndarray
    basis: tuple[int, ...]
    pivots: int


class _Vertex(NamedTuple):
    w: np.ndarray
    theta: np.ndarray
    value: float
    basis: tuple[int, ...]
    pivots: int


def _start_tableau(A: np.ndarray, basis: Sequence[int]) -> np.ndarray | None:
    """The tableau of max 1'y s.t. Ay <= 1, y >= 0 at the given basis, or
    None when that basis is singular or primal infeasible."""
    n, m = A.shape
    width = m + n + 1
    T = np.zeros((n + 1, width))
    T[0, :m] = -1.0
    T[1:, :m] = A
    # the slack block's diagonal, T[1 + k, m + k] for k < n: one strided
    # run through the flat tableau, which ends past row n by itself
    T.reshape(-1)[width + m :: width + 1] = 1.0
    T[1:, -1] = 1.0
    cols = list(basis)
    if cols == list(range(m, m + n)):
        # B = I: the tableau is already at the slack basis, and feasible
        return T
    if len(set(cols)) != n or min(cols) < 0 or max(cols) >= m + n:
        return None
    try:
        T[1:] = np.linalg.solve(T[1:, cols], T[1:])
    except np.linalg.LinAlgError:
        return None
    T[0] -= T[0, cols] @ T[1:]
    rhs = T[1:, -1]
    if not np.isfinite(T).all() or rhs.min() < -_FEAS_TOL * max(1.0, rhs.max()):
        return None
    # basic columns exactly as the pivots keep them: unit vectors with
    # zero reduced cost, so no rounding noise reaches the dual prices
    T[1:, cols] = np.eye(n)
    T[0, cols] = 0.0
    np.maximum(rhs, 0.0, out=rhs)
    return T


def _simplex_game(A: np.ndarray, basis: Sequence[int], bland: bool) -> _Vertex:
    """Solve the positive matrix game A (rows maximize), starting from a
    basis of max 1'y s.t. Ay <= 1, y >= 0.

    The optimal row strategy w comes from the dual prices, the column
    strategy theta from the primal y, and the game value is 1 / 1'y.
    """
    n, m = A.shape
    T = _start_tableau(A, basis)
    if T is None:
        raise NumericalFailure("start basis is singular or infeasible")
    basis = list(basis)

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
        column = T[1:, col]
        tol = _PIVOT_TOL * max(1.0, column.max(), -column.min())
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            raise NumericalFailure("unbounded pivot in a positive game")
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12 * max(1.0, best)]
        if near.size == 1:
            leave = int(near[0])
        else:
            leave = int(min(near, key=lambda r: basis[r]))
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
    # the basic values, in the slots of their variables; the slacks' fall
    # past column m - 1 and are dropped
    y = np.zeros(m + n)
    y[basis] = rhs
    pi = np.maximum(T[0, m : m + n], 0.0)
    value = 1.0 / obj
    theta = np.maximum(y[:m], 0.0) * value
    total = float(pi.sum())
    if total <= 0.0:
        raise NumericalFailure("degenerate dual prices")
    w = pi / total
    return _Vertex(w, theta, value, tuple(basis), pivots)


def _solve_game(A: np.ndarray, start: Sequence[int] | None) -> _Vertex:
    """Solve from start by Dantzig's rule; if start is None or unusable, or
    that pass fails, solve cold from the slack basis by Dantzig's rule,
    then Bland's."""
    n, m = A.shape
    slack = range(m, m + n)
    passes = [(slack, False), (slack, True)]
    if start is not None:
        passes.insert(0, (start, False))
    for basis, bland in passes[:-1]:
        try:
            return _simplex_game(A, basis, bland)
        except NumericalFailure:
            pass
    return _simplex_game(A, *passes[-1])


def solve_hider_lp(u: np.ndarray, warm: LpSolution | None = None) -> LpSolution:
    """Maximize v s.t. v <= p.u[:,k] per column, p >= 0, sum p = 1.

    u[i][k] is the payoff of box i against stored column k; every entry
    must be finite and > 0. warm, a solution for the first columns of u,
    starts the simplex from its optimal basis; those columns were checked
    when it was solved, so only the columns after them are checked here.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
        raise Infeasible(f"payoff matrix shape {u.shape} unusable")
    m = 0 if warm is None else len(warm.theta)
    new = u[:, m:]
    if not ((new > 0.0) & (new < np.inf)).all():
        raise NumericalFailure("payoff entries must be finite and > 0")
    start = None
    if warm is not None:
        # the slacks follow the columns, so they move up by the new ones
        start = [k if k < m else k + u.shape[1] - m for k in warm.basis]
    w, theta, v, basis, pivots = _solve_game(u, start)
    p = HidingStrategy(tuple((w / w.sum()).tolist()))
    # prune dual noise and renormalize; a vertex already mixes <= n columns
    theta[theta <= 1e-12 * max(1.0, theta.max())] = 0.0
    theta /= theta.sum()
    return LpSolution(p=p, v=v, theta=theta, basis=basis, pivots=pivots)


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
