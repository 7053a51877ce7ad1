"""Dense simplex solver for the hider LP, a plain matrix game.

The iteration's subproblem is: maximize v subject to
v <= sum_i p_i u[i][k] for every stored column k and p on the simplex,
i.e. the hider's side of the matrix game u with rows as boxes and the
stored search sequences as columns. Since all entries are positive, the
game solves by one primal simplex pass on the column player's scaled form
(maximize 1'y subject to u y <= 1, y >= 0): the slack basis is
immediately feasible, the row strategy p falls out of the dual prices,
and a vertex solution mixes at most n columns.

Instances are tiny (n+1 effective variables, tens to hundreds of
columns), so a hand-rolled tableau keeps the solve deterministic:
Dantzig's rule with lowest-index tie-breaks, and Bland's rule as the
fallback when the pivot budget is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DualInconsistent, Infeasible, NumericalFailure
from .model import HidingStrategy

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-11
DUAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    """Optimal hider strategy p, game value v, and the searcher's dual
    weights theta over columns."""

    p: HidingStrategy
    v: float
    theta: np.ndarray


def _simplex_game(A: np.ndarray, bland: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the positive matrix game A (rows maximize).

    Returns (w, theta, value): optimal row strategy, column strategy, and
    game value, from one tableau solve of max 1'y s.t. Ay <= 1, y >= 0.
    """
    n, m = A.shape
    T = np.zeros((n + 1, m + n + 1))
    T[0, :m] = -1.0
    T[1:, :m] = A
    T[1:, m : m + n] = np.eye(n)
    T[1:, -1] = 1.0
    basis = list(range(m, m + n))

    max_pivots = 200 + 60 * (m + n)
    for _ in range(max_pivots):
        row0 = T[0, : m + n]
        if bland:
            candidates = np.nonzero(row0 < -_ENTER_TOL)[0]
            if candidates.size == 0:
                break
            col = int(candidates[0])
        else:
            col = int(np.argmin(row0))
            if row0[col] >= -_ENTER_TOL:
                break
        column = T[1:, col]
        tol = _PIVOT_TOL * max(1.0, float(np.abs(column).max()))
        rows = np.nonzero(column > tol)[0]
        if rows.size == 0:
            raise NumericalFailure("unbounded pivot in a positive game")
        ratios = T[1 + rows, -1] / column[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12 * max(1.0, best)]
        leave = int(min(near, key=lambda r: basis[r]))
        piv = T[1 + leave, col]
        T[1 + leave] /= piv
        pivot_row = T[1 + leave]
        factors = T[:, col].copy()
        factors[1 + leave] = 0.0
        T -= np.outer(factors, pivot_row)
        basis[leave] = col
    else:
        raise NumericalFailure(
            f"simplex exceeded {max_pivots} pivots (bland={bland})"
        )

    obj = float(T[0, -1])
    if obj <= 0.0:
        raise NumericalFailure("nonpositive game objective")
    y = np.zeros(m)
    for r, var in enumerate(basis):
        if var < m:
            y[var] = T[1 + r, -1]
    pi = np.clip(T[0, m : m + n], 0.0, None)
    value = 1.0 / obj
    theta = np.clip(y, 0.0, None) * value
    total = float(pi.sum())
    if total <= 0.0:
        raise NumericalFailure("degenerate dual prices")
    w = pi / total
    return w, theta, value


def _solve_game(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    try:
        return _simplex_game(A, bland=False)
    except NumericalFailure:
        return _simplex_game(A, bland=True)


def solve_hider_lp(u: np.ndarray) -> LpSolution:
    """Maximize v s.t. v <= p.u[:,k] per column, p >= 0, sum p = 1.

    u[i][k] is the payoff of box i against stored column k; every entry
    must be finite and > 0.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
        raise Infeasible(f"payoff matrix shape {u.shape} unusable")
    if not np.all(np.isfinite(u)) or not np.all(u > 0):
        raise NumericalFailure("payoff entries must be finite and > 0")
    w, theta, v = _solve_game(u)
    p = HidingStrategy(tuple((w / w.sum()).tolist()))
    # prune dual noise and renormalize; a vertex already mixes <= n columns
    theta = np.where(theta > 1e-12 * max(1.0, theta.max()), theta, 0.0)
    theta = theta / theta.sum()
    return LpSolution(p=p, v=v, theta=theta)


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
