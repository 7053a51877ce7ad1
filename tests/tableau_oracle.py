"""The dense tableau simplex as boxsearch ran it before its call was
trimmed, kept as a test oracle.

Every pivot, ratio test and dual-price extraction here is the original
one, written for clarity: y is read row by row, the leaving row is always
picked with min(key=...), and every temporary is built afresh. From the
slack basis, the solver's _simplex_game must return the very same vertex
(w, value, basis, pivots and tableau) on every LP, and lp._vertex_theta
the same theta from it.

The oracle also keeps the warm start boxsearch used to make: rebuild the
tableau from the original matrix as B^-1 [A | I | 1] at the renumbered
previous basis, refusing a singular or infeasible one. The solver now
extends the previous optimal tableau instead, which must reach the same
basis in the same pivots, with values equal up to rounding. From that
extended tableau itself, pivot_tableau must return the solver's vertex
bit for bit.
"""

from typing import NamedTuple, Sequence

import numpy as np

from boxsearch.errors import NumericalFailure
from boxsearch.lp import _ENTER_TOL, _PIVOT_TOL


class Vertex(NamedTuple):
    """The solver's vertex, with the column strategy theta that the
    solver derives apart (lp._vertex_theta)."""

    w: np.ndarray
    theta: np.ndarray
    value: float
    basis: tuple[int, ...]
    pivots: int
    tableau: np.ndarray

# a start basis whose B^-1 1 has an entry below -_FEAS_TOL * max(1, max
# entry) is infeasible; entries above that are rounding and read as 0
_FEAS_TOL = 1e-9


def start_tableau(A: np.ndarray, basis: Sequence[int]) -> np.ndarray | None:
    """The tableau of max 1'y s.t. Ay <= 1, y >= 0 at the given basis, or
    None when that basis is singular or primal infeasible."""
    n, m = A.shape
    T = np.zeros((n + 1, m + n + 1))
    T[0, :m] = -1.0
    T[1:, :m] = A
    T[1:, m : m + n] = np.eye(n)
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
    if not np.all(np.isfinite(T)) or rhs.min() < -_FEAS_TOL * max(1.0, rhs.max()):
        return None
    # basic columns exactly as the pivots keep them: unit vectors with
    # zero reduced cost, so no rounding noise reaches the dual prices
    T[1:, cols] = np.eye(n)
    T[0, cols] = 0.0
    np.maximum(rhs, 0.0, out=rhs)
    return T


def simplex_game(A: np.ndarray, basis: Sequence[int], bland: bool) -> Vertex:
    """Solve the positive matrix game A (rows maximize), starting from a
    basis of max 1'y s.t. Ay <= 1, y >= 0.

    The optimal row strategy w comes from the dual prices, the column
    strategy theta from the primal y, and the game value is 1 / 1'y.
    """
    T = start_tableau(A, basis)
    if T is None:
        raise NumericalFailure("start basis is singular or infeasible")
    return pivot_tableau(T, basis, bland)


def pivot_tableau(T: np.ndarray, basis: Sequence[int], bland: bool) -> Vertex:
    """Pivot T, a primal feasible tableau of max 1'y s.t. Ay <= 1, y >= 0
    at basis, to optimality in place, and read off its vertex."""
    n = T.shape[0] - 1
    m = T.shape[1] - n - 1
    basis = list(basis)

    max_pivots = 200 + 60 * (m + n)
    for pivots in range(max_pivots):
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
    return Vertex(w, theta, value, tuple(basis), pivots, T)
