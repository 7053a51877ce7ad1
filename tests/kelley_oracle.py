"""Kelley's floored cutting-plane loop, kept as a test oracle.

This is the solve loop boxsearch used before the smoothed one: each
iteration solves the hider LP over the stored columns with the floors
p_i >= delta_i of hider_floor, queries the exact Gittins best response at
the LP optimum p_k itself, and stops once U_k/L_k - 1 < epsilon with no
floor binding. Its iteration counts are the scale the source paper
reports, and its brackets are an independent check on the smoothed
solve's.
"""

from typing import NamedTuple

import numpy as np

from boxsearch import HidingStrategy
from boxsearch.gittins import gittins_sequence, initial_orderings
from boxsearch.lp import _solve_game
from boxsearch.payoff import expected_payoff
from boxsearch.solver import _column_values, _p0_counters
from floors import hider_floor


class FlooredLp(NamedTuple):
    p: HidingStrategy
    v: float
    binding: bool


def floored_lp(u: np.ndarray, delta: np.ndarray) -> FlooredLp:
    """Maximize v s.t. v <= p.u[:,k] per column, p >= delta, sum p = 1.

    Substituting p = delta + s*w with s = 1 - sum(delta) and w on the
    simplex turns this into the matrix game with column-shifted payoffs
    s*u[i][k] + delta.u[:,k], whose value is the LP optimum. binding
    reports whether any floor is active: s*w_i <= 1e-9 * delta_i.
    """
    s = 1.0 - float(delta.sum())
    # a cold solve: the oracle carries no tableau between its LPs
    vertex = _solve_game(s * u + delta @ u, warm=None)
    p = delta + s * np.asarray(vertex.w)
    p = p / p.sum()
    binding = any(s * wi <= 1e-9 * di for wi, di in zip(vertex.w, delta))
    return FlooredLp(HidingStrategy(tuple(p.tolist())), vertex.value, binding)


class KelleyResult(NamedTuple):
    L: float
    U: float
    iterations: int
    converged: bool


def kelley_solve(game, epsilon: float, max_iterations: int = 10000) -> KelleyResult:
    """Run the floored Kelley loop; U is the LP value plus the worst
    bracket half-width, L the lower payoff bracket at the last p_k."""
    delta = np.asarray(hider_floor(game).delta)
    columns, worst_half = [], 0.0
    for seq in _p0_counters(game, initial_orderings(game.n)):
        values, half = _column_values(game, seq)
        columns.append(values)
        worst_half = max(worst_half, half)
    stored = {values.tobytes() for values in columns}
    for k in range(1, max_iterations + 1):
        lp = floored_lp(np.column_stack(columns), delta)
        upper = lp.v + worst_half
        response = gittins_sequence(game, lp.p)
        lower = expected_payoff(game, lp.p, response).lower
        if upper / lower - 1.0 < epsilon and not lp.binding:
            return KelleyResult(lower, upper, k, True)
        values, half = _column_values(game, response)
        if values.tobytes() in stored:
            break
        stored.add(values.tobytes())
        columns.append(values)
        worst_half = max(worst_half, half)
    return KelleyResult(lower, upper, k, False)
