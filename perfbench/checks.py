"""Output checks on solver results, from public outputs only.

Every check holds for any correct certificate, whatever iteration count
or sequence set produced it, so later changes to the solver's internals
do not invalidate them. Each function returns a list of violations; an
empty list means the result passed.
"""

from __future__ import annotations

import math

from boxsearch import Termination, round_robin_payoff, value_bounds

# slack for comparing two independently rounded values of the same quantity
REL_SLACK = 1e-9


def check_mixture(theta, n: int, what: str) -> list[str]:
    """A searcher mixture is a distribution on at most n sequences."""
    problems = []
    if any(w < 0 for w in theta) or abs(math.fsum(theta) - 1.0) > REL_SLACK:
        problems.append(f"{what} is not a distribution (sum {math.fsum(theta)!r})")
    support = sum(1 for w in theta if w > 0)
    if support > n:
        problems.append(f"{what} mixes {support} sequences, more than n = {n}")
    return problems


def check_solution(game, sol, epsilon: float) -> list[str]:
    """[L, U] is a converged certificate consistent with the value bounds."""
    problems = []
    if sol.termination is not Termination.CONVERGED:
        problems.append(f"termination {sol.termination.value}, not converged")
    if not sol.L <= sol.U:
        problems.append(f"L = {sol.L!r} exceeds U = {sol.U!r}")
    elif not sol.U / sol.L - 1.0 < epsilon:
        problems.append(f"gap {sol.U / sol.L - 1.0!r} not below {epsilon!r}")
    lo, hi = value_bounds(game)
    if not (lo <= sol.L and sol.U <= hi):
        problems.append(
            f"[L, U] = [{sol.L!r}, {sol.U!r}] outside value bounds "
            f"[{lo!r}, {hi!r}]"
        )
    rr = max(round_robin_payoff(game, i) for i in range(game.n))
    if not sol.L <= rr:
        problems.append(f"L = {sol.L!r} exceeds the round-robin payoff {rr!r}")
    return problems + check_mixture(sol.theta, game.n, "theta")


def check_p0_test(game, res) -> list[str]:
    """u(p0) <= v* <= v_D, with v* inside the value bounds."""
    problems = []
    u = res.u_p0
    if not u.lower <= u.upper:
        problems.append(f"u(p0) bracket inverted: [{u.lower!r}, {u.upper!r}]")
    if not u.lower <= res.v_D * (1.0 + REL_SLACK):
        problems.append(f"u(p0) = {u.lower!r} exceeds v_D = {res.v_D!r}")
    lo, hi = value_bounds(game)
    if not (u.lower <= hi and lo <= res.v_D * (1.0 + REL_SLACK)):
        problems.append(
            f"u(p0) = {u.lower!r}, v_D = {res.v_D!r} inconsistent with value "
            f"bounds [{lo!r}, {hi!r}]"
        )
    rr = max(round_robin_payoff(game, i) for i in range(game.n))
    if not u.lower <= rr:
        problems.append(f"u(p0) = {u.lower!r} exceeds the round-robin payoff {rr!r}")
    return problems + check_mixture(res.theta, game.n, "p0-test theta")


def check_both(game, sol, res, epsilon: float) -> list[str]:
    """A solve and a p0 test of the same game bracket the same value."""
    problems = check_solution(game, sol, epsilon) + check_p0_test(game, res)
    if not res.u_p0.lower <= sol.U:
        problems.append(f"u(p0) = {res.u_p0.lower!r} exceeds U = {sol.U!r}")
    if not sol.L <= res.v_D * (1.0 + REL_SLACK):
        problems.append(f"L = {sol.L!r} exceeds v_D = {res.v_D!r}")
    return problems
