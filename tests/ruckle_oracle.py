"""The Ruckle study by exhaustive scan and by closed form, kept as test
oracles.

The library finds the peak of u(p_h) over the tie strategies p_h by a
bisection (study._ruckle_pstar). scan_sweep() is the sweep as it was
before: it evaluates u(p_h) for h = 1, 2, ... through the library's
counters until the first decrease, and then finds the tie search h by
simulating box 1's index until it meets box 2's (extract_tie_index).
closed_form_value() is u(p_h) from its formula, independent of counters
and payoff columns.
"""

import math

from boxsearch.errors import BoxSearchError
from boxsearch.model import p0
from boxsearch.solver import test_p0_optimality
from boxsearch.study import (
    RuckleRecord,
    _ruckle_game,
    _ruckle_max_h,
    _ruckle_tie_strategy,
    _ruckle_value,
)

# extract_tie_index locates the search h where p*'s two indices meet, to
# this relative tolerance, since p* itself comes from a float formula
_H_REL_TOL = 1e-6


def closed_form_value(alpha: float, h: int) -> float:
    """u(p_h) = (1/alpha + x (1 + alpha h)) / (1 + alpha x), with
    x = (1-alpha)^(h-1)."""
    x = (1.0 - alpha) ** (h - 1)
    return (1.0 / alpha + x * (1.0 + alpha * h)) / (1.0 + alpha * x)


def scan_pstar(alpha: float) -> tuple[float, int]:
    """p*_1 and its h from scanning h = 1, 2, ... until u(p_h) falls
    below the best value so far by relative 1e-13."""
    game = _ruckle_game(alpha)
    best_h, best_value = 1, -math.inf
    for h in range(1, _ruckle_max_h(alpha) + 1):
        value = _ruckle_value(game, _ruckle_tie_strategy(alpha, h))
        if value < best_value * (1.0 - 1e-13):
            return _ruckle_tie_strategy(alpha, best_h).p[0], best_h
        if value > best_value:
            best_h, best_value = h, value
    raise BoxSearchError(
        f"u(p_h) not past its peak by h = {h} at alpha={alpha}"
    )


def extract_tie_index(alpha: float, p_star_1: float) -> int:
    """First search at which the counter's two indices agree within
    relative 1e-6, simulating the counter that searches box 1 until the
    tie; no later than _ruckle_max_h(alpha)."""
    i2 = 1.0 - p_star_1
    idx = p_star_1 * alpha
    for r in range(1, _ruckle_max_h(alpha) + 1):
        if abs(idx - i2) <= _H_REL_TOL * max(idx, i2):
            return r
        idx *= 1.0 - alpha
    raise BoxSearchError(f"no index tie within {r} searches at alpha={alpha}")


def scan_sweep(alphas) -> list[RuckleRecord]:
    """ruckle_sweep by scan: p* from scan_pstar where p0 is suboptimal,
    and h from extract_tie_index in either case."""
    records = []
    for alpha in alphas:
        game = _ruckle_game(alpha)
        p0_1 = p0(game).p[0]
        if test_p0_optimality(game).optimal:
            p_star_1 = p0_1
        else:
            p_star_1, _ = scan_pstar(alpha)
        h = extract_tie_index(alpha, p_star_1)
        records.append(
            RuckleRecord(alpha=alpha, p0_1=p0_1, p_star_1=p_star_1, h=h)
        )
    return records
