"""Payoffs box by box, kept as a test oracle.

The library evaluates a whole payoff column at once (payoff_column). This
is the per-box view the tests compare against it: payoff() reads box i
of the column as a PayoffBracket, or INFINITE_PAYOFF for a box the
sequence never searches, and mixed_payoff() sums a searcher mixture's
brackets for one box, box by box, with fsum on each side.
payoff_truncated() is the per-box reference for the column's array pass:
box i's series bracket at any depth R, from its own visit times.
"""

import math

import numpy as np

from boxsearch.errors import BoxNeverSearched
from boxsearch.payoff import (
    PayoffBracket,
    check_mixture_weights,
    payoff_column,
    tail_params,
)


class _InfinitePayoff:
    """Sentinel for u(i, xi) = +inf (box i never searched under xi)."""

    def __repr__(self) -> str:
        return "INFINITE_PAYOFF"


INFINITE_PAYOFF = _InfinitePayoff()


def payoff(game, i, xi):
    """Bracket u(i, xi), extending xi on demand: box i of payoff_column(),
    or INFINITE_PAYOFF when xi provably never searches box i."""
    column = payoff_column(game, xi)
    lower = float(column.lower[i])
    if lower == math.inf:
        return INFINITE_PAYOFF
    return PayoffBracket(lower, float(column.upper[i]),
                         column.searches_used[i])


def mixed_payoff(game, i, theta):
    """u(i, theta) for a hider in box i against a searcher mixture theta,
    a list of (weight, sequence); weights must be nonnegative and sum to
    1. Each side is summed with fsum."""
    check_mixture_weights([w for w, _ in theta])
    lower, upper = [], []
    used = 0
    for w, xi in theta:
        if w == 0.0:
            continue
        br = payoff(game, i, xi)
        if br is INFINITE_PAYOFF:
            raise BoxNeverSearched(
                f"box {i} never searched by a mixed-in sequence"
            )
        lower.append(w * br.lower)
        upper.append(w * br.upper)
        used = max(used, br.searches_used)
    return PayoffBracket(math.fsum(lower), math.fsum(upper), used)


def payoff_truncated(game, i, xi, R):
    """(lower, upper) bracket of u(i, xi) from the first R series terms.

    Needs R+1 realized visits of box i; extends xi on demand and raises
    InsufficientPrefix when the sequence cannot reach that many visits.
    """
    a = game.alpha[i]
    xi.ensure_visits(i, R + 1)
    tau = xi.visit_times(i)[: R + 1]
    lower = float(tau[0])
    tail_factor = 1.0 - a
    if R > 0:
        q_pows = np.cumprod(np.full(R, 1.0 - a))
        lower += float(q_pows @ (tau[1:] - tau[:-1]))
        tail_factor = float(q_pows[-1]) * (1.0 - a)
    return lower, lower + tail_params(game).l_hat * tail_factor / a
