"""The p0 optimality test over all n! counters, kept as a test oracle.

The library's test solves the finite game of the sigma-deterministic
counters to p0 by column generation, with every column but the identity
counter's shifted from it. This oracle builds every one of the n!
counters, evaluates each column from its own counter, solves one cold
LP over them, and takes u(p0) from the counter that pays least against
p0. Refuses n above ORDERING_CAP, as all_orderings does.
"""

import numpy as np

from boxsearch.gittins import all_orderings
from boxsearch.lp import recover_searcher_mixture, solve_hider_lp
from boxsearch.model import p0
from boxsearch.payoff import expected_payoff, release_tables
from boxsearch.solver import (
    P0_OPT_REL_THRESHOLD,
    P0TestResult,
    _column_values,
    _p0_counters,
)


def p0_test_exhaustive(game) -> P0TestResult:
    sequences = _p0_counters(game, all_orderings(game.n))
    u = np.column_stack(
        [_column_values(game, seq)[0] for seq in sequences]
    )
    lp = solve_hider_lp(u)
    start = p0(game)
    best_col = int(np.argmin(start.as_array() @ u))
    u_p0 = expected_payoff(game, start, sequences[best_col])
    release_tables(game)
    theta = recover_searcher_mixture(u, lp)
    return P0TestResult(
        optimal=abs(u_p0.midpoint - lp.v) / lp.v < P0_OPT_REL_THRESHOLD,
        v_D=lp.v,
        u_p0=u_p0,
        theta=tuple(theta.tolist()),
        sequences=tuple(sequences),
        sequences_used=len(sequences),
    )
