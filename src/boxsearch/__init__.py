"""Solver for the two-person zero-sum hide-and-search game with overlooks.

A hider picks one of n boxes; searching box i takes t_i time and detects
a hider there with probability alpha_i. The package evaluates search
sequences exactly, computes certified brackets on the game value, and
produces epsilon-optimal mixed strategies for both players.
"""

from .errors import BoxSearchError
from .gittins import (
    SearchSequence,
    TieOrdering,
    all_orderings,
    gittins_sequence,
    initial_orderings,
)
from .model import (
    CyclicStructure,
    HidingStrategy,
    SampleScheme,
    SCHEMES,
    SearchGame,
    future_benefit,
    load_game,
    make_cyclic_game,
    p0,
    sample_game,
    validate_game,
    value_bounds,
)
from .payoff import (
    PayoffBracket,
    TailBoundParams,
    expected_payoff,
    payoff_column,
    round_robin_payoff,
    tail_params,
)
from .lp import LpSolution, recover_searcher_mixture, solve_hider_lp
from .solver import (
    P0TestResult,
    SolveConfig,
    Solution,
    Termination,
    solve,
    test_p0_optimality,
)
from .study import (
    BatchRecord,
    RuckleRecord,
    ruckle_sweep,
    run_batch,
    summarize,
    two_box_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
