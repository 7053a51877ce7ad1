"""Property-based checks over randomized games, strategies, and matrices."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from boxsearch import (
    HidingStrategy,
    SearchGame,
    gittins_sequence,
    make_cyclic_game,
    p0,
    solve_hider_lp,
    validate_game,
)
from boxsearch.lp import recover_searcher_mixture
from gittins_oracle import replay_check
from payoff_oracle import payoff_truncated


@st.composite
def games(draw, min_boxes=1, max_boxes=5):
    n = draw(st.integers(min_boxes, max_boxes))
    t = draw(st.lists(
        st.floats(0.5, 8.0, allow_nan=False), min_size=n, max_size=n
    ))
    alpha = draw(st.lists(
        st.floats(0.05, 0.95, allow_nan=False), min_size=n, max_size=n
    ))
    return SearchGame(t=tuple(t), alpha=tuple(alpha))


@st.composite
def strategies_for(draw, n):
    raw = draw(st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n
    ))
    total = math.fsum(raw)
    p = [v / total for v in raw]
    p[-1] = 1.0 - math.fsum(p[:-1])
    return HidingStrategy(tuple(p))


@st.composite
def games_with_strategies(draw):
    game = draw(games(min_boxes=2))
    return game, draw(strategies_for(game.n))


@st.composite
def positive_matrices(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 10))
    rows = draw(st.lists(
        st.lists(st.floats(0.5, 60.0, allow_nan=False),
                 min_size=m, max_size=m),
        min_size=n, max_size=n,
    ))
    return np.asarray(rows)


@given(games())
@settings(max_examples=60, deadline=None)
def test_p0_equalizes_starting_indices(game):
    strat = p0(game)
    assert abs(math.fsum(strat.p) - 1.0) <= 1e-12
    idx = [pi * ai / ti for pi, ai, ti in zip(strat.p, game.alpha, game.t)]
    assert max(idx) - min(idx) <= 1e-12 * max(idx)


@given(games_with_strategies())
@settings(max_examples=40, deadline=None)
def test_generated_sequences_replay(pair):
    game, p = pair
    seq = gittins_sequence(game, p)
    assert replay_check(game, p, seq, length=60)


@given(games_with_strategies(), st.integers(0, 25))
@settings(max_examples=40, deadline=None)
def test_bracket_tightens_with_depth(pair, depth):
    game, p = pair
    seq = gittins_sequence(game, p)
    lo1, up1 = payoff_truncated(game, 0, seq, depth)
    lo2, up2 = payoff_truncated(game, 0, seq, depth + 1)
    assert lo1 <= up1 and lo2 <= up2
    assert lo2 >= lo1 - 1e-12 * abs(lo1)
    assert up2 <= up1 + 1e-12 * abs(up1)


@given(positive_matrices())
@settings(max_examples=60, deadline=None)
def test_lp_feasibility_and_value(u):
    sol = solve_hider_lp(u)
    assert abs(math.fsum(sol.p.p) - 1.0) <= 1e-12
    assert all(pi >= 0.0 for pi in sol.p.p)
    col_vals = np.asarray(sol.p.p) @ u
    assert sol.v > 0
    assert abs(sol.v - col_vals.min()) <= 1e-9 * max(1.0, sol.v)


@given(positive_matrices())
@settings(max_examples=60, deadline=None)
def test_lp_mixture_consistency(u):
    sol = solve_hider_lp(u)
    theta = recover_searcher_mixture(u, sol)
    assert abs(float(theta.sum()) - 1.0) <= 1e-9
    assert int(np.count_nonzero(theta)) <= u.shape[0]


@given(positive_matrices(), st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
# value 1 with two optimal hider strategies, (1, 0, 0) and (0, 0, 1):
# scaling moves the slack reduced costs but not the structural ones, so
# the scaled solve pivots to the other optimum
@example(
    u=np.array([[1.0, 1.0, 1.0, 1.0, 1.0],
                [9.0, 2.0, 1.25, 0.5, 1.0],
                [10.0, 2.0, 1.0, 1.0, 1.0]]),
    scale=2.0,
)
def test_lp_scale_equivariance(u, scale):
    base = solve_hider_lp(u)
    scaled = solve_hider_lp(scale * u)
    assert abs(scaled.v - scale * base.v) <= 1e-9 * scale * base.v
    # the optimal p need not be unique; each solve's p must reach the
    # other solve's value on the scaled game
    for p, v in ((base.p, scaled.v), (scaled.p, scale * base.v)):
        assert float((np.asarray(p.p) @ (scale * u)).min()) >= v * (1 - 1e-9)


@given(positive_matrices(), st.lists(
    st.floats(0.5, 60.0), min_size=2, max_size=5,
))
@settings(max_examples=40, deadline=None)
def test_lp_column_append_never_raises_value(u, extra):
    n = u.shape[0]
    col = np.resize(np.asarray(extra), n)
    before = solve_hider_lp(u).v
    after = solve_hider_lp(np.column_stack([u, col])).v
    assert after <= before * (1 + 1e-12)


@given(
    st.integers(1, 4),
    st.floats(0.05, 0.95),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_cyclic_construction_validates(n, c, data):
    x = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    x[data.draw(st.integers(0, n - 1))] = 1
    t = data.draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    game = make_cyclic_game(c, x, t)
    assert validate_game(game.to_jsonable()) == game
