"""Acceptance suite: one test per release criterion, in order.

Each test prints a `[criterion N] PASS` line (visible with -s / -rA)
after its assertions succeed; pytest -v shows one pass/fail line per
criterion either way. The final test enforces the whole-suite runtime
budget.
"""

import math
import time

import numpy as np
import pytest

from boxsearch import (
    SCHEMES,
    HidingStrategy,
    SearchGame,
    SolveConfig,
    gittins_sequence,
    make_cyclic_game,
    p0,
    payoff_column,
    ruckle_sweep,
    run_batch,
    sample_game,
    solve,
    solve_hider_lp,
    summarize,
    value_bounds,
)
from boxsearch.model import per_game_seed
from boxsearch.solver import test_p0_optimality as p0_optimality
from boxsearch.study import two_box_games
from floors import hider_floor
from gittins_oracle import replay_check
from mc_oracle import mc_estimate
from payoff_oracle import payoff, payoff_truncated

_SUITE_START = time.perf_counter()


def _report(criterion: str, detail: str) -> None:
    print(f"[criterion {criterion}] PASS  {detail}")


def test_c1_exact_small_game_values():
    # single box: value is t/alpha exactly, solved in under a millisecond
    game = SearchGame(t=(2.0,), alpha=(0.5,))
    solve(game)  # warm-up outside the timed run
    t0 = time.perf_counter()
    sol = solve(game)
    elapsed = time.perf_counter() - t0
    assert sol.L == sol.U == 4.0
    assert elapsed < 1e-3, f"single-box solve took {elapsed * 1e3:.3f} ms"

    # two identical boxes: closed form 3/2 + 2(1-alpha)/alpha by symmetry
    # plus geometric series; independently checked by the MC oracle
    for k, alpha in enumerate((0.3, 0.5, 0.7)):
        game = SearchGame(t=(1.0, 1.0), alpha=(alpha, alpha))
        closed = 1.5 + 2.0 * (1.0 - alpha) / alpha
        sol = solve(game, SolveConfig(epsilon=1e-6))
        assert abs(sol.U - closed) / closed < 1e-6
        assert abs(sol.L - closed) / closed < 1e-6

        counter = gittins_sequence(game, sol.p_star)
        mc_value = half_sum = 0.0
        for i, pi in enumerate(sol.p_star.p):
            mean, half = mc_estimate(game, i, counter, 10**6, seed=100 + k)
            mc_value += pi * mean
            half_sum += pi * half
        assert abs(mc_value - closed) < 3 * half_sum
    _report("1", "single box exact in <1ms; identical boxes match closed "
                 "form at 1e-6 and the 1e6-trial MC oracle")


def test_c2_cyclic_closed_form():
    game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
    seq = gittins_sequence(game, p0(game))
    exact = {0: 2.0, 1: 10.0 / 3.0}
    for i, value in exact.items():
        assert abs(payoff_column(game, seq).lower[i] - value) / value < 1e-12
        # the series side, independent of the closed form: double the
        # truncation depth until the bracket is within 1e-10 relative
        R = 1
        lower, upper = payoff_truncated(game, i, seq, R)
        while upper > lower * (1 + 1e-10):
            R *= 2
            lower, upper = payoff_truncated(game, i, seq, R)
        assert lower * (1 - 1e-15) <= value <= upper * (1 + 1e-15)
        assert abs(0.5 * (lower + upper) - value) / value < 1e-10
    _report("2", "u = 2 and 10/3 exact to 1e-12; series brackets agree to 1e-10")


def test_c3_ruckle_thresholds():
    timings = []
    for alpha, expect in ((0.65, True), (0.7, True), (0.9, True),
                          (0.4, False), (0.5, False), (0.6, False)):
        game = SearchGame(t=(1.0, 1.0), alpha=(alpha, 1.0), allow_perfect=True)
        t0 = time.perf_counter()
        result = p0_optimality(game)
        timings.append(time.perf_counter() - t0)
        assert result.optimal is expect, f"alpha={alpha}"
    for alpha in (0.3, 0.35):
        t0 = time.perf_counter()
        record = ruckle_sweep([alpha])[0]
        timings.append(time.perf_counter() - t0)
        assert record.h == 3, f"alpha={alpha} gave h={record.h}"
    assert max(timings) < 1.0
    _report("3", f"optimality split at 0.618 as tabulated; h=3 on [0.276,"
                 f"0.382]; worst point {max(timings) * 1e3:.0f} ms")


def test_c4_bound_sandwich():
    checked = 0
    for n in (2, 3):
        for name in ("varied", "low", "medium", "high"):
            scheme = SCHEMES[name]
            for idx in range(500):
                game = sample_game(scheme, n, per_game_seed(1000 + n, idx))
                sol = solve(game, SolveConfig(epsilon=1e-4))
                lo, hi = value_bounds(game)
                assert lo <= sol.L <= sol.U <= hi, (
                    f"sandwich violated: scheme={name} n={n} idx={idx}: "
                    f"{lo} vs [{sol.L}, {sol.U}] vs {hi}"
                )
                checked += 1
    assert checked == 4000
    _report("4", "max t/a <= L <= U <= sum t/a on 500 games x 4 schemes "
                 "x n in {2,3}, zero violations")


def _convergence_stats(n, count, epsilon, seed):
    iterations = []
    for idx in range(count):
        game = sample_game(SCHEMES["varied"], n, per_game_seed(seed, idx))
        if p0_optimality(game).optimal:
            continue
        sol = solve(game, SolveConfig(epsilon=epsilon))
        iterations.append(sol.iterations)
    arr = np.asarray(iterations)
    return float(arr.mean()), float(np.percentile(arr, 95)), len(arr)


def test_c5_convergence_behavior():
    mean_a, p95_a, solved_a = _convergence_stats(2, 200, 1e-3, seed=2001)
    assert 2.0 <= mean_a <= 9.0, f"n=2 eps=1e-3 mean {mean_a}"
    assert p95_a <= 10.0

    mean_b, _, _ = _convergence_stats(2, 200, 1e-6, seed=2001)
    assert 3.0 <= mean_b <= 12.0, f"n=2 eps=1e-6 mean {mean_b}"

    mean_c, _, solved_c = _convergence_stats(3, 200, 1e-3, seed=2003)
    assert 5.0 <= mean_c <= 18.0, f"n=3 eps=1e-3 mean {mean_c}"
    _report("5", f"iterations: n=2 {mean_a:.2f} (p95 {p95_a:.0f}) at 1e-3 "
                 f"over {solved_a} suboptimal games, {mean_b:.2f} at 1e-6; "
                 f"n=3 {mean_c:.2f} over {solved_c}")


def test_c6_table_statistics():
    high = summarize(run_batch(SCHEMES["high"], 2, 1000, epsilon=1e-6, seed=31))
    assert high.frac_p0_optimal == pytest.approx(0.87, abs=0.05), (
        f"high-scheme optimal fraction {high.frac_p0_optimal}"
    )
    varied = summarize(
        run_batch(SCHEMES["varied"], 2, 1000, epsilon=1e-6, seed=32)
    )
    assert varied.mean_pct_below == pytest.approx(0.322, abs=0.15), (
        f"varied-scheme mean pct below {varied.mean_pct_below}"
    )
    _report("6", f"n=2 high: {100 * high.frac_p0_optimal:.1f}% optimal "
                 f"(target 87+-5); varied mean below-optimum "
                 f"{varied.mean_pct_below:.3f}% (target 0.322+-0.15)")


def test_c7_future_benefit_direction():
    config = SolveConfig(epsilon=1e-6)
    n_sub = n_greater = 0
    for game in two_box_games(900, seed=41):
        if p0_optimality(game).optimal:
            continue
        n_sub += 1
        sol = solve(game, config)
        if sol.p_star.p[0] > p0(game).p[0]:
            n_greater += 1
    assert n_sub >= 500, f"only {n_sub} suboptimal games"
    assert n_greater / n_sub >= 0.90, f"{n_greater}/{n_sub}"
    _report("7", f"p*_1 > p0_1 in {n_greater}/{n_sub} "
                 f"({100 * n_greater / n_sub:.1f}%) suboptimal games")


def test_c8_property_suites():
    rng = np.random.default_rng(51)

    # bracket monotonicity in truncation depth
    for _ in range(10):
        game = sample_game(SCHEMES["varied"], 2, rng)
        seq = gittins_sequence(game, p0(game))
        prev_lo, prev_up = -math.inf, math.inf
        for depth in range(0, 30, 3):
            lo, up = payoff_truncated(game, 0, seq, depth)
            assert lo >= prev_lo - 1e-12 and up <= prev_up + 1e-12
            prev_lo, prev_up = lo, up

    # LP strong duality residual
    for _ in range(25):
        n = int(rng.integers(2, 6))
        u = rng.uniform(1.0, 50.0, size=(n, int(rng.integers(1, 10))))
        # no other hider strategy guarantees more than v
        other = rng.uniform(0.0, 0.7 / n, size=n)
        sol = solve_hider_lp(u)
        primal = float((np.asarray(sol.p.p) @ u).min())
        dual = float((u @ sol.theta).max())
        assert abs(primal - dual) <= 1e-9 * max(1.0, sol.v)
        assert float((other / other.sum() @ u).min()) <= sol.v * (1 + 1e-9)

    # mixture support and probability floors on solved games
    for idx in range(25):
        game = sample_game(SCHEMES["varied"], 2 + idx % 2, per_game_seed(52, idx))
        sol = solve(game, SolveConfig(epsilon=1e-5))
        assert sum(1 for w in sol.theta if w > 0) <= game.n
        floors = hider_floor(game)
        assert all(
            pi >= 0.99 * ei - 1e-12
            for pi, ei in zip(sol.p_star.p, floors.eta)
        )

    # MC oracle agreement within 4 standard errors on 50 random triples
    for trial in range(50):
        game = sample_game(SCHEMES["varied"], 2 + trial % 2, per_game_seed(53, trial))
        raw = rng.uniform(0.05, 1.0, size=game.n)
        p = HidingStrategy(tuple(raw / raw.sum()))
        seq = gittins_sequence(game, p)
        i = trial % game.n
        bracket = payoff(game, i, seq)
        mean, half = mc_estimate(game, i, seq, 30000, per_game_seed(54, trial))
        se = half / 1.96
        assert abs(mean - bracket.midpoint) <= 4 * se, (
            f"triple {trial}: mc {mean} vs {bracket.midpoint} (se {se})"
        )

    # replayed sequences always pick a maximal index
    for idx in range(20):
        game = sample_game(SCHEMES["varied"], 2 + idx % 3, per_game_seed(55, idx))
        raw = rng.uniform(0.05, 1.0, size=game.n)
        p = HidingStrategy(tuple(raw / raw.sum()))
        seq = gittins_sequence(game, p)
        assert replay_check(game, p, seq, length=100)
    _report("8", "bracket monotonicity, LP duality <1e-9, support <= n, "
                 "0.99-eta floors, 4-SE MC agreement (50 triples), "
                 "Gittins replay all hold")


def test_c5_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.0f}s"
    _report("5-runtime", f"acceptance suite finished in {elapsed:.0f}s "
                         f"(< 300s budget)")
