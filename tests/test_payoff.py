"""Payoff brackets, closed forms, mixtures, and the Monte-Carlo oracle.

Derived expectations here come from independent hand/oracle evaluations:
geometric-series sums for alternating sequences, the relocating-hider
bound t/alpha for single boxes, and brute-force partial sums for the
truncated brackets.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import boxsearch.payoff as payoff_module
from boxsearch import (
    SCHEMES,
    HidingStrategy,
    SearchGame,
    expected_payoff,
    gittins_sequence,
    make_cyclic_game,
    p0,
    round_robin_payoff,
    sample_game,
    solve,
    tail_params,
)
from boxsearch.errors import (
    BoxNeverSearched,
    CapExceeded,
    InsufficientPrefix,
    InvalidMixture,
)
from boxsearch.gittins import TieOrdering, _stream_params, from_pattern
from boxsearch.model import per_game_seed
from boxsearch.payoff import (
    DEPTH_CAP,
    PAYOFF_REL_TOL,
    PayoffColumn,
    _first_depths,
    _GRID_DEPTH,
    _series_plan,
    check_mixture_weights,
    payoff_column,
)
from boxsearch.solver import test_p0_optimality as p0_optimality
from floors import hider_floor
from gittins_oracle import OracleSequence
from mc_oracle import mc_estimate
from payoff_oracle import (
    INFINITE_PAYOFF,
    mixed_payoff,
    payoff,
    payoff_truncated,
)


def identical() -> SearchGame:
    return SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))


def alternating(game):
    return from_pattern(game, (0, 1))


def perfect_second(game):
    """The exact counter to p = (0.75, 0.25) on t = (1, 1), alpha = (0.5,
    1): indices 0.375 and 0.25 search box 0 first, then box 1 at time 2.
    It has no cycle, so payoff_column() takes the series, at depth 0 for box 1."""
    seq = gittins_sequence(game, HidingStrategy((0.75, 0.25)))
    assert seq.prefix(2) == (0, 1) and seq.cycle is None
    return seq


def series_bracket(game, i, seq, rel_tol=1e-10):
    """Series bracket of u(i, seq) from payoff_truncated alone, doubling R
    until its relative width is within rel_tol: an evaluation independent
    of the closed form that payoff_column() returns on cycled sequences."""
    R = 1
    while True:
        lower, upper = payoff_truncated(game, i, seq, R)
        if upper <= lower * (1.0 + rel_tol):
            return lower, upper
        R *= 2


class TestTailParams:
    def test_identical_boxes(self):
        params = tail_params(identical())
        assert params.l == 2
        assert params.l_hat == 4.0

    def test_asymmetric(self):
        # log(0.25)/log(0.5) = 2, floor + 1 = 3
        params = tail_params(SearchGame(t=(1.0, 1.0), alpha=(0.75, 0.5)))
        assert params.l == 3
        assert params.l_hat == 6.0

    def test_single_box(self):
        params = tail_params(SearchGame(t=(2.0,), alpha=(0.5,)))
        assert params.l == 2
        assert params.l_hat == 4.0

    def test_perfect_box_counted_once(self):
        # l over the imperfect box alone; the perfect box adds its t once
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        params = tail_params(game)
        assert params.l == 2
        assert params.l_hat == 3.0
        br = payoff(game, 1, perfect_second(game))
        assert (br.lower, br.upper) == (2.0, 2.0)
        # alternating with the perfect box: tau_0(r) = 2r - 1, u = 3
        br = payoff(game, 0, alternating(game))
        assert math.isfinite(br.upper)
        assert br.lower <= 3.0 <= br.upper
        assert br.upper / br.lower - 1.0 < 1e-10

    def test_only_perfect_boxes(self):
        game = SearchGame(t=(2.0, 3.0), alpha=(1.0, 1.0), allow_perfect=True)
        params = tail_params(game)
        assert (params.l, params.l_hat) == (0, 0.0)

    def test_kept_on_the_game(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.75, 0.5))
        assert tail_params(game) is tail_params(game)
        assert tail_params(game) == tail_params(
            SearchGame(t=(1.0, 1.0), alpha=(0.75, 0.5))
        )


class TestPayoffTruncated:
    def test_zero_terms(self):
        lower, upper = payoff_truncated(identical(), 0, alternating(identical()), 0)
        assert lower == 1.0
        assert upper == 1.0 + 4.0 * 0.5 / 0.5

    def test_twenty_terms(self):
        game = identical()
        lower, upper = payoff_truncated(game, 0, alternating(game), 20)
        # brute force: 1 + sum_{r=1..20} 0.5^r * 2
        brute = 1.0 + math.fsum(0.5**r * 2.0 for r in range(1, 21))
        assert lower == pytest.approx(brute, rel=1e-15)
        assert abs(lower - 3.0) < 1e-5
        assert upper - lower == pytest.approx(4.0 * 0.5**21 / 0.5, rel=1e-12)

    def test_insufficient_prefix(self):
        game = identical()
        seq = from_pattern(game, (0,))
        with pytest.raises(InsufficientPrefix):
            payoff_truncated(game, 1, seq, 0)

    def test_bracket_monotone_in_depth(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            game = sample_game(SCHEMES["varied"], 2, rng)
            seq = gittins_sequence(game, p0(game))
            lowers, uppers = [], []
            for R in range(0, 40, 4):
                lo, up = payoff_truncated(game, 0, seq, R)
                lowers.append(lo)
                uppers.append(up)
            assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
            assert all(a >= b - 1e-15 for a, b in zip(uppers, uppers[1:]))


class TestFirstDepths:
    def test_small_alphas_within_the_cap(self):
        for a, low, high in ((1e-4, 4.1e5, 4.3e5), (1e-5, 4.6e6, 4.7e6)):
            depth = _first_depths(SearchGame(t=(1.0, 1.0), alpha=(a, 0.5)))[0]
            assert low < depth < high < DEPTH_CAP

    def test_series_powers_are_per_box_products(self):
        # the grid's rows hold the per-box cumprod's powers to the bit; a
        # box deeper than _GRID_DEPTH takes its own, so the grid stays
        # n rows of at most _GRID_DEPTH + 1
        for game in (sample_game(SCHEMES["varied"], 5, per_game_seed(3, 1)),
                     SearchGame(t=(1.0, 1.0), alpha=(1e-4, 0.5))):
            plan = _series_plan(game)
            for (powers, start, stop), R, a in zip(
                    plan.segments, plan.depths, game.alpha):
                assert stop - start == R
                assert powers.tobytes() == (
                    np.cumprod(np.full(R + 1, 1.0 - a))[:R].tobytes())
                owner = powers if powers.base is None else powers.base
                if R < _GRID_DEPTH:
                    assert owner.size <= game.n * (_GRID_DEPTH + 1)
                else:
                    assert owner.size == R + 1

    def test_unreachable_depth_refused(self):
        # 5.1e7 searches of box 0 before its first bracket: refused before
        # any search is realized
        game = SearchGame(t=(1.0, 1.0), alpha=(1e-6, 0.5))
        with pytest.raises(CapExceeded,
                           match="box 0 needs a series depth of 50983481 "):
            _first_depths(game)

    def test_first_depths_are_final(self, monkeypatch):
        # every series column the solve and the p0 test build, and the
        # columns of boundary strategies, is taken at the first depths,
        # within the tail test that fixed them (up to the rounding of
        # upper) and to a relative width of at most PAYOFF_REL_TOL / 2: no
        # box needs a deeper bracket
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench")
        )
        from workloads import stratified_games

        columns = []
        series_column = payoff_module._series_column

        def recorded(game, xi):
            columns.append((game, series_column(game, xi)))
            return columns[-1][1]

        monkeypatch.setattr(payoff_module, "_series_column", recorded)
        corners = [
            SearchGame(t=(1e-3, 1e3), alpha=(0.5, 0.5)),
            SearchGame(t=(1.0, 2.0, 1.5), alpha=(1e-3, 0.999999, 0.5)),
            SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 1.0, 0.6),
                       allow_perfect=True),
        ]
        for game in stratified_games(1, 3, 60) + stratified_games(1, 8, 10):
            solve(game)
            p0_optimality(game)
        for game in corners:
            solve(game)
            p0_optimality(game)
            for i in range(game.n):
                # all mass on box i, and none on it
                for raw in (np.eye(game.n)[i], 1.0 - np.eye(game.n)[i]):
                    p = HidingStrategy(tuple((raw / raw.sum()).tolist()))
                    payoff_column(game, gittins_sequence(game, p))
        assert {game for game, _ in columns} >= set(corners)
        never = 0
        for game, (lower, upper, used) in columns:
            depths = _first_depths(game)
            for i in range(game.n):
                if lower[i] == math.inf:
                    assert (upper[i], used[i]) == (math.inf, 0)
                    never += 1
                    continue
                assert used[i] == depths[i]
                t, a = game.t[i], game.alpha[i]
                assert upper[i] - lower[i] <= (
                    PAYOFF_REL_TOL * t * (1.0 - a) + math.ulp(upper[i])
                )
                assert upper[i] - lower[i] <= PAYOFF_REL_TOL / 2 * lower[i]
        assert len(columns) > 1000 and never > 0


class TestBitIdentity:
    """Visit times realized in blocks equal adding the search times one at
    a time, and the column's array pass equals the per-box form
    np.cumprod(np.full(R, 1 - a)) @ np.diff(tau) of the oracle's
    payoff_truncated, bit for bit."""

    @staticmethod
    def counters():
        rng = np.random.default_rng(93)
        for n in (2, 3, 5, 8):
            game = sample_game(SCHEMES["varied"], n, rng)
            raw = rng.uniform(0.1, 1.0, size=n)
            p = HidingStrategy(tuple((raw / raw.sum()).tolist()))
            yield game, p, None
            sigma = TieOrdering(tuple(rng.permutation(n).tolist()))
            yield game, p0(game), sigma
            # a counter that never searches one box
            raw[int(rng.integers(0, n))] = 0.0
            yield game, HidingStrategy(tuple((raw / raw.sum()).tolist())), None
        # a perfect box, searched or not
        game = SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 1.0, 0.6),
                          allow_perfect=True)
        for p in ((0.5, 0.2, 0.3), (0.5, 0.0, 0.5), (0.0, 0.4, 0.6)):
            yield game, HidingStrategy(p), None

    def test_visit_times_and_series(self):
        for game, p, order in self.counters():
            seq = gittins_sequence(game, p, order)
            n, depths = game.n, _first_depths(game)
            column = payoff_column(game, seq)
            for i in range(n):
                if seq.can_visit_more(i):
                    seq.ensure_visits(i, 2 * depths[i] + 1)
            seq.ensure_length(len(seq) + 37)
            replay = OracleSequence(game, p, order)
            replay.ensure_length(len(seq))
            l_hat = tail_params(game).l_hat
            for i in range(n):
                times = seq.visit_times(i)
                assert times.dtype == np.float64 and not times.flags.writeable
                assert times.tolist() == replay.visits[i]
                if not times.size:
                    continue
                a = game.alpha[i]
                for R in (7, 2 * depths[i], 1, depths[i]):
                    if R + 1 > times.size:
                        continue
                    tau = np.asarray(times.tolist()[:R + 1])
                    q_pows = np.cumprod(np.full(R, 1.0 - a))
                    lower = float(tau[0]) + float(q_pows @ np.diff(tau))
                    tail = float(q_pows[-1]) if R else 1.0
                    upper = lower + l_hat * (tail * (1.0 - a)) / a
                    assert payoff_truncated(game, i, seq, R) == (lower, upper)
                    if R == depths[i]:
                        assert (column.lower[i], column.upper[i]) == (
                            lower, upper
                        )

    def test_array_column_equals_payoff_truncated(self):
        # the column's one array pass against the per-box evaluation at
        # each box's depth; a box the counter never searches reads
        # (inf, inf, 0)
        for game, p, order in self.counters():
            seq = gittins_sequence(game, p, order)
            column = payoff_column(game, seq)
            depths = _first_depths(game)
            for i in range(game.n):
                bracket = (column.lower[i], column.upper[i],
                           column.searches_used[i])
                if p.p[i] == 0.0:
                    assert seq.num_visits(i) == 0
                    assert bracket == (math.inf, math.inf, 0)
                else:
                    assert bracket == (
                        *payoff_truncated(game, i, seq, depths[i]), depths[i]
                    )

    def test_solve_and_p0_test_match_the_per_box_path(self, monkeypatch):
        games = [sample_game(SCHEMES["varied"], n, per_game_seed(17, n))
                 for n in (2, 3, 5, 8)]
        # a perfect box takes the array pass too, with a depth of 0
        games.append(SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 1.0, 0.6),
                                allow_perfect=True))

        def outputs():
            out = []
            for game in games:
                sol = solve(game)
                res = p0_optimality(game)
                out.append((
                    sol.iterations, sol.L, sol.U, sol.theta, sol.p_star,
                    sol.termination, res.optimal, res.v_D, res.u_p0,
                    res.theta,
                ))
            return out

        def per_box_column(game, xi):
            # the solve and the p0 test build no counter that skips a box,
            # so every box has its series
            depths = _first_depths(game)
            lower, upper = zip(*(payoff_truncated(game, i, xi, depths[i])
                                 for i in range(game.n)))
            return PayoffColumn(np.array(lower), np.array(upper),
                                tuple(depths))

        array_path = outputs()
        monkeypatch.setattr(payoff_module, "_series_column", per_box_column)
        assert outputs() == array_path

    def test_solve_and_p0_test_release_the_powers(self):
        game = sample_game(SCHEMES["varied"], 4, 95)

        def kept():
            return [d for d in (_series_plan, _stream_params)
                    if d.__wrapped__ in game._derived]

        payoff(game, 0, gittins_sequence(game, p0(game)))
        assert _series_plan(game).segments[0][0].size > 0
        assert kept() == [_series_plan, _stream_params]
        for run in (solve, p0_optimality):
            run(game)
            assert kept() == []


class TestPayoff:
    def test_alternating_series(self):
        game = identical()
        seq = alternating(game)
        br0 = payoff(game, 0, seq)
        br1 = payoff(game, 1, seq)
        assert br0.lower <= 3.0 <= br0.upper
        assert br0.upper / br0.lower - 1.0 < 1e-10
        assert br1.lower <= 4.0 <= br1.upper
        assert br1.upper / br1.lower - 1.0 < 1e-10

    def test_single_box_repeated_search(self):
        game = SearchGame(t=(2.0,), alpha=(0.5,))
        br = payoff(game, 0, from_pattern(game, (0,)))
        assert br.midpoint == pytest.approx(4.0, rel=1e-10)

    def test_never_searched_sentinel(self):
        game = identical()
        seq = gittins_sequence(game, HidingStrategy((1.0, 0.0)))
        assert payoff(game, 1, seq) is INFINITE_PAYOFF

    def test_perfect_box_pays_first_visit(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        br = payoff(game, 1, perfect_second(game))
        assert (br.lower, br.upper) == (2.0, 2.0)


class TestPayoffCyclic:
    def game(self):
        return make_cyclic_game(0.25, (1, 2), (1.0, 1.0))

    def test_closed_form_exact(self):
        game = self.game()
        seq = gittins_sequence(game, p0(game))
        column = payoff_column(game, seq)
        assert column.lower[0] == pytest.approx(2.0, rel=1e-12)
        assert column.lower[1] == pytest.approx(10 / 3, rel=1e-12)

    def test_series_brackets_closed_form(self):
        game = self.game()
        seq = gittins_sequence(game, p0(game))
        for i, exact in ((0, 2.0), (1, 10 / 3)):
            lower, upper = series_bracket(game, i, seq)
            assert lower <= exact * (1 + 1e-10)
            assert upper >= exact * (1 - 1e-10)
            assert 0.5 * (lower + upper) == pytest.approx(exact, rel=1e-9)

    def test_agreement_on_random_cyclic_games(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            x = [int(v) for v in rng.integers(1, 4, size=n)]
            x[int(rng.integers(0, n))] = 1
            game = make_cyclic_game(
                float(rng.uniform(0.15, 0.85)), x,
                [float(v) for v in rng.uniform(1, 5, size=n)],
            )
            raw = rng.uniform(0.1, 1.0, size=n)
            p = HidingStrategy(tuple(raw / raw.sum()))
            seq = gittins_sequence(game, p, TieOrdering.identity(n))
            for i in range(n):
                exact = payoff_column(game, seq).lower[i]
                lower, upper = series_bracket(game, i, seq)
                assert 0.5 * (lower + upper) == pytest.approx(exact, rel=1e-9)

    def test_payoff_uses_closed_form_on_cycles(self):
        game = self.game()
        seq = gittins_sequence(game, p0(game))
        for i in range(game.n):
            exact = payoff_column(game, seq).lower[i]
            br = payoff(game, i, seq)
            assert (br.lower, br.upper, br.searches_used) == (exact, exact, 0)
        # the same boxes without the declared structure: no cycle, series
        undeclared = SearchGame(t=game.t, alpha=game.alpha)
        plain = gittins_sequence(undeclared, p0(undeclared))
        assert plain.cycle is None
        for i in range(game.n):
            br = payoff(undeclared, i, plain)
            assert br.width > 0.0
            assert br.searches_used > 0


class TestRoundRobin:
    def test_identical_boxes(self):
        game = identical()
        assert round_robin_payoff(game, 0) == pytest.approx(3.0, rel=1e-12)
        assert round_robin_payoff(game, 1) == pytest.approx(4.0, rel=1e-12)

    def test_single_box(self):
        game = SearchGame(t=(2.0,), alpha=(0.5,))
        assert round_robin_payoff(game, 0) == pytest.approx(4.0, rel=1e-12)

    def test_matches_explicit_repeated_sequence(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            game = sample_game(SCHEMES["varied"], int(rng.integers(1, 5)), rng)
            seq = from_pattern(game, tuple(range(game.n)))
            for i in range(game.n):
                closed = round_robin_payoff(game, i)
                br = payoff(game, i, seq)
                assert br.midpoint == pytest.approx(closed, rel=1e-10)


class TestExpectedAndMixed:
    def test_uniform_over_alternating(self):
        game = identical()
        br = expected_payoff(game, HidingStrategy((0.5, 0.5)), alternating(game))
        assert br.midpoint == pytest.approx(3.5, rel=1e-10)

    def test_cyclic_heuristic_value(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        seq = gittins_sequence(game, p0(game))
        br = expected_payoff(game, p0(game), seq)
        assert br.midpoint == pytest.approx(2.8, rel=1e-10)

    def test_zero_mass_skips_infinite_box(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))
        seq = from_pattern(game, (0,))
        br = expected_payoff(game, HidingStrategy((1.0, 0.0)), seq)
        assert br.midpoint == pytest.approx(2.0, rel=1e-10)

    def test_positive_mass_on_unsearched_box_raises(self):
        game = identical()
        seq = from_pattern(game, (0,))
        with pytest.raises(BoxNeverSearched):
            expected_payoff(game, HidingStrategy((0.5, 0.5)), seq)

    def test_degenerate_mixture_equals_payoff(self):
        game = identical()
        seq = alternating(game)
        br = mixed_payoff(game, 0, [(1.0, seq)])
        direct = payoff(game, 0, seq)
        assert br.lower == direct.lower and br.upper == direct.upper

    def test_equalizing_mixture(self):
        game = identical()
        half = [(0.5, from_pattern(game, (0, 1))), (0.5, from_pattern(game, (1, 0)))]
        for box in (0, 1):
            br = mixed_payoff(game, box, half)
            assert br.midpoint == pytest.approx(3.5, rel=1e-10)

    def test_weight_validation(self):
        game = identical()
        seq = alternating(game)
        with pytest.raises(InvalidMixture):
            mixed_payoff(game, 0, [(0.7, seq)])
        with pytest.raises(InvalidMixture):
            mixed_payoff(game, 0, [(-0.5, seq), (1.5, seq)])

    @pytest.mark.parametrize("weights", [
        [math.nan, 1.0], [math.nan], [0.5, math.nan, 0.5],
        [math.inf, 1.0], [1.0, -math.inf],
    ])
    def test_weights_must_be_finite(self, weights):
        # NaN passes both w < 0 and the sum test unless refused as such
        with pytest.raises(InvalidMixture):
            check_mixture_weights(weights)


class TestMonteCarlo:
    def test_alternating_box0(self):
        game = identical()
        mean, half = mc_estimate(game, 0, alternating(game), 10**6, seed=7)
        assert abs(mean - 3.0) < 3 * half

    def test_single_box(self):
        game = SearchGame(t=(2.0,), alpha=(0.5,))
        mean, half = mc_estimate(game, 0, from_pattern(game, (0,)), 10**6, seed=8)
        assert abs(mean - 4.0) < 3 * half

    def test_one_trial_convention(self):
        game = identical()
        mean, half = mc_estimate(game, 0, alternating(game), 1, seed=9)
        assert half == 0.0
        assert mean in set(np.arange(1.0, 200.0, 2.0))

    def test_seed_reproducibility(self):
        game = identical()
        a = mc_estimate(game, 1, alternating(game), 1000, seed=10)
        b = mc_estimate(game, 1, alternating(game), 1000, seed=10)
        assert a == b


class TestSearcherCounterBound:
    def test_gittins_payoff_below_round_robin_over_floor(self):
        # u(i, xi) < u(p, round_robin)/delta_i for Gittins xi against
        # floored p: certified consequence of the floors
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            game = sample_game(SCHEMES["varied"], n, rng)
            floors = hider_floor(game)
            raw = np.maximum(rng.uniform(0, 1, size=n), floors.delta)
            p = HidingStrategy(tuple(raw / raw.sum()))
            if any(pi < di for pi, di in zip(p.p, floors.delta)):
                continue
            seq = gittins_sequence(game, p)
            rr = expected_payoff(
                game, p, from_pattern(game, tuple(range(game.n)))
            )
            for i in range(n):
                cap = rr.upper / floors.delta[i]
                assert payoff(game, i, seq).upper < cap
