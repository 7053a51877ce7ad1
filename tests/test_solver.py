"""End-to-end solves, trace invariants, and the p0 optimality test."""

import math
from pathlib import Path

import numpy as np
import pytest

from boxsearch import (
    SCHEMES,
    HidingStrategy,
    SearchGame,
    SolveConfig,
    Termination,
    TieOrdering,
    all_orderings,
    expected_payoff,
    gittins_sequence,
    make_cyclic_game,
    p0,
    sample_game,
    solve,
    value_bounds,
)
from boxsearch import solver
import boxsearch.gittins as gittins_module
import boxsearch.payoff as payoff_module
from boxsearch.errors import BoxNeverSearched, InvalidMixture
from boxsearch.gittins import _GittinsDriver, from_pattern, initial_orderings
from boxsearch.lp import solve_hider_lp
from boxsearch.payoff import payoff_column
from boxsearch.solver import test_p0_optimality as p0_optimality
from boxsearch.model import per_game_seed
from boxsearch.solver import (
    _LAMBDA,
    _QUERY_WEIGHTS,
    _column_values,
    _mixture_certificate,
    _p0_columns,
    _p0_counters,
    _smith_order,
    write_trace,
)
from boxsearch.study import _ruckle_game
from floors import FLOOR_SHRINK, FloorUnderflow, hider_floor
from kelley_oracle import kelley_solve
from p0_oracle import p0_test_exhaustive
from payoff_oracle import mixed_payoff, payoff


def identical(alpha=0.5) -> SearchGame:
    return SearchGame(t=(1.0, 1.0), alpha=(alpha, alpha))


def identical_value(alpha: float) -> float:
    # mix of the two alternating counters: 3/2 + 2(1-alpha)/alpha
    return 1.5 + 2.0 * (1.0 - alpha) / alpha


def best_response_value(game, p):
    """u(p) bracketed, and the exact Gittins counter to p attaining it, as
    solve evaluates them."""
    seq = gittins_sequence(game, p)
    return expected_payoff(game, p, seq), seq


class TestBestResponseValue:
    def test_identical_boxes(self):
        bracket, seq = best_response_value(
            identical(), HidingStrategy((0.5, 0.5))
        )
        assert bracket.midpoint == pytest.approx(3.5, rel=1e-10)
        assert all(seq.can_visit_more(i) for i in range(2))

    def test_degenerate_support_restricted_game(self):
        bracket, seq = best_response_value(
            identical(), HidingStrategy((1.0, 0.0))
        )
        assert bracket.midpoint == pytest.approx(2.0, rel=1e-10)
        assert not seq.can_visit_more(1)

    def test_cyclic_heuristic(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        bracket, _ = best_response_value(game, p0(game))
        assert bracket.midpoint == pytest.approx(2.8, rel=1e-12)


class TestSolve:
    def test_identical_boxes_closed_form(self):
        for alpha in (0.3, 0.5, 0.7):
            sol = solve(identical(alpha), SolveConfig(epsilon=1e-6))
            v = identical_value(alpha)
            assert sol.termination is Termination.CONVERGED
            assert sol.L <= v * (1 + 1e-9)
            assert sol.U >= v * (1 - 1e-9)
            assert sol.U / sol.L - 1.0 < 1e-6
            np.testing.assert_allclose(sol.p_star.p, (0.5, 0.5), atol=1e-6)

    def test_single_box_exact(self):
        sol = solve(SearchGame(t=(2.0,), alpha=(0.5,)))
        assert abs(sol.U - 4.0) / 4.0 < 1e-9
        assert sol.p_star.p == (1.0,)
        assert sol.theta == (1.0,)
        assert sol.sequences[0].prefix(3) == (0, 0, 0)

    def test_integer_times_solve_as_floats(self):
        # integer times and probabilities are stored as floats, so they
        # reach the float64 visit-time buffers and give the float game's
        # solve and p0 test bit for bit
        ints = SearchGame(t=(1, 2), alpha=(0.3, 0.7))
        floats = SearchGame(t=(1.0, 2.0), alpha=(0.3, 0.7))
        assert ints.t == (1.0, 2.0) and all(type(v) is float for v in ints.t)
        a, b = solve(ints), solve(floats)
        assert (a.L, a.U, a.iterations, a.p_star, a.theta) == (
            b.L, b.U, b.iterations, b.p_star, b.theta)
        assert a.termination is Termination.CONVERGED
        assert p0_optimality(ints).v_D == p0_optimality(floats).v_D
        perfect = SearchGame(t=(1, 1), alpha=(1, 0.5), allow_perfect=True)
        assert perfect.alpha == (1.0, 0.5)
        assert solve(perfect).U == solve(SearchGame(
            t=(1.0, 1.0), alpha=(1.0, 0.5), allow_perfect=True)).U

    def test_near_perfect_second_box(self):
        # alpha_2 -> 1 proxy for the perfect-box game: the index-tie
        # equation p*alpha*(1-alpha) = 1-p at alpha=0.5 gives p = 0.8
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1 - 1e-9))
        sol = solve(game, SolveConfig(epsilon=1e-6))
        assert sol.p_star.p[0] == pytest.approx(0.8, abs=2e-3)

    def test_perfect_box_solves(self):
        # Ruckle's game: the value is 2.4 at p = (0.8, 0.2), where the two
        # indices tie at the second search
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        sol = solve(game, SolveConfig(epsilon=1e-6))
        assert sol.termination is Termination.CONVERGED
        assert sol.L <= 2.4 <= sol.U
        assert sol.p_star.p[0] == pytest.approx(0.8, abs=1e-4)

    def test_floor_underflow_games_converge(self):
        # the hider floors underflow on both games; the solve needs none
        for game in (SearchGame(t=(1e-3, 1e3), alpha=(0.5, 0.5)),
                     SearchGame(t=(1.0, 1.0), alpha=(1e-4, 0.5))):
            with pytest.raises(FloorUnderflow):
                hider_floor(game)
            sol = solve(game, SolveConfig(epsilon=1e-6))
            assert sol.termination is Termination.CONVERGED
            assert sol.U / sol.L - 1.0 < 1e-6
            lo, hi = value_bounds(game)
            assert lo <= sol.L <= sol.U <= hi

    def test_cyclic_game_exact_value(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        sol = solve(game)
        assert sol.U == pytest.approx(2.8, rel=1e-9)
        assert sol.termination is Termination.CONVERGED

    def test_bit_stable_reruns(self):
        game = sample_game(SCHEMES["low"], 3, per_game_seed(73, 0))
        a = solve(game, SolveConfig(epsilon=1e-6))
        b = solve(game, SolveConfig(epsilon=1e-6))
        assert (a.L, a.U, a.p_star, a.theta) == (b.L, b.U, b.p_star, b.theta)

    def test_wider_games(self):
        # Kelley's floored loop lands near the published iteration scale:
        # ~29 at n=5, ~73 at n=8 (epsilon 1e-3, varied draws); the
        # smoothed solve takes fewer and brackets the same value
        for n, seed, low, high in ((5, 71, 10, 60), (8, 72, 30, 160)):
            game = sample_game(SCHEMES["varied"], n, per_game_seed(seed, 0))
            kelley = kelley_solve(game, 1e-3)
            assert kelley.converged
            assert low <= kelley.iterations <= high
            sol = solve(game, SolveConfig(epsilon=1e-3))
            assert sol.termination is Termination.CONVERGED
            assert sol.iterations < kelley.iterations
            assert sol.L <= kelley.U and kelley.L <= sol.U
            lo, hi = value_bounds(game)
            assert lo <= sol.L <= sol.U <= hi

    def test_extreme_alpha_spread_converges(self):
        # near-boundary floors make successive best responses share very
        # long prefixes; duplicate detection must not mistake them for
        # each other and stall
        game = SearchGame(t=(1.0, 5.0, 2.5), alpha=(0.97, 0.03, 0.5))
        sol = solve(game, SolveConfig(epsilon=1e-6))
        assert sol.termination is Termination.CONVERGED
        assert sol.U / sol.L - 1.0 < 1e-6
        lo, hi = value_bounds(game)
        assert lo <= sol.L <= sol.U <= hi

    def test_cyclic_and_series_routes_agree(self):
        # the same numeric game solved through the cyclic closed forms
        # and through plain series brackets must produce the same value
        # and strategy
        for c, x, t in ((0.3, (1, 3), (1.0, 1.0)),
                        (0.4, (1, 2, 3), (3.0, 1.0, 2.0))):
            cyc = make_cyclic_game(c, x, t)
            plain = SearchGame(t=cyc.t, alpha=cyc.alpha)
            a = solve(cyc, SolveConfig(epsilon=1e-8))
            b = solve(plain, SolveConfig(epsilon=1e-8))
            assert a.termination is Termination.CONVERGED
            assert b.termination is Termination.CONVERGED
            assert abs(a.U - b.U) <= 1e-7 * a.U
            assert abs(a.L - b.L) <= 1e-7 * a.L
            np.testing.assert_allclose(a.p_star.p, b.p_star.p, atol=1e-6)

    def test_max_iterations_returns_best_so_far(self):
        game = sample_game(SCHEMES["varied"], 2, per_game_seed(99, 3))
        sol = solve(game, SolveConfig(epsilon=1e-9, max_iterations=2))
        full = solve(game, SolveConfig(epsilon=1e-9))
        if sol.termination is Termination.MAX_ITERATIONS:
            assert sol.iterations == 2
            assert sol.L <= full.U * (1 + 1e-9)
        assert full.termination is Termination.CONVERGED

    def test_refused_best_response_reports_stall(self):
        # epsilon below the payoff tolerance: every query of the last
        # iteration, down to p_k itself, returns a column already stored
        game = SearchGame(t=(1.0, 2.0), alpha=(0.3, 0.7))
        sol = solve(game, SolveConfig(epsilon=1e-13))
        assert sol.termination is Termination.STALLED
        assert sol.termination.value == "stalled"  # as the CLI prints it
        assert sol.iterations == 6 < SolveConfig().max_iterations
        assert len(sol.sequences) == 7
        final = sol.trace[-1]
        assert final.added_sequence is None
        assert final.mispriced == len(_QUERY_WEIGHTS) + 1
        assert 1e-13 <= final.gap < 1e-10

    def test_unmoved_center_reports_stall(self):
        # the last response is new but cuts nothing, and L no longer rises:
        # the next iteration would replay this one, so the solve stalls
        # instead of running to max_iterations. Which stall path a game
        # takes can turn on LP rounding in the last digits
        game = sample_game(SCHEMES["varied"], 3, per_game_seed(91, 4))
        sol = solve(game, SolveConfig(epsilon=1e-13))
        assert sol.termination is Termination.STALLED
        assert sol.iterations < 100
        before, final = sol.trace[-2:]
        assert final.added_sequence is None
        assert final.lower == before.lower
        assert final.gap < 1e-10

    def test_repeated_column_reports_stall(self):
        # L still rises, but the last response's column is already stored,
        # so the LP cannot change: the solve stalls on the repeated column
        game = sample_game(SCHEMES["varied"], 3, per_game_seed(91, 1))
        sol = solve(game, SolveConfig(epsilon=1e-13))
        assert sol.termination is Termination.STALLED
        assert sol.iterations < 100
        before, final = sol.trace[-2:]
        assert final.added_sequence is None
        assert final.lower > before.lower
        assert final.gap < 1e-10

    def test_epsilon_must_be_finite_and_positive(self):
        for bad in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                SolveConfig(epsilon=bad)


class TestSeedColumns:
    """The first n columns of a solve and of a p0 test: one realized
    counter, the other rotations shifted from its column."""

    @pytest.mark.parametrize("game", [
        *(sample_game(SCHEMES["varied"], n, per_game_seed(83, n))
          for n in (2, 3, 5, 8)),
        _ruckle_game(0.5),
    ])
    def test_shifted_columns_match_direct(self, game):
        sequences, mat, worst_half, column_of = _p0_columns(
            game, initial_orderings(game.n))
        assert game.cyclic is None and not sequences[0].tied
        assert column_of is not None and mat.shape == (game.n, game.n)
        # the shifted rotations stay unrealized, with no memoized column
        assert all(len(seq) == 0 and seq._column is None
                   for seq in sequences[1:])
        direct = _p0_counters(game, initial_orderings(game.n))
        for k, seq in enumerate(direct):
            values, half = _column_values(game, seq)
            assert half <= worst_half
            assert np.abs(mat[:, k] - values).max() <= worst_half
        assert not any(seq.tied for seq in direct)

    @pytest.mark.parametrize("idx, shifted_used", [(8, 0), (3, 1)])
    def test_solve_realizes_one_rotation_counter(self, monkeypatch, idx,
                                                 shifted_used):
        # record the tie ordering of every generator that runs; best
        # responses use the identity, the first rotation's ordering
        realized = set()
        merge = _GittinsDriver._merge

        def recorded(gen, *args):
            realized.add(gen.order)
            return merge(gen, *args)

        monkeypatch.setattr(_GittinsDriver, "_merge", recorded)
        game = sample_game(SCHEMES["varied"], 8, per_game_seed(83, idx))
        sol = solve(game, SolveConfig(epsilon=1e-6))
        assert sol.termination is Termination.CONVERGED
        # the certificate realizes a shifted rotation only when the final
        # mixture uses it, and brackets it from its own series
        orderings = initial_orderings(game.n)
        used = {o.sigma for o, w in zip(orderings, sol.theta) if w > 0}
        assert realized == {orderings[0].sigma} | used
        assert len(used - {orderings[0].sigma}) == shifted_used
        fresh = _p0_counters(game, orderings)
        for o, seq, new in zip(orderings, sol.sequences, fresh):
            if o.sigma in used:
                assert (payoff_column(game, seq).upper.tobytes()
                        == payoff_column(game, new).upper.tobytes())
            elif o.sigma != orderings[0].sigma:
                assert len(seq) == 0

    def test_shifted_counters_defer_their_constants(self, monkeypatch):
        # of the n = 5 rotation counters only the realized identity loads
        # its stream constants; a shifted one loads them once realized
        loaded = []
        ordered_params = gittins_module._ordered_params

        def recorded(game, order):
            loaded.append(order.sigma)
            return ordered_params(game, order)

        monkeypatch.setattr(gittins_module, "_ordered_params", recorded)
        game = sample_game(SCHEMES["varied"], 5, per_game_seed(83, 5))
        orderings = initial_orderings(game.n)
        sequences, _, _, column_of = _p0_columns(game, orderings)
        assert column_of is not None
        assert loaded == [orderings[0].sigma]
        assert sequences[2].prefix(5) == orderings[2].sigma
        assert loaded == [orderings[0].sigma, orderings[2].sigma]

    def test_cyclic_and_tied_games_evaluate_every_counter(self):
        cyclic = make_cyclic_game(0.3, (1, 2, 3, 1), (1.0, 2.0, 3.0, 1.5))
        tied = SearchGame(t=(1.0,) * 3, alpha=(0.4,) * 3)
        for game in (cyclic, tied):
            sequences, mat, worst_half, column_of = _p0_columns(
                game, initial_orderings(game.n))
            assert game is cyclic or sequences[0].tied
            assert column_of is None
            for k, seq in enumerate(sequences):
                assert seq._column is not None
                values, half = _column_values(game, seq)
                assert mat[:, k].tobytes() == values.tobytes()
                assert half <= worst_half

    @pytest.mark.parametrize("game, all_counters", [
        (sample_game(SCHEMES["varied"], 3, per_game_seed(83, 3)), False),
        (make_cyclic_game(0.25, (1, 2, 2), (1.0, 2.0, 1.5)), True),
        (SearchGame(t=(1.0,) * 3, alpha=(0.4,) * 3), True),
    ])
    def test_p0_test_and_solve_seed_the_same_columns(self, monkeypatch,
                                                     game, all_counters):
        # the first LP of each holds the rotation counters' columns to
        # the bit; the p0 test's holds all 3! orderings on a cyclic or a
        # tied game
        calls = []

        def captured(u, **kwargs):
            calls.append(u.copy())
            return solve_hider_lp(u, **kwargs)

        monkeypatch.setattr(solver, "solve_hider_lp", captured)
        p0_optimality(game)
        p0_seed = calls[0]
        calls.clear()
        solve(game, SolveConfig(epsilon=1e-6))
        solve_seed = calls[0]
        rotations = initial_orderings(game.n)
        tested = all_orderings(game.n) if all_counters else rotations
        assert p0_seed.shape == (game.n, len(tested))
        assert solve_seed.shape == (game.n, game.n)
        sigmas = [o.sigma for o in tested]
        for k, o in enumerate(rotations):
            column = p0_seed[:, sigmas.index(o.sigma)]
            assert solve_seed[:, k].tobytes() == column.tobytes()

    @staticmethod
    def seed_game(name: str, monkeypatch) -> SearchGame:
        if name == "stratified-n8":
            monkeypatch.syspath_prepend(
                str(Path(__file__).resolve().parents[1] / "perfbench"))
            from workloads import stratified_games

            return stratified_games(1, 8, 3)[1]
        return {
            "plain-n3": sample_game(SCHEMES["varied"], 3, per_game_seed(7, 1)),
            "cyclic": make_cyclic_game(0.25, (1, 2, 2), (1.0, 2.0, 1.5)),
            "twin": SearchGame(t=(1.0, 1.0, 2.0, 3.0),
                               alpha=(0.5, 0.5, 0.3, 0.6)),
            "p0-optimal": sample_game(SCHEMES["varied"], 3,
                                      per_game_seed(7, 0)),
        }[name]

    @pytest.mark.parametrize("name", [
        "plain-n3", "stratified-n8", "cyclic", "twin", "p0-optimal"])
    def test_seeded_solve_is_the_solve(self, monkeypatch, name):
        # the solve seeded from the p0 test returns the unseeded solve's
        # outputs to the bit: it shares the test's identity counter and,
        # where the test shifted its columns, skips its own first LP
        game = self.seed_game(name, monkeypatch)
        cfg = SolveConfig(epsilon=1e-6)
        calls = []

        def counted(u, **kwargs):
            calls.append(u.shape)
            return solve_hider_lp(u, **kwargs)

        monkeypatch.setattr(solver, "solve_hider_lp", counted)
        plain = solve(game, cfg)
        plain_calls = len(calls)
        test = p0_optimality(game)
        if name in ("plain-n3", "p0-optimal"):
            assert test.optimal is (name == "p0-optimal")
        calls.clear()
        seeded = solve(game, cfg, p0_test=test)
        shifted = name in ("plain-n3", "stratified-n8", "p0-optimal")
        assert (test._first_lp is not None) is shifted
        assert len(calls) == plain_calls - shifted
        assert seeded.sequences[0] is test.sequences[0]
        outputs = [
            (sol.L.hex(), sol.U.hex(), sol.iterations, sol.termination,
             sol.p_star, [w.hex() for w in sol.theta], sol.trace,
             [len(seq) for seq in sol.sequences])
            for sol in (plain, seeded)
        ]
        assert outputs[0] == outputs[1]

    def test_p0_test_of_another_game_refused(self):
        game = sample_game(SCHEMES["varied"], 3, per_game_seed(7, 1))
        other = sample_game(SCHEMES["varied"], 3, per_game_seed(7, 2))
        with pytest.raises(ValueError, match="another game"):
            solve(game, p0_test=p0_optimality(other))


class TestSolveInvariants:
    def games(self, count=25):
        rng_ids = range(count)
        for idx in rng_ids:
            n = 2 + idx % 2
            yield sample_game(SCHEMES["varied"], n, per_game_seed(17, idx))

    def test_value_sandwich_and_floors(self):
        for game in self.games():
            sol = solve(game, SolveConfig(epsilon=1e-4))
            lo, hi = value_bounds(game)
            assert lo <= sol.L <= sol.U <= hi
            floors = hider_floor(game)
            assert all(
                pi >= ei * FLOOR_SHRINK - 1e-12
                for pi, ei in zip(sol.p_star.p, floors.eta)
            )

    def test_upper_bounds_nonincreasing_and_cuts(self):
        mispriced = 0
        for game in self.games(15):
            sol = solve(game, SolveConfig(epsilon=1e-6))
            # U never rises beyond the growth of the worst bracket half-width
            uppers = [rec.upper for rec in sol.trace]
            for a, b in zip(uppers, uppers[1:]):
                assert b <= a * (1 + 1e-9)
            # L is the best lower bound so far, starting from u(p0)
            lowers = [best_response_value(game, p0(game))[0].lower]
            lowers += [rec.lower for rec in sol.trace]
            assert lowers == sorted(lowers)
            # p_star is the stability center, the point whose u gave L
            assert best_response_value(game, sol.p_star)[0].lower == sol.L
            # every column stored after the rotations is new and cuts off
            # (p_k, v_k), with p_k and v_k re-derived from the columns
            # stored before it; LP rounding alone can let a stored column
            # pass the cut test
            columns = [_column_values(game, seq)[0] for seq in sol.sequences]
            assert len({c.tobytes() for c in columns}) == len(columns)
            for rec in sol.trace:
                if rec.added_sequence is not None:
                    k = rec.added_sequence
                    lp = solve_hider_lp(np.column_stack(columns[:k]))
                    assert lp.p.as_array() @ columns[k] < lp.v
            # a mispriced first query lifts L by at least LAMBDA (U - L), so
            # an iteration that ends with no new column still makes progress
            for rec, before in zip(sol.trace, lowers):
                if rec.mispriced:
                    mispriced += 1
                    rise = rec.lower - before
                    slack = 1e-9 * rec.upper
                    assert rise >= _LAMBDA * (rec.upper - before) - slack
            for rec in sol.trace[:-1]:
                if rec.added_sequence is None:
                    assert rec.mispriced >= len(_QUERY_WEIGHTS)
            final = sol.trace[-1]
            assert final.gap < 1e-6
        assert mispriced > 0

    def test_searcher_guarantee_at_convergence(self):
        for game in self.games(10):
            sol = solve(game, SolveConfig(epsilon=1e-6))
            # hider guarantee: p* earns >= L against every stored column
            for seq in sol.sequences:
                br = sum(
                    pi * payoff(game, i, seq).lower
                    for i, pi in enumerate(sol.p_star.p)
                )
                assert br >= sol.L * (1 - 1e-9)
            # searcher guarantee: theta pays <= U against every box
            for i in range(game.n):
                val = sum(
                    w * payoff(game, i, seq).upper
                    for w, seq in zip(sol.theta, sol.sequences) if w > 0
                )
                assert val <= sol.U * (1 + 1e-9)
            support = sum(1 for w in sol.theta if w > 0)
            assert support <= game.n

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_mixture_certificate_matches_mixed_payoff(self, n):
        # one pass over the support's columns takes the very sums that
        # mixed_payoff takes box by box
        for i in range(3):
            game = sample_game(SCHEMES["varied"], n, per_game_seed(74, i))
            sol = solve(game, SolveConfig(epsilon=1e-6))
            assert sol.termination is Termination.CONVERGED
            mixture = list(zip(sol.theta, sol.sequences))
            boxwise = max(mixed_payoff(game, b, mixture).upper
                          for b in range(n))
            one_pass = _mixture_certificate(game, sol.theta, sol.sequences)
            assert one_pass == boxwise == sol.U

    def test_mixture_certificate_refuses_what_mixed_payoff_refuses(self):
        game = identical()
        seq = gittins_sequence(game, p0(game))
        with pytest.raises(InvalidMixture):
            _mixture_certificate(game, [0.7], [seq])
        with pytest.raises(InvalidMixture):
            _mixture_certificate(game, [-0.5, 1.5], [seq, seq])
        box_0_only = from_pattern(game, (0,))
        with pytest.raises(BoxNeverSearched):
            _mixture_certificate(game, [0.5, 0.5], [seq, box_0_only])

    def test_tighter_epsilon_nests_interval(self):
        for game in self.games(8):
            loose = solve(game, SolveConfig(epsilon=1e-3))
            tight = solve(game, SolveConfig(epsilon=1e-4))
            tol = 1e-4 * loose.L + 1e-9 * loose.U
            assert tight.L >= loose.L - tol
            assert tight.U <= loose.U + tol

    def test_trace_csv_format(self, tmp_path):
        game = sample_game(SCHEMES["varied"], 2, per_game_seed(5, 1))
        sol = solve(game, SolveConfig(epsilon=1e-6))
        path = tmp_path / "trace.csv"
        write_trace(sol, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# boxsearch-trace-v2"
        assert lines[1] == "iter,U,L,gap,added_seq,mispriced"
        assert len(lines) == 2 + len(sol.trace)
        for line, rec in zip(lines[2:], sol.trace):
            fields = line.split(",")
            assert int(fields[0]) == rec.iteration
            assert float(fields[1]) == rec.upper
            assert float(fields[2]) == rec.lower
            assert int(fields[5]) == rec.mispriced


class TestP0Optimality:
    def test_identical_boxes_optimal(self):
        for n in (2, 3, 4):
            game = SearchGame(t=(1.0,) * n, alpha=(0.4,) * n)
            res = p0_optimality(game)
            assert res.optimal
            assert res.sequences_used == math.factorial(n)

    def test_perfect_box_thresholds(self):
        high = SearchGame(t=(1.0, 1.0), alpha=(0.7, 1.0), allow_perfect=True)
        assert p0_optimality(high).optimal
        low = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        assert not p0_optimality(low).optimal

    def test_mixture_is_optimal_when_p0_is(self):
        game = identical(0.4)
        res = p0_optimality(game)
        assert res.optimal
        # the recovered mixture equalizes the boxes at the game value
        for i in range(game.n):
            val = sum(
                w * payoff(game, i, seq).midpoint
                for w, seq in zip(res.theta, res.sequences) if w > 0
            )
            assert val == pytest.approx(res.v_D, rel=1e-9)

    def test_agrees_with_solver(self):
        for idx in range(20):
            game = sample_game(SCHEMES["varied"], 2, per_game_seed(23, idx))
            res = p0_optimality(game)
            sol = solve(game, SolveConfig(epsilon=1e-7))
            u_p0 = res.u_p0.midpoint
            if res.optimal:
                assert abs(sol.U - u_p0) <= 1e-6 * sol.U
            else:
                assert sol.L > u_p0 * (1 - 1e-7)
                assert res.v_D >= sol.U * (1 - 1e-9)


class TestP0ColumnGeneration:
    """The column-generation p0 test against the n! counters it prices."""

    def test_agrees_with_all_counters(self):
        games = [
            sample_game(SCHEMES["varied"], 2 + idx % 4, per_game_seed(29, idx))
            for idx in range(20)
        ]
        games += [_ruckle_game(a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for game in games:
            fast = p0_optimality(game)
            full = p0_test_exhaustive(game)
            assert fast.optimal == full.optimal
            assert abs(fast.v_D - full.v_D) <= 1e-12 * full.v_D

    def test_smith_order_prices_every_counter(self):
        # real counters, not the shared-tail model: the ordering Smith's
        # rule picks for weights p_i alpha_i attains the cheapest column
        game = sample_game(SCHEMES["varied"], 4, per_game_seed(37, 0))
        orderings = all_orderings(game.n)
        counters = _p0_counters(game, orderings)
        u = np.column_stack([_column_values(game, seq)[0] for seq in counters])
        assert not any(seq.tied for seq in counters)
        rng = np.random.default_rng(5)
        draws = [rng.dirichlet(np.ones(game.n)) for _ in range(10)]
        draws.append(np.array([0.5, 0.0, 0.3, 0.2]))
        alpha = np.asarray(game.alpha)
        for p in draws:
            sigma = _smith_order(game, p * alpha)
            column = [o.sigma for o in orderings].index(sigma)
            prices = p @ u
            assert prices[column] <= prices.min() * (1 + 1e-12)

    def test_identical_boxes_tie_and_fall_back(self):
        game = SearchGame(t=(1.0,) * 3, alpha=(0.4,) * 3)
        reference = gittins_sequence(game, p0(game), TieOrdering.identity(3))
        reference.ensure_length(20)
        assert reference.tied
        assert p0_optimality(game).sequences_used == 6
        plain = sample_game(SCHEMES["varied"], 3, per_game_seed(37, 1))
        untied = gittins_sequence(plain, p0(plain), TieOrdering.identity(3))
        untied.ensure_length(200)
        assert not untied.tied

    def test_eight_boxes(self):
        game = sample_game(SCHEMES["varied"], 8, per_game_seed(41, 0))
        res = p0_optimality(game)  # recovers the mixture with its checks
        assert res.sequences_used < math.factorial(8)
        assert res.u_p0.lower <= res.v_D * (1 + 1e-9)
        assert sum(1 for w in res.theta if w > 0) <= game.n
        # the mixture over the real counters holds every box to v_D
        for i in range(game.n):
            val = sum(
                w * payoff(game, i, seq).upper
                for w, seq in zip(res.theta, res.sequences) if w > 0
            )
            assert val <= res.v_D * (1 + 1e-9)

    def test_tied_game_evaluates_each_counter_once(self, monkeypatch):
        # the tied identity counter goes straight to the n! LP as its
        # first column: 4! = 24 columns evaluated, none of them discarded
        game = SearchGame(t=(1.0, 1.0, 2.0, 3.0), alpha=(0.5, 0.5, 0.3, 0.6))
        full = p0_test_exhaustive(game)
        evaluated = []
        column_uncached = payoff_module._column_uncached

        def counted(game, xi):
            evaluated.append(xi)
            return column_uncached(game, xi)

        monkeypatch.setattr(payoff_module, "_column_uncached", counted)
        res = p0_optimality(game)
        assert len(evaluated) == res.sequences_used == 24
        assert ((res.optimal, res.v_D.hex(), res.u_p0, res.theta)
                == (full.optimal, full.v_D.hex(), full.u_p0, full.theta))

    def test_cyclic_game_takes_all_counters(self):
        game = make_cyclic_game(0.3, (1, 2, 3, 1), (1.0, 2.0, 3.0, 1.5))
        res = p0_optimality(game)
        assert res.sequences_used == math.factorial(4)
        full = p0_test_exhaustive(game)
        assert ((res.optimal, res.v_D.hex(), res.u_p0.lower.hex(),
                 res.u_p0.upper.hex())
                == (full.optimal, full.v_D.hex(), full.u_p0.lower.hex(),
                    full.u_p0.upper.hex()))
