"""The hider LP as a plain matrix game, its warm start from a previous
optimal tableau, searcher-mixture recovery, and the floored LP the Kelley
oracle keeps as its reference."""

from dataclasses import replace

import numpy as np
import pytest

import boxsearch.lp
import boxsearch.solver
from boxsearch import SCHEMES, SolveConfig, sample_game, solve
from boxsearch.errors import DualInconsistent, Infeasible, NumericalFailure
from boxsearch.lp import (
    DUAL_REL_TOL,
    _appended_tableau,
    _numpy_sum,
    _simplex_game,
    _start_tableau,
    _vertex_theta,
    recover_searcher_mixture,
    solve_hider_lp,
)
from boxsearch.model import per_game_seed
from kelley_oracle import floored_lp
from tableau_oracle import pivot_tableau, simplex_game


def matrix(rows) -> np.ndarray:
    return np.asarray(rows, dtype=float)


class TestSolveHiderLp:
    def test_symmetric_two_by_two(self):
        sol = solve_hider_lp(matrix([[3, 4], [4, 3]]))
        np.testing.assert_allclose(sol.p.p, (0.5, 0.5), atol=1e-12)
        assert sol.v == pytest.approx(3.5, rel=1e-12)

    def test_single_column(self):
        # the hider hides where the one sequence takes longest
        sol = solve_hider_lp(matrix([[3], [4]]))
        np.testing.assert_allclose(sol.p.p, (0.0, 1.0), atol=1e-12)
        assert sol.v == pytest.approx(4.0, rel=1e-12)

    def test_constant_matrix(self):
        sol = solve_hider_lp(matrix([[2, 2], [2, 2]]))
        assert sol.v == pytest.approx(2.0, rel=1e-12)
        rerun = solve_hider_lp(matrix([[2, 2], [2, 2]]))
        assert rerun.p.p == sol.p.p  # bit-stable

    def test_unusable_shape_rejected(self):
        with pytest.raises(Infeasible):
            solve_hider_lp(np.array([3.0, 4.0]))
        with pytest.raises(Infeasible):
            solve_hider_lp(np.empty((2, 0)))

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(NumericalFailure):
            solve_hider_lp(np.array([[1.0, -2.0], [3.0, 4.0]]))

    def test_value_is_worst_column(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 12))
            u = rng.uniform(1.0, 50.0, size=(n, m))
            sol = solve_hider_lp(u)
            col_vals = np.asarray(sol.p.p) @ u
            assert sol.v == pytest.approx(col_vals.min(), rel=1e-9)

    def test_strong_duality_residual(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 12))
            u = rng.uniform(1.0, 50.0, size=(n, m))
            sol = solve_hider_lp(u)
            primal = (np.asarray(sol.p.p) @ u).min()
            dual = (u @ sol.theta).max()
            assert abs(primal - dual) <= 1e-9 * max(1.0, abs(sol.v))

    def test_scale_equivariance(self):
        u = np.array([[3.0, 7.0, 4.0], [6.0, 2.0, 5.0]])
        base = solve_hider_lp(u)
        for s in (0.25, 4.0, 1000.0):
            scaled = solve_hider_lp(s * u)
            assert scaled.v == pytest.approx(s * base.v, rel=1e-12)
            np.testing.assert_allclose(scaled.p.p, base.p.p, atol=1e-12)

    def test_column_monotonicity(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            cols = [rng.uniform(1.0, 30.0, size=n)]
            prev = solve_hider_lp(np.column_stack(cols)).v
            for _ in range(6):
                cols.append(rng.uniform(1.0, 30.0, size=n))
                v = solve_hider_lp(np.column_stack(cols)).v
                assert v <= prev * (1 + 1e-12)
                prev = v

    def test_determinism(self):
        rng = np.random.default_rng(64)
        u = rng.uniform(1.0, 20.0, size=(4, 9))
        a = solve_hider_lp(u)
        b = solve_hider_lp(u)
        assert a.p.p == b.p.p
        assert a.v == b.v
        assert np.array_equal(a.theta, b.theta)


def solve_lp_calls(game, epsilon=1e-6):
    """The (u, warm, solution) triples of every LP call in a solve of
    game."""
    calls = []

    def recording(u, warm=None):
        sol = solve_hider_lp(u, warm=warm)
        calls.append((u, warm, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxsearch.solver, "solve_hider_lp", recording)
        solve(game, SolveConfig(epsilon=epsilon))
    return calls


def highs_value(u: np.ndarray) -> float:
    """The game value from HiGHS's dual simplex on max 1'y s.t. u y <= 1."""
    from scipy.optimize import linprog

    res = linprog(-np.ones(u.shape[1]), A_ub=u, b_ub=np.ones(u.shape[0]),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return -1.0 / res.fun


def assert_same_vertex(u, bland):
    """A cold pass of _simplex_game and the tableau oracle return the
    same vertex and tableau, or refuse alike, bit for bit."""
    n, m = u.shape
    slack = range(m, m + n)
    found = []
    for simplex in (
        lambda: _simplex_game(_start_tableau(u), list(slack), bland),
        lambda: simplex_game(u, slack, bland),
    ):
        try:
            found.append(simplex())
        except NumericalFailure as exc:
            found.append(str(exc))
    a, b = found
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(_vertex_theta(a.tableau, a.basis, a.value),
                              b.theta)
        assert (a.value, a.basis, a.pivots) == (b.value, b.basis, b.pivots)
        assert np.array_equal(a.tableau, b.tableau)


def assert_appended_matches_refactor(u, warm):
    """The pass from warm's tableau extended by u's new columns reaches
    the basis the oracle reaches by refactoring warm's renumbered basis,
    in as many pivots, with v within 1e-12 relative and p within 1e-10."""
    old, m = warm.columns, u.shape[1]
    start = [k if k < old else k + m - old for k in warm.basis]
    a = _simplex_game(_appended_tableau(warm._tableau, u[:, old:]),
                      list(start), False)
    b = simplex_game(u, start, False)
    assert (a.basis, a.pivots) == (b.basis, b.pivots)
    assert abs(a.value - b.value) <= 1e-12 * b.value
    np.testing.assert_allclose(a.w, b.w, rtol=0.0, atol=1e-10)


class TestWarmStart:
    """Each solve extends the previous optimal tableau by the appended
    columns."""

    @pytest.fixture(scope="class")
    def replays(self):
        # the LP calls of three n = 8 solves, each warm started from the last
        games = [sample_game(SCHEMES["varied"], 8, per_game_seed(3, i))
                 for i in range(3)]
        return [solve_lp_calls(game) for game in games]

    def test_warm_matches_cold(self, replays):
        for calls in replays:
            assert all(warm is not None for _, warm, _ in calls[1:])
            for u, warm, hot in calls:
                cold = solve_hider_lp(u)
                assert abs(hot.v - cold.v) <= DUAL_REL_TOL * max(1.0, cold.v)
                recover_searcher_mixture(u, hot)
                # a box whose slack is basic has a zero dual price, exactly
                m = u.shape[1]
                assert all(hot.p.p[k - m] == 0.0 for k in hot.basis if k >= m)

    def test_warm_matches_highs(self, replays):
        pytest.importorskip("scipy")
        for calls in replays:
            for u, _, hot in calls:
                ref = highs_value(u)
                assert abs(hot.v - ref) <= 1e-9 * ref

    def test_vertices_match_the_tableau_oracle(self, replays):
        # every LP of the replays cold and by Bland's rule: the same
        # vertex, or the same refusal, bit for bit; from its warm start,
        # the oracle's refactored vertex up to rounding
        for calls in replays:
            for u, warm, _ in calls:
                assert_same_vertex(u, False)
                assert_same_vertex(u, True)
                if warm is not None:
                    assert_appended_matches_refactor(u, warm)

    def test_warm_vertices_match_the_tableau_oracle(self, replays):
        # every warm pass of the replays, from the same appended tableau:
        # the oracle's NumPy ratio test reaches the same vertex bit for bit
        for calls in replays:
            for u, warm, _ in calls[1:]:
                old, m = warm.columns, u.shape[1]
                start = [k if k < old else k + m - old for k in warm.basis]
                a, b = (
                    simplex(_appended_tableau(warm._tableau, u[:, old:]),
                            list(start), False)
                    for simplex in (_simplex_game, pivot_tableau)
                )
                assert np.array_equal(a.w, b.w)
                assert np.array_equal(
                    _vertex_theta(a.tableau, a.basis, a.value), b.theta)
                assert (a.value, a.basis, a.pivots) == (
                    b.value, b.basis, b.pivots)
                assert np.array_equal(a.tableau, b.tableau)

    @pytest.mark.parametrize("bland", [False, True])
    def test_tied_ratio_test_matches_the_tableau_oracle(self, bland):
        # integer payoffs tie the ratio test, and among the tied rows the
        # one with the lowest basic variable is not the first row
        u = matrix([[1, 3, 1], [2, 3, 1], [1, 3, 1]])
        assert_same_vertex(u, bland)

    def test_warm_start_saves_pivots(self, replays):
        warm = [hot.pivots for calls in replays for _, _, hot in calls[1:]]
        cold = [solve_hider_lp(u).pivots
                for calls in replays for u, _, _ in calls[1:]]
        assert np.mean(warm) <= 4
        assert np.mean(cold) >= 20

    def test_appended_columns_renumber_slacks(self):
        u = matrix([[3, 5], [4, 2]])
        first = solve_hider_lp(u[:, :1])
        # row 0's slack is basic, numbered after the one column
        assert first.basis == (1, 0)
        # appending column 1 moves that slack to 2; one pivot from there
        hot = solve_hider_lp(u, warm=first)
        cold = solve_hider_lp(u)
        assert hot.v == pytest.approx(cold.v, rel=1e-12)
        np.testing.assert_allclose(hot.p.p, (0.5, 0.5), atol=1e-12)
        assert (hot.pivots, cold.pivots) == (1, 2)

    def test_tableau_is_left_out_of_eq_and_repr(self):
        u = matrix([[3, 5], [4, 2]])
        a = solve_hider_lp(u)
        b = replace(a, _tableau=np.zeros(1))
        assert a == b
        assert repr(a) == repr(b) and "tableau" not in repr(a)

    @pytest.mark.parametrize("start, failure", [
        ("singular", "unbounded pivot in a positive game"),
        ("infeasible", "nonpositive game objective"),
    ], ids=["singular", "infeasible"])
    def test_unusable_start_falls_back_to_cold(self, monkeypatch, start,
                                               failure):
        # the appended pass from an unusable warm tableau raises, and the
        # call solves cold
        failures = []

        def spying(T, basis, bland):
            try:
                return _simplex_game(T, basis, bland)
            except NumericalFailure as exc:
                failures.append(str(exc))
                raise

        u = matrix([[3, 5], [4, 2]])
        first = solve_hider_lp(u[:, :1])
        T = first._tableau.copy()
        n = T.shape[0] - 1
        m = T.shape[1] - n - 1
        if start == "singular":
            # a zero B^-1 gives the appended column no body to pivot on
            T[1:, m : m + n] = 0.0
        else:
            # negated basic values end the pass at a negative objective
            T[:, -1] *= -1.0
        monkeypatch.setattr(boxsearch.lp, "_simplex_game", spying)
        hot = solve_hider_lp(u, warm=replace(first, _tableau=T))
        monkeypatch.undo()
        cold = solve_hider_lp(u)
        assert failures == [failure]
        assert hot.p.p == cold.p.p
        assert (hot.v, hot.basis, hot.pivots) == (cold.v, cold.basis, cold.pivots)
        assert np.array_equal(hot.theta, cold.theta)
        assert np.array_equal(hot._tableau, cold._tableau)

    def test_warm_start_for_other_rows_refused(self):
        warm = solve_hider_lp(matrix([[3], [4]]))
        with pytest.raises(ValueError, match="does not begin"):
            solve_hider_lp(matrix([[3, 5], [4, 2], [1, 6]]), warm=warm)

    def test_warm_start_with_more_columns_refused(self):
        u = matrix([[3, 5], [4, 2]])
        warm = solve_hider_lp(u)
        with pytest.raises(ValueError, match="does not begin"):
            solve_hider_lp(u[:, :1], warm=warm)

    def test_long_chain_stays_within_cold(self, replays):
        # at epsilon 1e-9 an n = 8 solve makes more LP calls than any
        # replay, each extending the tableau the last one left: the
        # carried rounding keeps every value within DUAL_REL_TOL of a cold
        # solve, and the final searcher mixture still checks against u
        game = sample_game(SCHEMES["varied"], 8, per_game_seed(3, 2))
        calls = solve_lp_calls(game, epsilon=1e-9)
        assert len(calls) > max(len(replay) for replay in replays)
        for u, _, hot in calls:
            cold = solve_hider_lp(u)
            assert abs(hot.v - cold.v) <= DUAL_REL_TOL * max(1.0, cold.v)
        u, _, last = calls[-1]
        recover_searcher_mixture(u, last)


class TestNumpySum:
    def test_numpy_sum_order(self):
        # the dual prices are summed in Python floats in NumPy's order:
        # below 8 terms in turn, from 8 in eight lanes, past 128 by NumPy
        rng = np.random.default_rng(66)
        for n in range(1, 140):
            for _ in range(20):
                a = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
                assert _numpy_sum(a.tolist()) == float(a.sum())


class TestDerivedTheta:
    def test_a_solve_derives_theta_once(self, monkeypatch):
        # only the final LP's mixture is read, so it alone is derived, and
        # once: later reads return the kept array
        derived = []
        mixture = boxsearch.lp._searcher_mixture

        def counted(solution):
            derived.append(solution)
            return mixture(solution)

        monkeypatch.setattr(boxsearch.lp, "_searcher_mixture", counted)
        game = sample_game(SCHEMES["varied"], 3, per_game_seed(7, 1))
        calls = solve_lp_calls(game)
        assert len(calls) > 1
        final = calls[-1][2]
        assert derived == [final]
        assert final.theta is final.theta and derived == [final]

    def test_given_theta_is_kept(self):
        sol = solve_hider_lp(matrix([[3, 4], [4, 3]]))
        theta = np.array([1.0, 0.0])
        assert replace(sol, theta=theta).theta is theta
        # replace reads the derived theta and passes it on
        assert replace(sol, pivots=0).theta is sol.theta


class TestRecoverSearcherMixture:
    def test_symmetric_mixture(self):
        U = matrix([[3, 4], [4, 3]])
        sol = solve_hider_lp(U)
        theta = recover_searcher_mixture(U, sol)
        np.testing.assert_allclose(theta, (0.5, 0.5), atol=1e-12)

    def test_dominated_column_unused(self):
        # column 1 pays strictly more in every row: useless to the searcher
        U = matrix([[3, 5], [4, 6]])
        sol = solve_hider_lp(U)
        theta = recover_searcher_mixture(U, sol)
        assert theta[1] == 0.0

    def test_single_column(self):
        U = matrix([[3], [4]])
        sol = solve_hider_lp(U)
        theta = recover_searcher_mixture(U, sol)
        np.testing.assert_allclose(theta, (1.0,), atol=1e-15)

    def test_support_bounded_by_boxes(self):
        rng = np.random.default_rng(65)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 15))
            u = rng.uniform(1.0, 40.0, size=(n, m))
            sol = solve_hider_lp(u)
            theta = recover_searcher_mixture(u, sol)
            assert int(np.count_nonzero(theta)) <= n

    def test_equalization_without_binding(self):
        # no bound p_i >= 0 binds: the mixture pays exactly v against
        # every box
        U = matrix([[3, 4], [4, 3]])
        sol = solve_hider_lp(U)
        rows = U @ sol.theta
        assert np.all(np.abs(rows - sol.v) <= 1e-9 * sol.v)

    def test_tampered_solution_rejected(self):
        U = matrix([[3, 4], [4, 3]])
        sol = solve_hider_lp(U)
        bad = replace(sol, theta=np.array([1.0, 0.0]))
        with pytest.raises(DualInconsistent):
            recover_searcher_mixture(U, bad)


class TestFlooredLp:
    """The floored LP p >= delta of the Kelley oracle."""

    def test_single_column_floors_bind(self):
        sol = floored_lp(matrix([[3], [4]]), np.array([0.05, 0.05]))
        np.testing.assert_allclose(sol.p.p, (0.05, 0.95), atol=1e-12)
        assert sol.v == pytest.approx(3.95, rel=1e-12)
        assert sol.binding

    def test_no_floor_binds_on_symmetric_game(self):
        sol = floored_lp(matrix([[3, 4], [4, 3]]), np.array([0.05, 0.05]))
        np.testing.assert_allclose(sol.p.p, (0.5, 0.5), atol=1e-12)
        assert sol.v == pytest.approx(3.5, rel=1e-12)
        assert not sol.binding

    def test_value_is_worst_column(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 12))
            u = rng.uniform(1.0, 50.0, size=(n, m))
            delta = rng.uniform(0.0, 0.8 / n, size=n)
            sol = floored_lp(u, delta)
            col_vals = np.asarray(sol.p.p) @ u
            assert sol.v == pytest.approx(col_vals.min(), rel=1e-9)
            assert all(
                pi >= di - 1e-12 for pi, di in zip(sol.p.p, delta)
            )
