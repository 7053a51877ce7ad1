"""Value bounds, search-count thresholds, and hider floors."""

import numpy as np
import pytest

from boxsearch import SCHEMES, SearchGame, p0, sample_game, value_bounds
from floors import (
    FLOOR_SHRINK,
    FloorUnderflow,
    PerfectDetectionUnsupported,
    hider_floor,
)


class TestValueBounds:
    def test_hand_example(self):
        # t/alpha = (2, 8)
        game = SearchGame(t=(1.0, 2.0), alpha=(0.5, 0.25))
        assert value_bounds(game) == (8.0, 10.0)

    def test_identical_boxes(self):
        assert value_bounds(SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))) == (2.0, 4.0)

    def test_single_box_collapses(self):
        lo, hi = value_bounds(SearchGame(t=(3.0,), alpha=(0.6,)))
        assert lo == hi == 5.0


class TestHiderFloor:
    def test_identical_boxes_by_hand(self):
        floors = hider_floor(SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5)))
        assert floors.M == 4.0
        assert floors.m == (5, 5)
        np.testing.assert_allclose(floors.c, (32.0, 32.0), rtol=1e-12)
        np.testing.assert_allclose(floors.eta, (1 / 17, 1 / 17), rtol=1e-12)
        np.testing.assert_allclose(
            floors.delta, (0.99 / 17, 0.99 / 17), rtol=1e-12
        )

    def test_single_box_empty_sum(self):
        floors = hider_floor(SearchGame(t=(2.0,), alpha=(0.5,)))
        assert floors.c == (0.0,)
        assert floors.eta == (1.0,)
        assert floors.delta == (0.99,)

    def test_search_count_thresholds(self):
        floors = hider_floor(SearchGame(t=(1.0, 2.0), alpha=(0.5, 0.25)))
        assert floors.M == 10.0
        assert floors.m == (11, 6)

    def test_thresholds_always_exceed_m(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            game = sample_game(SCHEMES["varied"], int(rng.integers(1, 9)), rng)
            floors = hider_floor(game)
            assert all(
                mi * ti > floors.M for mi, ti in zip(floors.m, game.t)
            )

    def test_eta_monotone_in_weight(self):
        # raising t_0/alpha_0 with the other boxes' c-terms unchanged
        # cannot lower eta_0; the t_0 steps here stay below the next
        # m_1 threshold (a threshold jump raises c_0 discontinuously)
        prev = 0.0
        for t0 in (1.0, 1.05, 1.1, 1.15):
            floors = hider_floor(SearchGame(t=(t0, 2.0), alpha=(0.5, 0.4)))
            assert floors.m[1] == 4
            assert floors.eta[0] >= prev - 1e-15
            prev = floors.eta[0]

    def test_heuristic_lies_inside_floors(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            game = sample_game(SCHEMES["varied"], int(rng.integers(2, 9)), rng)
            floors = hider_floor(game)
            strat = p0(game)
            assert all(pi >= di for pi, di in zip(strat.p, floors.delta))
            assert all(
                pi >= ei * FLOOR_SHRINK
                for pi, ei in zip(strat.p, floors.eta)
            )

    def test_perfect_detection_rejected(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        with pytest.raises(PerfectDetectionUnsupported):
            hider_floor(game)

    def test_underflow_diagnostic(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(1e-7, 1 - 1e-7))
        with pytest.raises(FloorUnderflow):
            hider_floor(game)
