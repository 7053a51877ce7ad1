"""Game construction, validation, heuristics, and instance sampling."""

import math

import numpy as np
import pytest

from boxsearch import (
    SCHEMES,
    CyclicStructure,
    SearchGame,
    HidingStrategy,
    future_benefit,
    make_cyclic_game,
    p0,
    sample_game,
    validate_game,
)
from boxsearch.errors import (
    BaseOutOfRange,
    CyclicInconsistent,
    EmptyGame,
    InvalidHidingStrategy,
    NonPositiveTime,
    NotCoprime,
    ProbabilityOutOfRange,
)
from boxsearch.model import per_game_seed, scheme_by_name


class TestValidateGame:
    def test_well_formed(self):
        game = validate_game({"t": [1, 1], "alpha": [0.5, 0.5]})
        assert game.n == 2
        assert game.cyclic is None

    def test_negative_time(self):
        with pytest.raises(NonPositiveTime):
            validate_game({"t": [1, -2], "alpha": [0.5, 0.5]})

    def test_declared_cyclic_structure(self):
        # (1-0.75)^1 = (1-0.5)^2 = 0.25
        game = validate_game({
            "t": [1, 1], "alpha": [0.75, 0.5],
            "cyclic": {"c": 0.25, "x": [1, 2]},
        })
        assert game.cyclic == CyclicStructure(x=(1, 2), c=0.25)
        assert game.cyclic.x_hat == 3

    def test_inconsistent_cyclic_declaration(self):
        with pytest.raises(CyclicInconsistent):
            validate_game({
                "t": [1, 1], "alpha": [0.7, 0.5],
                "cyclic": {"c": 0.25, "x": [1, 2]},
            })

    def test_empty_game(self):
        with pytest.raises(EmptyGame):
            validate_game({"t": [], "alpha": []})

    def test_probability_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            validate_game({"t": [1], "alpha": [0.0]})
        with pytest.raises(ProbabilityOutOfRange):
            validate_game({"t": [1], "alpha": [1.2]})

    def test_alpha_rounding_one_minus_to_one(self):
        # 1 - 1e-17 == 1.0: the box's index would never decay
        with pytest.raises(ProbabilityOutOfRange):
            validate_game({"t": [1, 1], "alpha": [1e-17, 0.5]})
        validate_game({"t": [1, 1], "alpha": [1e-15, 0.5]})

    def test_perfect_detection_needs_flag(self):
        with pytest.raises(ProbabilityOutOfRange):
            validate_game({"t": [1, 1], "alpha": [0.5, 1.0]})
        game = validate_game(
            {"t": [1, 1], "alpha": [0.5, 1.0], "allow_perfect": True}
        )
        assert game.has_perfect_box()

    def test_json_roundtrip(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        again = validate_game(game.to_jsonable())
        assert again == game


class TestP0:
    def test_symmetric(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))
        assert p0(game).p == (0.5, 0.5)

    def test_direct_formula(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True)
        np.testing.assert_allclose(p0(game).p, (2 / 3, 1 / 3), rtol=1e-14)

    def test_hand_normalized(self):
        # t/alpha = (4/3, 2), normalized
        game = SearchGame(t=(1.0, 1.0), alpha=(0.75, 0.5))
        np.testing.assert_allclose(p0(game).p, (0.4, 0.6), rtol=1e-14)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            game = sample_game(SCHEMES["varied"], n, rng)
            strat = p0(game)
            assert abs(math.fsum(strat.p) - 1.0) <= 1e-12
            assert all(pi > 0 for pi in strat.p)

    def test_equalizes_initial_indices(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            game = sample_game(SCHEMES["varied"], int(rng.integers(2, 9)), rng)
            strat = p0(game)
            idx = [
                pi * ai / ti
                for pi, ai, ti in zip(strat.p, game.alpha, game.t)
            ]
            assert max(idx) - min(idx) <= 1e-12 * max(idx)


class TestBenefits:
    @pytest.mark.parametrize("alpha,t,expect", [
        (0.5, 1.0, math.log(2)),
        (0.75, 1.0, math.log(4)),
        (0.5, 2.0, math.log(2) / 2),
    ])
    def test_future_benefit(self, alpha, t, expect):
        game = SearchGame(t=(t,), alpha=(alpha,))
        assert future_benefit(game, 0) == pytest.approx(expect, rel=1e-12)

    def test_future_benefit_perfect_box(self):
        game = SearchGame(t=(1.0,), alpha=(1.0,), allow_perfect=True)
        assert future_benefit(game, 0) == math.inf


class TestSampleGame:
    def test_table_ranges(self):
        assert SCHEMES["varied"].alpha_low == 0.1
        assert SCHEMES["varied"].alpha_high == 0.9
        assert SCHEMES["low"].alpha_low == 0.1
        assert SCHEMES["low"].alpha_high == 0.5
        assert SCHEMES["medium"].alpha_low == 0.3
        assert SCHEMES["medium"].alpha_high == 0.7
        assert SCHEMES["high"].alpha_low == 0.5
        assert SCHEMES["high"].alpha_high == 0.9
        assert all(s.t_low == 1.0 and s.t_high == 5.0 for s in SCHEMES.values())

    def test_range_containment(self):
        game = sample_game(SCHEMES["low"], 2, 123)
        assert all(0.1 <= a <= 0.5 for a in game.alpha)
        assert all(1.0 <= t <= 5.0 for t in game.t)
        game = sample_game(SCHEMES["high"], 5, 456)
        assert all(0.5 <= a <= 0.9 for a in game.alpha)

    def test_determinism(self):
        a = sample_game(SCHEMES["varied"], 4, 987)
        b = sample_game(SCHEMES["varied"], 4, 987)
        assert a == b

    def test_per_game_streams_order_independent(self):
        direct = [
            sample_game(SCHEMES["varied"], 2, per_game_seed(5, i))
            for i in range(4)
        ]
        shuffled = {
            i: sample_game(SCHEMES["varied"], 2, per_game_seed(5, i))
            for i in (2, 0, 3, 1)
        }
        for i, game in enumerate(direct):
            assert shuffled[i] == game

    def test_unknown_scheme(self):
        with pytest.raises(ProbabilityOutOfRange):
            scheme_by_name("extreme")


class TestMakeCyclicGame:
    def test_two_box(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        assert game.alpha == (0.75, 0.5)
        assert game.cyclic == CyclicStructure(x=(1, 2), c=0.25)
        assert game.cyclic.x_hat == 3

    def test_single_box(self):
        game = make_cyclic_game(0.5, (1,), (2.0,))
        assert game.alpha == (0.5,)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            make_cyclic_game(0.25, (2, 4), (1.0, 1.0))

    @pytest.mark.parametrize("c", [0.0, 1.0, 1.5, -0.1])
    def test_base_out_of_range(self, c):
        with pytest.raises(BaseOutOfRange):
            make_cyclic_game(c, (1, 2), (1.0, 1.0))

    def test_always_validates(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            x = [int(v) for v in rng.integers(1, 5, size=n)]
            x[int(rng.integers(0, n))] = 1  # force gcd 1
            c = float(rng.uniform(0.05, 0.95))
            t = [float(v) for v in rng.uniform(1, 5, size=n)]
            game = make_cyclic_game(c, x, t)
            assert validate_game(game.to_jsonable()) == game


class TestHidingStrategy:
    def test_rejects_bad_vectors(self):
        with pytest.raises(InvalidHidingStrategy):
            HidingStrategy((0.5, 0.4))
        with pytest.raises(InvalidHidingStrategy):
            HidingStrategy((1.5, -0.5))
        with pytest.raises(InvalidHidingStrategy):
            HidingStrategy(())
        with pytest.raises(InvalidHidingStrategy):
            HidingStrategy((math.nan, math.nan))

    @pytest.mark.parametrize("p", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
        (math.nan, math.inf, -math.inf), (1.5, -0.5), (-math.inf, 1.0),
        (math.inf, 0.0), (), (0.5, 0.5 + 1e-11), (0.5, 0.5 - 1e-11),
    ])
    def test_refusals(self, p):
        with pytest.raises(InvalidHidingStrategy):
            HidingStrategy(p)

    def test_sum_within_tolerance_accepted(self):
        assert HidingStrategy((0.5, 0.5 + 1e-13)).n == 2

    def test_support(self):
        assert HidingStrategy((0.5, 0.5)).full_support
        assert not HidingStrategy((1.0, 0.0)).full_support
