"""Sequence generation, tie-breaking, orderings, and cycle detection."""

import itertools
import math

import numpy as np
import pytest

from boxsearch import (
    SCHEMES,
    HidingStrategy,
    SearchGame,
    all_orderings,
    gittins_sequence,
    initial_orderings,
    make_cyclic_game,
    p0,
    sample_game,
)
from boxsearch.errors import CapExceeded, InsufficientPrefix, NumericalFailure
import boxsearch.gittins as gittins_module
from boxsearch.gittins import (
    _MAX_WIDTH,
    SearchSequence,
    TieOrdering,
    _GittinsDriver,
    _integer_rule_pattern,
    _PatternDriver,
    from_pattern,
)
from boxsearch.payoff import _first_depths, payoff_column, tail_params
from boxsearch.solver import _column_values
from gittins_oracle import (
    OraclePattern,
    OracleSequence,
    gittins_index,
    integer_rule_greedy,
    replay_check,
)


class TestGittinsIndex:
    def test_direct_products(self):
        assert gittins_index(0.5, 0.5, 1.0, 0) == 0.25
        assert gittins_index(0.5, 0.5, 1.0, 2) == 0.0625
        assert gittins_index(0.0, 0.3, 2.0, 5) == 0.0


class TestOrderings:
    def test_rotations(self):
        assert [o.sigma for o in initial_orderings(3)] == [
            (0, 1, 2), (1, 2, 0), (2, 0, 1)
        ]
        assert [o.sigma for o in initial_orderings(1)] == [(0,)]
        assert [o.sigma for o in initial_orderings(2)] == [(0, 1), (1, 0)]

    def test_all_orderings_counts(self):
        assert len(all_orderings(2)) == 2
        assert len(all_orderings(3)) == 6

    def test_cap(self):
        with pytest.raises(CapExceeded):
            all_orderings(9)

    def test_ordering_must_be_permutation(self):
        with pytest.raises(Exception):
            TieOrdering((0, 0, 1))


class TestGittinsSequence:
    def test_symmetric_tie_toward_sigma(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))
        seq = gittins_sequence(
            game, HidingStrategy((0.5, 0.5)), TieOrdering((1, 0))
        )
        assert seq.prefix(4) == (1, 0, 1, 0)

    def test_p0_counters_follow_sigma(self):
        # the first n searches of a sigma counter to p0 are sigma itself,
        # so the n! counters of the p0 test are pairwise distinct
        games = [
            SearchGame(t=(1.0, 2.0, 3.0), alpha=(0.3, 0.5, 0.7)),
            make_cyclic_game(0.4, (1, 2, 3), (3.0, 1.0, 2.0)),
            SearchGame(t=(1.0, 1.0, 2.0), alpha=(0.5, 1.0, 0.4),
                       allow_perfect=True),
        ]
        for game in games:
            start = p0(game)
            for sigma in all_orderings(game.n):
                seq = gittins_sequence(game, start, sigma)
                assert seq.prefix(game.n) == sigma.sigma

    def test_hand_traced_asymmetric(self):
        # indices: 0.3,0.3 tie -> box0; 0.075 vs 0.3 -> box1; 0.075 vs
        # 0.15 -> box1; 0.075,0.075 tie -> box0; cycle (0,1,1)
        game = SearchGame(t=(1.0, 1.0), alpha=(0.75, 0.5))
        seq = gittins_sequence(game, p0(game), TieOrdering((0, 1)))
        assert seq.prefix(6) == (0, 1, 1, 0, 1, 1)

    def test_zero_mass_box_never_searched(self):
        game = SearchGame(t=(1.0, 1.0), alpha=(0.5, 0.5))
        seq = gittins_sequence(game, HidingStrategy((1.0, 0.0)))
        assert seq.prefix(5) == (0, 0, 0, 0, 0)
        assert not seq.can_visit_more(1)

    def test_replay_on_sampled_games(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            game = sample_game(SCHEMES["varied"], n, rng)
            raw = rng.uniform(0.05, 1.0, size=n)
            p = HidingStrategy(tuple(raw / raw.sum()))
            seq = gittins_sequence(game, p)
            assert replay_check(game, p, seq, length=120)

    def test_every_box_in_every_window(self):
        # against full support, each window of n*l searches hits every box
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            game = sample_game(SCHEMES["varied"], n, rng)
            p = p0(game)
            window = n * tail_params(game).l
            seq = gittins_sequence(game, p)
            boxes = seq.prefix(6 * window)
            for start in range(len(boxes) - window + 1):
                assert set(boxes[start : start + window]) == set(range(n))

    def test_rotation_relabels_symmetric_game(self):
        game = SearchGame(t=(1.0,) * 3, alpha=(0.4,) * 3)
        p = p0(game)
        base = gittins_sequence(game, p, TieOrdering((0, 1, 2)))
        for shift in (1, 2):
            sigma = tuple((i + shift) % 3 for i in range(3))
            rotated = gittins_sequence(game, p, TieOrdering(sigma))
            relabeled = tuple((b + shift) % 3 for b in base.prefix(30))
            assert rotated.prefix(30) == relabeled

    def test_ordering_relabels_boxes(self):
        # the counter with tie ordering sigma is the identity counter of
        # the game with its boxes listed in sigma's order, relabeled back:
        # on sampled games, and on games whose indices tie exactly again
        # and again (identical boxes, repeated alphas, dyadic indices)
        rng = np.random.default_rng(23)
        cases = []
        for n in (2, 3, 5, 8):
            game = sample_game(SCHEMES["varied"], n, rng)
            cases += [(game, p0(game)), (game, _random_p(rng, n))]
        for game in (SearchGame(t=(1.0,) * 3, alpha=(0.4,) * 3),
                     SearchGame(t=(1.0, 2.0, 1.0, 2.0),
                                alpha=(0.3, 0.5, 0.3, 0.5))):
            cases += [(game, p0(game)), (game, _random_p(rng, game.n))]
        cases += [(SearchGame(t=(1.0, 6.0), alpha=(0.5, 0.75)),
                   HidingStrategy((0.5, 0.5))),
                  (SearchGame(t=(1.0, 6.0, 2.0), alpha=(0.5, 0.75, 0.25)),
                   HidingStrategy((0.5, 0.25, 0.25)))]
        tied = 0
        for game, p in cases:
            for _ in range(3):
                sigma = rng.permutation(game.n).tolist()
                seq = gittins_sequence(game, p, TieOrdering(tuple(sigma)))
                permuted = SearchGame(
                    t=tuple(game.t[b] for b in sigma),
                    alpha=tuple(game.alpha[b] for b in sigma))
                identity = gittins_sequence(
                    permuted, HidingStrategy(tuple(p.p[b] for b in sigma)))
                relabeled = tuple(sigma[r] for r in identity.prefix(300))
                assert seq.prefix(300) == relabeled, (game, p, sigma)
                assert seq.tied == identity.tied
                tied += seq.tied
        assert tied >= 9

    def test_indices_never_stall_in_subnormals(self):
        # box 0's index decays by 0.15 per search; unscaled, it and box 1's
        # index reach the subnormals after about 390 visits of box 0, and
        # from there box 1 is searched forever
        game = SearchGame(t=(1.0, 1.0), alpha=(0.85, 0.05))
        boxes = gittins_sequence(game, HidingStrategy((0.5, 0.5))).prefix(16000)
        assert boxes.count(0) >= 400
        assert len(boxes) - 1 - max(k for k, b in enumerate(boxes) if b == 0) <= 37


class TestSearchSequence:
    def test_lazy_extension_and_visit_times(self):
        game = SearchGame(t=(1.0, 2.0), alpha=(0.5, 0.5))
        seq = from_pattern(game, (0, 1))
        assert seq.visit_time(0, 2) == 4.0  # 0 at 1, 1 at 3, 0 at 4
        assert seq.visit_time(1, 1) == 3.0
        assert len(seq) == 3  # extension stops as soon as the visit exists

    def test_serialization_is_one_based(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        seq = gittins_sequence(game, p0(game))
        payload = seq.to_jsonable(length=6)
        assert payload["boxes"] == [1, 2, 2, 1, 2, 2]
        assert payload["cycle"] == {"pattern": [1, 2, 2], "entry": [0, 0]}

    def test_box_list_from_several_requests(self):
        # blocks appended by several requests, the box list read between
        # some of them: the same boxes as one request and as the oracle
        rng = np.random.default_rng(88)
        game = sample_game(SCHEMES["varied"], 5, rng)
        for p, order in ((_random_p(rng, 5), None),
                         (p0(game), TieOrdering((3, 1, 4, 0, 2)))):
            several = gittins_sequence(game, p, order)
            several.ensure_length(7)
            several.ensure_visits([0, 3], [40, 25])
            head = several.prefix(5)
            several.ensure_length(300)
            several.ensure_visits(2, 90)
            several.ensure_visits(range(5), [60, 10, 95, 30, 50])
            length = len(several)
            once = gittins_sequence(game, p, order)
            once.ensure_length(length)
            oracle = OracleSequence(game, p, order)
            oracle.ensure_length(length)
            assert len(once) == len(oracle) == length > 300
            boxes = several.prefix(length)
            assert boxes == once.prefix(length) == tuple(oracle.boxes)
            assert head == boxes[:5]
            assert (several.to_jsonable() == once.to_jsonable()
                    == {"boxes": [b + 1 for b in oracle.boxes]})
            assert len(several) == length

    def test_cycle_window_across_blocks(self, monkeypatch):
        # blocks of a few searches each: the first window of most cycles
        # spans blocks, and every cycle and its boxes are those found in
        # whole-request blocks
        rng = np.random.default_rng(96)
        cases = []
        for _ in range(20):
            game = _cyclic_game(rng)
            p = _random_p(rng, game.n)
            seq = gittins_sequence(game, p)
            cases.append((game, p, seq.cycle, seq.prefix(len(seq))))
        ends = []
        append_block = SearchSequence._append_block

        def recorded(self, block):
            append_block(self, block)
            ends.append(len(self))

        monkeypatch.setattr(gittins_module, "_MAX_WIDTH", 2)
        monkeypatch.setattr(SearchSequence, "_append_block", recorded)
        spanned = 0
        for game, p, cycle, boxes in cases:
            ends.clear()
            seq = gittins_sequence(game, p)
            assert seq.cycle == cycle and seq.prefix(len(seq)) == boxes
            start = sum(cycle.entry)
            spanned += any(start < end < len(boxes) for end in ends)
        assert spanned >= 15


class TestCyclicSequence:
    def test_integer_rule_identity_order(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        seq = gittins_sequence(game, p0(game), TieOrdering((0, 1)))
        assert seq.cycle.pattern == (0, 1, 1)
        assert seq.cycle.entry == (0, 0)

    def test_integer_rule_reversed_order(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        seq = gittins_sequence(game, p0(game), TieOrdering((1, 0)))
        assert seq.cycle.pattern == (1, 0, 1)

    def test_integer_rule_agrees_with_float_generation(self):
        # with c = 1/16 and x_i in {1, 2, 4}, every q_i = c^(1/x_i) is a
        # power of two, so the float indices q_i^m of a counter to p0 are
        # exact and tie exactly where the integer rule ties
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            x = [int(v) for v in rng.choice([1, 2, 4], size=n)]
            x[int(rng.integers(0, n))] = 1
            game = make_cyclic_game(
                1 / 16, x, [float(v) for v in rng.uniform(1, 5, size=n)],
            )
            sigma = TieOrdering(tuple(rng.permutation(n).tolist()))
            exact = gittins_sequence(game, p0(game), sigma)
            # the same boxes without the declared structure: float indices
            plain = SearchGame(t=game.t, alpha=game.alpha)
            floaty = gittins_sequence(plain, p0(plain), sigma)
            span = 3 * game.cyclic.x_hat
            assert exact.prefix(span) == floaty.prefix(span)

    def test_integer_rule_is_one_sort(self):
        # the sort of the keys k * lcm(x) / x_i against the Fraction greedy
        # rule: every coprime x with x_i in 1..6 on up to three boxes, and
        # random ones on four and five
        rng = np.random.default_rng(94)
        xs = [x for n in (1, 2, 3)
              for x in itertools.product(range(1, 7), repeat=n)]
        xs += [tuple(rng.integers(1, 7, size=n).tolist())
               for n in (4, 5) for _ in range(100)]
        checked = 0
        for x in xs:
            if math.gcd(*x) != 1:
                continue
            game = make_cyclic_game(0.5, x, (1.0,) * len(x))
            sigma = TieOrdering(tuple(rng.permutation(len(x)).tolist()))
            for order in (TieOrdering.identity(len(x)), sigma):
                assert (_integer_rule_pattern(game, order)
                        == integer_rule_greedy(x, order)), (x, order)
            checked += 1
        assert checked > 300

    def test_detected_cycle_realizes_exactly_its_window(self):
        # past the first window's end the float indices need not follow
        # the pattern, so nothing beyond it is kept
        rng = np.random.default_rng(93)
        entered = 0
        for _ in range(60):
            game = _cyclic_game(rng)
            seq = gittins_sequence(game, _random_p(rng, game.n))
            assert isinstance(seq._driver, _PatternDriver)
            assert len(seq) == sum(seq.cycle.entry) + game.cyclic.x_hat
            assert seq.prefix(len(seq))[-game.cyclic.x_hat:] == seq.cycle.pattern
            entered += sum(seq.cycle.entry) > 0
        assert entered >= 10

    def test_no_cycle_within_the_budget(self, monkeypatch):
        # with a budget of x_hat searches only the window at search 0 is
        # scanned: a counter whose cycle starts later keeps its Gittins
        # driver and the x_hat searches realized
        rng = np.random.default_rng(95)
        while True:
            game = _cyclic_game(rng)
            p = _random_p(rng, game.n)
            if sum(gittins_sequence(game, p).cycle.entry) > 0:
                break
        monkeypatch.setattr(gittins_module, "_CYCLE_STEP_BUDGET_FACTOR", 1)
        seq = gittins_sequence(game, p)
        assert seq.cycle is None and isinstance(seq._driver, _GittinsDriver)
        assert len(seq) == game.cyclic.x_hat
        oracle = OracleSequence(game, p)
        oracle.ensure_length(len(seq))
        _replay_on(seq, oracle, [("length", 3 * game.cyclic.x_hat)]
                   + _payoff_requests(game, rng))

    def test_general_p_cycle_detection(self):
        game = make_cyclic_game(0.25, (1, 2), (1.0, 1.0))
        p = HidingStrategy((0.55, 0.45))
        seq = gittins_sequence(game, p, TieOrdering.identity(game.n))
        assert seq.cycle is not None
        x = game.cyclic.x
        counts = [seq.cycle.pattern.count(i) for i in range(game.n)]
        assert counts == list(x)
        # the sealed continuation is a genuine Gittins sequence
        assert replay_check(game, p, seq, length=40)


def _random_p(rng, n):
    raw = rng.uniform(0.05, 1.0, size=n)
    return HidingStrategy(tuple((raw / raw.sum()).tolist()))


def _payoff_requests(game, rng, extra=4):
    """The requests payoff_column() makes: every box's first series
    depth in one request, then doubled depths one box at a time; then a
    few random single-box and length requests."""
    n = game.n
    depths = _first_depths(game)
    requests = [("visits", list(range(n)), [d + 1 for d in depths])]
    requests += [("visits", i, 2 * depths[i] + 1) for i in range(n)]
    for _ in range(extra):
        if rng.random() < 0.5:
            requests.append(("visits", int(rng.integers(n)),
                             int(rng.integers(1, 4 * max(depths) + 2))))
        else:
            requests.append(("length", int(rng.integers(1, 1200))))
    return requests


def _cyclic_game(rng):
    """A cyclic game on 2-4 boxes: coprime x_i in 1..3, c ~ U(0.05, 0.6),
    t_i ~ U(1, 5)."""
    n = int(rng.integers(2, 5))
    while True:
        x = rng.integers(1, 4, size=n).tolist()
        if math.gcd(*x) == 1:
            break
    return make_cyclic_game(float(rng.uniform(0.05, 0.6)), x,
                            rng.uniform(1, 5, size=n).tolist())


def _replay(game, p, order, requests):
    """Run the same requests on a generated sequence and on the one-step
    oracle (see _replay_on). Returns the oracle."""
    return _replay_on(gittins_sequence(game, p, order),
                      OracleSequence(game, p, order), requests)


def _replay_on(seq, oracle, requests):
    """Run the same requests on seq and on an oracle that searches one box
    at a time; both must raise alike and agree on length, `tied`, every
    box and every visit time after each. Returns the oracle."""
    game = seq.game
    for kind, boxes, *counts in requests:
        outcomes = []
        for target in (seq, oracle):
            try:
                if kind == "length":
                    target.ensure_length(boxes)
                elif target is oracle and isinstance(boxes, int):
                    target.ensure_visits([boxes], counts)
                else:
                    target.ensure_visits(boxes, *counts)
                outcomes.append("ok")
            except (InsufficientPrefix, NumericalFailure) as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1], (kind, boxes, counts)
        assert len(seq) == len(oracle), (kind, boxes, counts)
        assert seq.tied == oracle.tied, (kind, boxes, counts)
        assert list(seq.prefix(len(seq))) == oracle.boxes, (kind, boxes)
        assert [seq.visit_times(i).tolist()
                for i in range(game.n)] == oracle.visits, (kind, boxes)
    return oracle


class TestBlockGeneration:
    """Blocks realize exactly the searches, visit times and ties of the
    one-step rule (tests/gittins_oracle.py), request by request."""

    def test_random_games_exact_and_sigma(self):
        rng = np.random.default_rng(81)
        for n in range(2, 9):
            for _ in range(3):
                game = sample_game(SCHEMES["varied"], n, rng)
                sigma = TieOrdering(tuple(rng.permutation(n).tolist()))
                _replay(game, _random_p(rng, n), None,
                        _payoff_requests(game, rng))
                _replay(game, p0(game), sigma, _payoff_requests(game, rng))

    def test_near_cyclic_games_tie(self):
        # cyclic alphas without the declared structure: a counter to p0
        # starts every index at 1.0, so boxes with equal exponents tie
        # exactly, and the other index streams meet again at every cycle
        # up to rounding, often exactly, so the sigma counters keep
        # meeting exact ties
        rng = np.random.default_rng(82)
        tied = 0
        for _ in range(12):
            n = int(rng.integers(2, 5))
            x = [int(v) for v in rng.integers(1, 4, size=n)]
            x[0] = 1
            cyclic = make_cyclic_game(
                float(rng.uniform(0.05, 0.6)), x,
                [float(v) for v in rng.uniform(1, 5, size=n)],
            )
            game = SearchGame(t=cyclic.t, alpha=cyclic.alpha)
            sigma = TieOrdering(tuple(rng.permutation(n).tolist()))
            oracle = _replay(game, p0(game), sigma, _payoff_requests(game, rng))
            tied += oracle.tied
        assert tied >= 6

    def test_identical_boxes(self):
        rng = np.random.default_rng(83)
        game = SearchGame(t=(1.0, 1.0, 1.0), alpha=(0.4, 0.4, 0.4))
        for order in (None, TieOrdering((2, 0, 1))):
            oracle = _replay(game, p0(game), order, _payoff_requests(game, rng))
            assert oracle.tied
        _replay(game, HidingStrategy((0.5, 0.25, 0.25)), None,
                _payoff_requests(game, rng))

    def test_zero_mass_box(self):
        rng = np.random.default_rng(84)
        game = SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 0.6, 0.5))
        p = HidingStrategy((0.6, 0.0, 0.4))
        requests = [("visits", [0, 2], [30, 30]), ("visits", 1, 1),
                    ("visits", [0, 1, 2], [60, 2, 45]), ("length", 400)]
        _replay(game, p, None, requests + _payoff_requests(game, rng))

    def test_perfect_box(self):
        rng = np.random.default_rng(85)
        game = SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.5, 1.0, 0.3),
                          allow_perfect=True)
        requests = [("visits", [0, 1, 2], [3, 1, 3]), ("visits", 1, 2),
                    ("visits", [2, 1, 0], [80, 3, 40]), ("length", 500)]
        for p, order in ((_random_p(rng, 3), None),
                         (p0(game), TieOrdering((1, 2, 0)))):
            _replay(game, p, order, requests + _payoff_requests(game, rng))
        # once every box is searched out, the one-step rule raises
        only_perfect = SearchGame(t=(1.0, 2.0), alpha=(1.0, 1.0),
                                  allow_perfect=True)
        oracle = _replay(only_perfect, HidingStrategy((0.5, 0.5)), None,
                         [("length", 5), ("visits", [0, 1], [1, 2])])
        assert oracle.boxes == [0, 1]

    def test_tie_inside_a_run(self):
        # box 0's index starts at 2**-2 and halves per search, box 1's is
        # 2**-12: box 0 runs ten searches, and its eleventh ties exactly
        # with box 1's first, inside the run; sigma (1, 0) gives the tie
        # to box 1, the identity to box 0
        game = SearchGame(t=(1.0, 2.0 ** 10), alpha=(0.5, 0.5))
        p = HidingStrategy((0.5, 0.5))
        requests = [("length", 4), ("length", 30), ("visits", 1, 3)]
        oracle = _replay(game, p, TieOrdering((1, 0)), requests)
        assert oracle.tied and oracle.boxes.index(1) == 10
        oracle = _replay(game, p, None, requests)
        assert oracle.tied and oracle.boxes.index(1) == 11

    def test_rescaled_indices(self):
        # the underflow game: box 0's index passes 2**-600 after about
        # 360 searches and is rescaled, inside one request; unscaled, the
        # index streams of the first request reach the subnormals
        game = SearchGame(t=(1.0, 1.0), alpha=(0.85, 0.05))
        requests = [("visits", 1, 9000), ("visits", 0, 1200),
                    ("length", 16000), ("visits", [0, 1], [1600, 16000])]
        _replay(game, HidingStrategy((0.5, 0.5)), None, requests)

    def test_no_tie_beyond_the_payoff_depth(self):
        # dyadic indices: box 0's are 2**-(3 + 2m), box 1's 2**-1,
        # 2**-42, 2**-83, ..., so the first exact tie is box 1's third
        # index with box 0's 41st, at search 43; the payoffs request only
        # box 1's first two searches and box 0's first 21
        q1 = 2.0 ** -41
        game = SearchGame(t=(3.0, 1 - q1), alpha=(0.75, 1 - q1))
        p = HidingStrategy((0.5, 0.5))
        assert _first_depths(game) == [20, 1]
        seq = gittins_sequence(game, p, TieOrdering((0, 1)))
        _column_values(game, seq)
        assert not seq.tied
        # the column realizes exactly the searches its depths need
        oracle = OracleSequence(game, p, TieOrdering((0, 1)))
        oracle.ensure_visits([0, 1], [d + 1 for d in _first_depths(game)])
        assert len(seq) == len(oracle) and not oracle.tied
        oracle.ensure_length(400)
        assert oracle.tied  # the tie exists, beyond what the payoffs need
        seq.ensure_length(400)
        assert seq.tied

    # exact ties: t and alpha are chosen so that the indices are dyadic
    # rationals, exact in floating point. Box 0 (q = 1/2) starts at 1/4 and
    # box 1 (q = 1/4) at 1/16, so box 0's third index equals box 1's first.
    DYADIC = SearchGame(t=(1.0, 6.0), alpha=(0.5, 0.75))
    HALVES = HidingStrategy((0.5, 0.5))

    def test_exact_counter_at_p0(self):
        # against p0 all n indices start at 1.0, an exact tie by design:
        # the merge takes them in the ordering, as the one-step rule does,
        # and the start tie does not set `tied`
        rng = np.random.default_rng(86)
        for n in (2, 3, 5, 8):
            game = sample_game(SCHEMES["varied"], n, rng)
            sigma = TieOrdering(tuple(rng.permutation(n).tolist()))
            for order in (None, sigma):
                oracle = _replay(game, p0(game), order,
                                 _payoff_requests(game, rng))
                first = list((order or TieOrdering.identity(n)).sigma)
                assert not oracle.tied and oracle.boxes[:n] == first

    def test_exact_tie_at_the_cut(self):
        # the request ends on box 0's third search, whose index equals box
        # 1's first; box 1 is higher, so its tied search stays unrealized
        oracle = _replay(self.DYADIC, self.HALVES, None, [("visits", 0, 3)])
        assert oracle.tied and oracle.boxes == [0, 0, 0]
        # the next request starts with that search
        oracle = _replay(self.DYADIC, self.HALVES, None,
                         [("visits", 0, 3), ("visits", 0, 4)])
        assert oracle.boxes == [0, 0, 0, 1, 0]
        # asking for box 1's first search takes box 0's tied one before it
        oracle = _replay(self.DYADIC, self.HALVES, None, [("visits", 1, 1)])
        assert oracle.tied and oracle.boxes == [0, 0, 0, 1]

    def test_last_needed_searches_tie(self):
        # both boxes' last needed searches have index 1/16: the request
        # ends with the higher box's, after the lower box's
        oracle = _replay(self.DYADIC, self.HALVES, None,
                         [("visits", [0, 1], [3, 1]),
                          ("visits", [1, 0], [2, 5])])
        assert oracle.tied and oracle.boxes[:4] == [0, 0, 0, 1]
        game = SearchGame(t=(1.0, 1.0, 1.0), alpha=(0.5, 0.5, 0.5))
        oracle = _replay(game, p0(game), None,
                         [("visits", [0, 2], [2, 2]), ("visits", [1], [4])])
        assert oracle.boxes[:6] == [0, 1, 2, 0, 1, 2]

    def test_requests_mid_stream(self):
        # each request starts where the last one left the driver: inside
        # a run of one box, just before an exact tie, and right after one
        requests = [("length", 1), ("visits", 1, 1), ("length", 5),
                    ("visits", [0, 1], [6, 2]), ("visits", 0, 7),
                    ("length", 40), ("visits", [1, 0], [9, 30])]
        oracle = _replay(self.DYADIC, self.HALVES, None, requests)
        assert oracle.tied
        rng = np.random.default_rng(88)
        for n in (3, 8):
            game = sample_game(SCHEMES["varied"], n, rng)
            p = _random_p(rng, n)
            requests = [("length", int(rng.integers(1, 40)))]
            requests += [("visits", int(rng.integers(n)),
                          int(rng.integers(1, 60))) for _ in range(6)]
            _replay(game, p, None, requests + _payoff_requests(game, rng))
            _replay(game, p0(game), TieOrdering.identity(n), requests)

    def test_request_wider_than_the_block_cap(self, monkeypatch):
        # box 0's index falls by 1e-4 per search, so the request's streams
        # would exceed the cap: it goes block by block
        merges = []
        merge = _GittinsDriver._merge

        def counted(self, steps, need):
            block, done = merge(self, steps, need)
            merges.append(len(block.rows))
            return block, done

        monkeypatch.setattr(_GittinsDriver, "_merge", counted)
        game = SearchGame(t=(1.0, 2.0), alpha=(1e-4, 0.5))
        requests = [("visits", [0, 1], [3 * _MAX_WIDTH, 2]),
                    ("length", 4 * _MAX_WIDTH)]
        for order in (None, TieOrdering((1, 0))):
            merges.clear()
            _replay(game, HidingStrategy((0.5, 0.5)), order, requests)
            # about one block of box 0 per cap, with box 1's few searches
            assert len(merges) >= 4 and max(merges) < _MAX_WIDTH + 40

    def test_column_request_is_one_merge(self, monkeypatch):
        # a best response's column on an n = 8 game, at p0 (where all
        # indices start tied) and at an interior p: every request is one
        # merge
        calls = {"merge": 0, "request": 0}
        merge = _GittinsDriver._merge
        ensure_visits = SearchSequence.ensure_visits

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_GittinsDriver, "_merge", counted("merge", merge))
        monkeypatch.setattr(SearchSequence, "ensure_visits",
                            counted("request", ensure_visits))
        rng = np.random.default_rng(87)
        game = sample_game(SCHEMES["varied"], 8, rng)
        for p in (p0(game), _random_p(rng, 8)):
            seq = gittins_sequence(game, p)
            calls.update(merge=0, request=0)
            seq.ensure_visits(range(8), [d + 1 for d in _first_depths(game)])
            assert calls == {"merge": 1, "request": 1}
            assert not seq.tied
            payoff_column(game, seq)
            assert calls["merge"] == calls["request"] - 1


class TestPatternBlocks:
    """A pattern, from from_pattern or a detected cycle, is realized in
    blocks exactly as one search at a time (OraclePattern), request by
    request."""

    def test_extension_stops_at_the_last_needed_search(self):
        game = SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 0.6, 0.5))
        seq = from_pattern(game, (0, 2, 0))
        seq.ensure_visits(2, 1)
        assert len(seq) == 2
        # box 0's third visit is search 4, box 2's second search 5; box 1
        # is left out of the pattern
        with pytest.raises(InsufficientPrefix):
            seq.ensure_visits([0, 1, 2], [3, 1, 2])
        assert len(seq) == 5
        assert not seq.can_visit_more(1) and seq.can_visit_more(2)
        assert seq.visit_times(0).tolist() == [1.0, 3.5, 4.5]

    def test_from_pattern(self):
        rng = np.random.default_rng(96)
        for n in (1, 2, 3, 5):
            game = sample_game(SCHEMES["varied"], n, rng)
            for _ in range(4):
                pattern = tuple(
                    rng.integers(n, size=int(rng.integers(1, 9))).tolist()
                )
                requests = [("length", int(rng.integers(1, 30)))]
                requests += [("visits", int(rng.integers(n)),
                              int(rng.integers(1, 50))) for _ in range(4)]
                requests += [("visits", list(range(n)),
                              rng.integers(1, 40, size=n).tolist()),
                             ("length", int(rng.integers(100, 300)))]
                _replay_on(from_pattern(game, pattern),
                           OraclePattern(game, (), pattern), requests)

    def test_requests_wider_than_a_block(self):
        game = SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 0.6, 0.5))
        pattern = (2, 0, 0, 1, 0)
        requests = [("visits", 1, 3), ("length", _MAX_WIDTH + 3),
                    ("visits", [1, 2], [_MAX_WIDTH // 2, 5]),
                    ("length", 2 * _MAX_WIDTH + 11)]
        _replay_on(from_pattern(game, pattern),
                   OraclePattern(game, (), pattern), requests)

    def test_detected_cycles(self):
        # the head is the Gittins counter's first sum(entry) searches, and
        # the pattern its next x_hat
        rng = np.random.default_rng(97)
        for _ in range(12):
            game = _cyclic_game(rng)
            p = _random_p(rng, game.n)
            seq = gittins_sequence(game, p)
            head = sum(seq.cycle.entry)
            counter = OracleSequence(game, p)
            counter.ensure_length(len(seq))
            assert tuple(counter.boxes[head:]) == seq.cycle.pattern
            oracle = OraclePattern(game, counter.boxes[:head],
                                   seq.cycle.pattern)
            oracle.ensure_length(len(seq))
            requests = [("visits", int(rng.integers(game.n)),
                         int(rng.integers(1, 40))) for _ in range(3)]
            requests += [("length", int(rng.integers(1, 200))),
                         ("visits", list(range(game.n)),
                          rng.integers(1, 60, size=game.n).tolist())]
            _replay_on(seq, oracle, requests + _payoff_requests(game, rng))
