"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import math

import pytest

import worker

bs = worker.set_up_import()

from checks import check_both, check_p0_test, check_solution  # noqa: E402
from spans import Span, Tracer, layer_self_times, self_times  # noqa: E402


def _nested_spans():
    # game [0, 10] > solver.solve [1, 9] > {lp [2, 5] > payoff [3, 4],
    #                                       gittins [6, 8]}
    return [
        Span("game", 0.0, 10.0, -1, 0),
        Span("solver.solve", 1.0, 9.0, 0, 0),
        Span("solver.solve_hider_lp", 2.0, 5.0, 1, 0),
        Span("solver.payoff", 3.0, 4.0, 2, 0),
        Span("SearchSequence.ensure_visits", 6.0, 8.0, 1, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested_spans()) == [2.0, 3.0, 2.0, 1.0, 2.0]


def test_layer_self_times_sum_to_root_duration():
    layers = layer_self_times(_nested_spans())
    assert layers == {"other": 2.0, "solver": 3.0, "lp": 2.0,
                      "payoff": 1.0, "gittins": 2.0}
    assert math.fsum(layers.values()) == 10.0


def test_tracer_records_parents_raises_and_info():
    class Box:
        def inner(self, x):
            if x < 0:
                raise ValueError(x)
            return x * 2

        def outer(self, x):
            return self.inner(x) + 1

    tracer = Tracer()
    tracer.wrap(Box, "inner", "inner", leave=lambda a, r, e: r)
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "missing", "Box.missing")
    assert Box().outer(3) == 7
    with pytest.raises(ValueError):
        Box().outer(-1)
    tracer.unwrap()
    assert Box().outer(1) == 3 and len(tracer.spans) == 4

    outer, inner, outer_bad, inner_bad = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert (outer_bad.parent, inner_bad.parent) == (-1, 2)
    assert inner.info == 6 and not inner.raised
    assert inner_bad.raised and outer_bad.raised
    assert tracer.absent == ["Box.missing"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(list(range(1, 101))) == (90.0, 90)
    pct, value = worker.tail_percentile([5.0] * 10 + [1.0])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        worker.tail_percentile([1.0] * 10)


def test_failed_games_push_the_tail_to_infinity():
    loop = worker.Loop(times=[0.1] * 30, failures=[(k, "x") for k in range(10)])
    assert worker.tail_percentile(loop.latencies([1.0] * 30))[1] == 0.1
    loop.failures.append((10, "x"))
    assert worker.tail_percentile(loop.latencies([1.0] * 30))[1] == math.inf


def test_each_game_is_scaled_by_the_kernel_runs_nearest_it():
    ref = worker.reference.REFERENCE_S
    slow = [(k, 2 * ref) for k in range(0, 20, 2)]
    fast = [(k, ref / 2) for k in range(20, 40, 2)]
    loop = worker.Loop(times=[0.1] * 40, kernel=slow + fast)
    scales = loop.scales()
    assert scales[0] == scales[10] == 0.5 and scales[30] == scales[39] == 2.0
    assert len(scales) == 40


@pytest.fixture(scope="module")
def solved():
    game = bs.SearchGame(t=(1.0, 2.0, 1.5), alpha=(0.3, 0.6, 0.45))
    return game, bs.solve(game), bs.test_p0_optimality(game)


def test_checker_accepts_genuine_results(solved):
    game, sol, res = solved
    assert check_both(game, sol, res, 1e-6) == []


@pytest.mark.parametrize("doctor, complaint", [
    (lambda s: {"U": s.L * (1 - 1e-12)}, "exceeds U"),
    (lambda s: {"U": s.L * (1 + 2e-6)}, "not below"),
    (lambda s: {"termination": bs.Termination.MAX_ITERATIONS}, "termination"),
    (lambda s: {"theta": (0.5,) + (0.0,) * (len(s.theta) - 1)},
     "not a distribution"),
    (lambda s: {"theta": (0.25,) * 4}, "more than n"),
])
def test_checker_rejects_doctored_solutions(solved, doctor, complaint):
    game, sol, _ = solved
    bad = dataclasses.replace(sol, **doctor(sol))
    problems = check_solution(game, bad, 1e-6)
    assert any(complaint in p for p in problems), problems


def test_checker_rejects_doctored_p0_tests(solved):
    game, sol, res = solved
    low = dataclasses.replace(res, v_D=res.u_p0.lower * 0.99)
    assert any("exceeds v_D" in p for p in check_p0_test(game, low))
    high_lower = dataclasses.replace(sol, L=res.v_D * 1.01, U=res.v_D * 1.01)
    assert any("exceeds v_D" in p for p in check_both(game, high_lower, res, 1e-6))
