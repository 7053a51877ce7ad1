"""The four benchmark workloads: inputs from a seed, one game's pipeline,
and the output checks for that game.

Each workload is a closed loop with one caller: a game starts when the
previous one has finished, as in the paper's batch studies. Why each
workload exists, and which layer it stresses, is recorded in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from boxsearch import SCHEMES, SearchGame, SolveConfig, make_cyclic_game, solver, study

from checks import check_both, check_p0_test, check_solution

EPSILON = 1e-6
CONFIG = SolveConfig(epsilon=EPSILON)
VARIED = SCHEMES["varied"]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# candidates drawn per stratum when stratifying sampled games
_STRATUM_DRAWS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    est_ms: float  # per-game cost of the seed code; sizes the input pool
    inputs: Callable[[object, int], list]  # (numpy seed, count) -> inputs
    run: Callable[[object], object]  # one game -> its outputs
    check: Callable[[object, object], list[str]]  # violations, [] if correct


def stratified_games(seed, n: int, count: int) -> list[SearchGame]:
    """`count` varied-scheme games, stratified on overlook depth.

    Solve time grows with sum_i 1/-ln(1-alpha_i), the expected number of
    searches needed to detect a hider (it explains about 60 % of the
    log-time variance at n = 8). Games are drawn uniformly from the
    scheme, sorted by that depth into `count` equal strata, and one game
    is taken from each stratum at random, so every run covers the same
    depth quantiles and only few games are needed for a steady median.
    Strata are played in a golden-ratio order, so any prefix of the list
    spans the whole depth range.
    """
    rng = np.random.default_rng(seed)
    size = (count * _STRATUM_DRAWS, n)
    alpha = rng.uniform(VARIED.alpha_low, VARIED.alpha_high, size=size)
    t = rng.uniform(VARIED.t_low, VARIED.t_high, size=size)
    depth = (-1.0 / np.log1p(-alpha)).sum(axis=1)
    strata = np.argsort(depth, kind="stable").reshape(count, _STRATUM_DRAWS)
    chosen = strata[np.arange(count), rng.integers(0, _STRATUM_DRAWS, count)]
    play = np.argsort(np.argsort((rng.random() + GOLDEN * np.arange(count)) % 1.0))
    return [
        SearchGame(t=tuple(t[j].tolist()), alpha=tuple(alpha[j].tolist()))
        for j in chosen[play]
    ]


def cyclic_games(seed, count: int) -> list[SearchGame]:
    """Cyclic games on 2-4 boxes: coprime exponents x_i in 1..3,
    base c ~ U(0.05, 0.6), t_i ~ U(1, 5)."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        while True:
            x = rng.integers(1, 4, size=n).tolist()
            if math.gcd(*x) == 1:
                break
        c = float(rng.uniform(0.05, 0.6))
        t = rng.uniform(VARIED.t_low, VARIED.t_high, size=n).tolist()
        games.append(make_cyclic_game(c, x, t))
    return games


def _study_seeds(seed, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**62, size=count).tolist()


class _StudyCapture:
    """Keeps the p0-test result and solution of the study's current game,
    so its certificate can be checked from the public result types."""

    def __init__(self):
        self.p0_test = None
        self.solution = None
        test_p0, solve = study.test_p0_optimality, study.solve

        def captured_test_p0(*args, **kwargs):
            self.p0_test = test_p0(*args, **kwargs)
            return self.p0_test

        def captured_solve(*args, **kwargs):
            self.solution = solve(*args, **kwargs)
            return self.solution

        study.test_p0_optimality = captured_test_p0
        study.solve = captured_solve

    def run(self, game_seed: int):
        self.p0_test = self.solution = None
        (record,) = study.run_batch(VARIED, 3, 1, epsilon=EPSILON, seed=game_seed)
        return record, self.p0_test, self.solution


def _check_study(game_seed, outputs) -> list[str]:
    record, p0_test, sol = outputs
    if record.error is not None:
        return [f"study error: {record.error}"]
    if p0_test is None:
        return ["study ran no p0 test at n = 3"]
    game = SearchGame(t=record.t, alpha=record.alpha)
    if record.p0_optimal:
        problems = check_p0_test(game, p0_test)
        if sol is not None or record.v_star != p0_test.v_D:
            problems.append("p0-optimal record does not report v_D")
        return problems
    if sol is None:
        return ["p0 suboptimal but no solve ran"]
    problems = check_both(game, sol, p0_test, EPSILON)
    if record.v_star != sol.U or record.iterations != sol.iterations:
        problems.append("batch record disagrees with its solution")
    return problems


def _run_solve(game):
    return solver.solve(game, CONFIG)


def _run_p0_test(game):
    return solver.test_p0_optimality(game)


def _run_cyclic(game):
    return solver.solve(game, CONFIG), solver.test_p0_optimality(game)


def make(name: str) -> Workload:
    """Build a workload by name; study-n3 installs its result capture."""
    if name == "study-n3":
        capture = _StudyCapture()
        return Workload(name, 15.0, _study_seeds, capture.run, _check_study)
    if name == "solve-n8":
        return Workload(
            name, 450.0, lambda seed, count: stratified_games(seed, 8, count),
            _run_solve, lambda game, sol: check_solution(game, sol, EPSILON),
        )
    if name == "p0-n5":
        return Workload(
            name, 90.0, lambda seed, count: stratified_games(seed, 5, count),
            _run_p0_test, check_p0_test,
        )
    if name == "cyclic":
        return Workload(
            name, 5.0, cyclic_games, _run_cyclic,
            lambda game, out: check_both(game, out[0], out[1], EPSILON),
        )
    raise KeyError(name)

