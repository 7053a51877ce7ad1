"""Print one SHA-256 per pool of boxsearch's outputs, written as float.hex.

A change that keeps the arithmetic must print the same hashes as its
parent commit; any difference in any bit of any output changes a hash.

    PYTHONPATH=src python3 tests/fingerprint.py

Pools:
  solve-n8    solve on sample_game(varied, 8, per_game_seed(1, k)), k < 40
  p0-n5       p0 test on sample_game(varied, 5, per_game_seed(1, k)), k < 200
  batch-n3    run_batch(varied, 3, 300, seed=1), wall times left out
  seeded-n3   the solve seeded from the p0 test on the batch-n3 games whose
              p0 is suboptimal: its outputs, as the solve pools hash them
  cyclic      solve and p0 test on 50 seeded make_cyclic_game games
  corners     solve and p0 test on the wide game t = (1e-3, 1e3), alpha =
              (1e-4, 0.5), the two perfect-box games and the twin game
"""

import hashlib
import math
import sys

import numpy as np

from boxsearch import (
    SCHEMES,
    SearchGame,
    make_cyclic_game,
    run_batch,
    sample_game,
    solve,
)
from boxsearch.errors import BoxSearchError
from boxsearch.model import per_game_seed
from boxsearch.solver import test_p0_optimality


def _text(value) -> str:
    """value with every float as float.hex, recursively."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple, np.ndarray)):
        return "(" + ",".join(_text(v) for v in value) + ")"
    return repr(value)


def _solve_outputs(game, p0_test=None) -> tuple:
    try:
        sol = solve(game, p0_test=p0_test)
    except BoxSearchError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (sol.L, sol.U, sol.iterations, sol.termination.value,
            sol.p_star.p, sol.theta, [len(seq) for seq in sol.sequences],
            [(r.upper, r.lower, r.added_sequence, r.mispriced)
             for r in sol.trace])


def _p0_outputs(game) -> tuple:
    try:
        res = test_p0_optimality(game)
    except BoxSearchError as exc:
        return ("error", type(exc).__name__, str(exc))
    u = res.u_p0
    return (res.optimal, res.v_D, u.lower, u.upper, u.searches_used,
            res.theta, res.sequences_used)


def _cyclic_games(count: int) -> list[SearchGame]:
    rng = np.random.default_rng(1)
    games = []
    while len(games) < count:
        n = int(rng.integers(2, 5))
        x = rng.integers(1, 4, size=n).tolist()
        if math.gcd(*x) != 1:
            continue
        c = float(rng.uniform(0.05, 0.6))
        t = rng.uniform(1.0, 5.0, size=n).tolist()
        games.append(make_cyclic_game(c, x, t))
    return games


def _corner_games() -> list[SearchGame]:
    return [
        SearchGame(t=(1e-3, 1e3), alpha=(1e-4, 0.5)),
        SearchGame(t=(1.0, 2.0), alpha=(1.0, 1.0), allow_perfect=True),
        SearchGame(t=(1.0, 1.0), alpha=(0.5, 1.0), allow_perfect=True),
        SearchGame(t=(1.0, 1.0, 2.0, 3.0), alpha=(0.5, 0.5, 0.3, 0.6)),
    ]


def pools():
    """(name, outputs) for every pool, outputs a list of tuples."""
    varied = SCHEMES["varied"]
    yield "solve-n8", [
        _solve_outputs(sample_game(varied, 8, per_game_seed(1, k)))
        for k in range(40)
    ]
    yield "p0-n5", [
        _p0_outputs(sample_game(varied, 5, per_game_seed(1, k)))
        for k in range(200)
    ]
    yield "batch-n3", [
        (r.index, r.t, r.alpha, r.v_star, r.u_p0, r.p0_optimal,
         r.pct_below, r.iterations, r.error)
        for r in run_batch(varied, 3, 300, seed=1)
    ]
    tests = [(game, test_p0_optimality(game)) for game in (
        sample_game(varied, 3, per_game_seed(1, k)) for k in range(300))]
    yield "seeded-n3", [
        _solve_outputs(game, test) for game, test in tests if not test.optimal
    ]
    yield "cyclic", [
        (_solve_outputs(game), _p0_outputs(game))
        for game in _cyclic_games(50)
    ]
    yield "corners", [
        (_solve_outputs(game), _p0_outputs(game)) for game in _corner_games()
    ]


def main() -> int:
    for name, outputs in pools():
        digest = hashlib.sha256()
        for record in outputs:
            digest.update(_text(record).encode())
            digest.update(b"\n")
        print(f"{name:9s} {len(outputs):4d} {digest.hexdigest()}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
