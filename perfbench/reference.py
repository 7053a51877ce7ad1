"""A fixed reference computation that tracks the machine's current speed.

The benchmark was defined on a 2-core virtual machine whose speed drifts
by up to a third as other tenants load the host: runs of the study
workload twenty minutes apart played 60 and 81 games per second. Per-game
CPU time tracks wall time there, so the process is not being descheduled;
every instruction simply runs slower. Each worker therefore times this
kernel between games, outside the timed region, and scales each game's
time by REFERENCE_S over the median of the kernel runs nearest that game.
A run thus reports the times the machine would have given at the
reference speed, even when the speed changes during the run.

The kernel does not call boxsearch, so no change to the program moves it.
It mixes the two kinds of work the solver does: a Python loop of index
updates, like Gittins sequence generation, and small numpy calls, like the
LP's pivots.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel seconds at the reference speed: the median on the machine the
# benchmark was defined on, rounded
REFERENCE_S = 0.0025

_MATRIX = np.random.default_rng(0).uniform(1.0, 2.0, size=(9, 48))
_DECAY = [1.0 - 0.1 * (i + 1) for i in range(8)]


def kernel() -> float:
    """Seconds taken by one run of the reference computation."""
    start = perf_counter()
    idx = [1.0] * 8
    for _ in range(1500):
        best = max(idx)
        cut = best - best * 1e-9
        for i, v in enumerate(idx):
            if v >= cut:
                break
        idx[i] = v * _DECAY[i] if v > 1e-200 else 1.0
    weights = np.full(_MATRIX.shape[1], 1.0 / _MATRIX.shape[1])
    for _ in range(150):
        values = _MATRIX @ weights
        j = int(np.argmin(values))
        weights *= 0.99
        weights[j % weights.size] += 0.01
    return perf_counter() - start
