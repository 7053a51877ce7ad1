"""Monte-Carlo oracle for expected detection times, independent of the
series and closed forms that payoff_column() evaluates."""

import math

import numpy as np


def mc_estimate(game, i: int, xi, trials: int, seed) -> tuple[float, float]:
    """Monte-Carlo estimate of u(i, xi): simulate per-visit detection.

    Each trial draws the geometric visit number at which box i's search
    succeeds and reads off its completion time. Returns the sample mean
    and the 95% confidence half-width (0 by convention for one trial).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = rng.geometric(game.alpha[i], size=trials)
    xi.ensure_visits(i, int(draws.max()))
    times = xi.visit_times(i)[draws - 1]
    mean = float(times.mean())
    if trials < 2:
        return mean, 0.0
    half = 1.96 * float(times.std(ddof=1)) / math.sqrt(trials)
    return mean, half
