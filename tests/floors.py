"""Hider-probability floors, kept as a test oracle.

The game value v* is at most M = sum_i t_i/alpha_i, the value when the
hider may relocate after every search. From M follow per-box floors on
any optimal hiding strategy: with m_i = floor(M/t_i) + 1 searches of box
i taking more than M time, any p giving box i less than

    eta_i = (t_i/alpha_i) / (t_i/alpha_i + c_i),
    c_i   = sum_{j != i} t_j / (alpha_j (1-alpha_j)^{m_j - 1}),

would make some Gittins counter postpone box i past time M, contradicting
optimality. Shrinking to delta_i = FLOOR_SHRINK * eta_i (0.99) yields a
truncated simplex whose interior contains every optimal hiding strategy.
The tests hold solved strategies to these floors, and the Kelley oracle
solves its LP over the truncated simplex; the solver uses neither.
"""

import math
from dataclasses import dataclass

from boxsearch.errors import InvalidGameError, NumericalError

# factor from the floors eta_i to the LP floors delta_i
FLOOR_SHRINK = 0.99

# largest exponent magnitude safe for linear-space (1-a)^(m-1)
_LOG_SPACE_CUTOVER = 650.0


class PerfectDetectionUnsupported(InvalidGameError):
    """The floors are undefined when some alpha_i = 1."""


class DegenerateFloors(NumericalError):
    """Defensive check: probability floors sum to >= 1."""


class FloorUnderflow(NumericalError):
    """A hider-probability floor underflowed double precision."""


@dataclass(frozen=True)
class HiderFloor:
    """Floors delta_i = FLOOR_SHRINK * eta_i on optimal hiding probabilities.

    These are floors, not a distribution: nothing requires the eta_i to
    sum to anything in particular, but sum(delta) < 1 must hold so the
    truncated simplex is nonempty.
    """

    M: float
    m: tuple[int, ...]
    c: tuple[float, ...]
    eta: tuple[float, ...]
    delta: tuple[float, ...]


def hider_floor(game) -> HiderFloor:
    """Compute m_i, c_i, eta_i and the shrunken floors delta_i.

    The c_i terms move to log space when (1-alpha_j)^(m_j-1) would
    underflow; if eta_i still underflows to 0 the result would silently
    void the floor guarantee, so FloorUnderflow is raised.
    """
    n = game.n
    if game.has_perfect_box() and n >= 2:
        raise PerfectDetectionUnsupported(
            "floors degenerate when some alpha_j = 1 (c_i diverges)"
        )
    w = [ti / ai for ti, ai in zip(game.t, game.alpha)]
    M = math.fsum(w)
    m = []
    for ti in game.t:
        mi = int(math.floor(M / ti)) + 1
        if mi * ti <= M:  # float floor landed low; restore m_i t_i > M
            mi += 1
        m.append(mi)

    # per-box log of t_j / (alpha_j (1-alpha_j)^(m_j-1)), and linear value
    # where representable
    log_terms = []
    lin_terms = []
    for tj, aj, mj in zip(game.t, game.alpha, m):
        log_q = math.log1p(-aj)
        log_term = math.log(tj) - math.log(aj) - (mj - 1) * log_q
        log_terms.append(log_term)
        lin_terms.append(math.exp(log_term) if log_term < _LOG_SPACE_CUTOVER
                         else math.inf)
    if all(math.isfinite(v) for v in lin_terms):
        # safe in linear space; recompute directly so hand-checkable cases
        # are exact
        lin_terms = [
            tj / (aj * (1.0 - aj) ** (mj - 1))
            for tj, aj, mj in zip(game.t, game.alpha, m)
        ]

    c = []
    eta = []
    for i in range(n):
        others_lin = [lin_terms[j] for j in range(n) if j != i]
        if all(math.isfinite(v) for v in others_lin):
            ci = math.fsum(others_lin)
            eta_i = w[i] / (w[i] + ci)
        else:
            # logsumexp over j != i
            logs = [log_terms[j] for j in range(n) if j != i]
            top = max(logs)
            log_ci = top + math.log(math.fsum(math.exp(v - top) for v in logs))
            ci = math.inf
            # eta = 1 / (1 + exp(log_ci - log w_i))
            gap = log_ci - math.log(w[i])
            eta_i = 1.0 / (1.0 + math.exp(gap)) if gap < 700.0 else 0.0
        if eta_i <= 0.0:
            raise FloorUnderflow(f"eta[{i}] underflowed double precision")
        c.append(ci)
        eta.append(eta_i)

    delta = [FLOOR_SHRINK * e for e in eta]
    if n >= 2 and math.fsum(delta) >= 1.0:
        raise DegenerateFloors(
            f"floors sum to {math.fsum(delta)} >= 1; truncated simplex empty"
        )
    return HiderFloor(
        M=M, m=tuple(m), c=tuple(c), eta=tuple(eta), delta=tuple(delta)
    )
