"""Game instances, hiding strategies, benefit measures, and instance sampling.

A game has n boxes; searching box i takes t_i > 0 time units and finds a
hider in that box independently with probability alpha_i. alpha_i = 1
(perfect detection) is admitted only behind the allow_perfect flag; the
iterative solver and the p0 optimality test both handle such games. An
alpha_i so small that 1 - alpha_i rounds to 1 is refused. A
game is *cyclic* when (1-alpha_i)^x_i is the same base c for all boxes,
for coprime positive integers x_i; cyclic structure is declared by
construction (make_cyclic_game), never detected from floats.

Box indices are 0-based throughout the Python API; the JSON game format
and all serialized sequences use 1-based indices.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BaseOutOfRange,
    CyclicInconsistent,
    EmptyGame,
    InvalidHidingStrategy,
    NonPositiveTime,
    NotCoprime,
    ProbabilityOutOfRange,
)

Seed = int | np.random.SeedSequence | np.random.Generator

_CYCLIC_REL_TOL = 1e-12
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CyclicStructure:
    """Declared cyclic exponents x_i with common base c = (1-alpha_i)^x_i.

    x_hat is the number of searches per cycle (sum of x_i).
    """

    x: tuple[int, ...]
    c: float

    @property
    def x_hat(self) -> int:
        return sum(self.x)


@dataclass(frozen=True)
class SearchGame:
    """An n-box search game with times t and detection probabilities alpha."""

    t: tuple[float, ...]
    alpha: tuple[float, ...]
    cyclic: CyclicStructure | None = None
    allow_perfect: bool = False

    def __post_init__(self):
        # kept as float tuples, so integer times or probabilities enter the
        # float64 arithmetic of sequences and payoffs as floats
        object.__setattr__(self, "t", tuple(map(float, self.t)))
        object.__setattr__(self, "alpha", tuple(map(float, self.alpha)))
        if len(self.t) == 0:
            raise EmptyGame("a game needs at least one box")
        if len(self.t) != len(self.alpha):
            raise EmptyGame(
                f"t has {len(self.t)} entries but alpha has {len(self.alpha)}"
            )
        for i, ti in enumerate(self.t):
            if not (ti > 0) or not math.isfinite(ti):
                raise NonPositiveTime(f"t[{i}] = {ti} must be > 0")
        for i, ai in enumerate(self.alpha):
            if not (0.0 < ai <= 1.0):
                raise ProbabilityOutOfRange(f"alpha[{i}] = {ai} not in (0, 1]")
            # such a box's index never decays and its series never ends
            if 1.0 - ai == 1.0:
                raise ProbabilityOutOfRange(
                    f"alpha[{i}] = {ai} too small: 1 - alpha[{i}] rounds to 1"
                )
            if ai == 1.0 and not self.allow_perfect:
                raise ProbabilityOutOfRange(
                    f"alpha[{i}] = 1 requires allow_perfect"
                )
        if self.cyclic is not None:
            self._check_cyclic(self.cyclic)

    def _check_cyclic(self, cyc: CyclicStructure) -> None:
        if len(cyc.x) != self.n:
            raise CyclicInconsistent("cyclic x must have one entry per box")
        if any(xi < 1 or xi != int(xi) for xi in cyc.x):
            raise CyclicInconsistent("cyclic exponents must be integers >= 1")
        if math.gcd(*cyc.x) != 1:
            raise NotCoprime(f"gcd of cyclic exponents {cyc.x} is not 1")
        if not (0.0 < cyc.c < 1.0):
            raise BaseOutOfRange(f"cyclic base c = {cyc.c} not in (0, 1)")
        for i, (ai, xi) in enumerate(zip(self.alpha, cyc.x)):
            got = (1.0 - ai) ** xi
            if abs(got - cyc.c) > _CYCLIC_REL_TOL * cyc.c:
                raise CyclicInconsistent(
                    f"(1-alpha[{i}])^{xi} = {got} != declared base {cyc.c}"
                )

    @property
    def n(self) -> int:
        return len(self.t)

    @functools.cached_property
    def _derived(self) -> dict:
        """Quantities derived from the game once and kept on it, keyed by
        the function deriving them (see _once_per_game). Not a field, so
        outside eq, hash and repr."""
        return {}

    def has_perfect_box(self) -> bool:
        return any(a == 1.0 for a in self.alpha)

    def to_jsonable(self) -> dict:
        out: dict = {"t": list(self.t), "alpha": list(self.alpha)}
        if self.cyclic is not None:
            out["cyclic"] = {"c": self.cyclic.c, "x": list(self.cyclic.x)}
        if self.allow_perfect:
            out["allow_perfect"] = True
        return out


def _once_per_game(derive):
    """Memoize derive(game) on the game: kept on the game, the value dies
    with it."""

    @functools.wraps(derive)
    def memoized(game: SearchGame):
        derived = game._derived
        if derive not in derived:
            derived[derive] = derive(game)
        return derived[derive]

    return memoized


@dataclass(frozen=True)
class HidingStrategy:
    """Probability vector over boxes; the hider's mixed strategy."""

    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) == 0:
            raise InvalidHidingStrategy("empty probability vector")
        # min() steps over a NaN after the first entry, but the sum is
        # then NaN and fails below; a NaN first entry is the min
        if not min(self.p) >= 0:
            raise InvalidHidingStrategy(f"invalid probability in {self.p}")
        total = math.fsum(self.p)
        if not abs(total - 1.0) <= _SUM_TOL:
            raise InvalidHidingStrategy(f"probabilities sum to {total}, not 1")

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def full_support(self) -> bool:
        return all(pi > 0 for pi in self.p)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)


@dataclass(frozen=True)
class SampleScheme:
    """Uniform sampling ranges for random instances.

    alpha_i ~ U(alpha_low, alpha_high) and t_i ~ U(t_low, t_high),
    independently per box.
    """

    alpha_low: float
    alpha_high: float
    t_low: float = 1.0
    t_high: float = 5.0
    name: str = "custom"

    def __post_init__(self):
        if not (0.0 < self.alpha_low < self.alpha_high < 1.0):
            raise ProbabilityOutOfRange(
                f"need 0 < alpha_low < alpha_high < 1, got "
                f"[{self.alpha_low}, {self.alpha_high}]"
            )


SCHEMES: dict[str, SampleScheme] = {
    "varied": SampleScheme(0.1, 0.9, name="varied"),
    "low": SampleScheme(0.1, 0.5, name="low"),
    "medium": SampleScheme(0.3, 0.7, name="medium"),
    "high": SampleScheme(0.5, 0.9, name="high"),
}


def scheme_by_name(name: str) -> SampleScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ProbabilityOutOfRange(
            f"unknown scheme {name!r}; pick one of {sorted(SCHEMES)}"
        ) from None


def validate_game(raw: Mapping | SearchGame) -> SearchGame:
    """Build a validated SearchGame from a mapping (the JSON game format).

    Re-derives and checks the cyclic invariants when a cyclic structure is
    declared: the declared (c, x) must reproduce (1-alpha_i)^x_i = c.
    """
    if isinstance(raw, SearchGame):
        return raw
    if "t" not in raw or "alpha" not in raw:
        raise EmptyGame("game description needs 't' and 'alpha' arrays")
    t = tuple(float(v) for v in raw["t"])
    alpha = tuple(float(v) for v in raw["alpha"])
    allow_perfect = bool(raw.get("allow_perfect", False))
    cyclic = None
    if raw.get("cyclic") is not None:
        decl = raw["cyclic"]
        cyclic = CyclicStructure(
            x=tuple(int(v) for v in decl["x"]), c=float(decl["c"])
        )
    return SearchGame(t=t, alpha=alpha, cyclic=cyclic, allow_perfect=allow_perfect)


def load_game(path: str | Path) -> SearchGame:
    with open(path) as fh:
        return validate_game(json.load(fh))


@_once_per_game
def p0(game: SearchGame) -> HidingStrategy:
    """Hiding strategy proportional to t_i/alpha_i.

    Equalizes all n initial Gittins indices, so the searcher starts with
    no preference between boxes. Optimal for identical boxes and often a
    strong heuristic otherwise. Computed once per game.
    """
    w = [ti / ai for ti, ai in zip(game.t, game.alpha)]
    total = math.fsum(w)
    return HidingStrategy(tuple(wi / total for wi in w))


def value_bounds(game: SearchGame) -> tuple[float, float]:
    """(max_i t_i/alpha_i, sum_i t_i/alpha_i): certified bracket on v*.

    The hider secures the first by always hiding in the box maximizing
    t_i/alpha_i; the second is the value when the hider may relocate after
    every search, which a hider that stays put cannot exceed.
    """
    w = [ti / ai for ti, ai in zip(game.t, game.alpha)]
    return max(w), math.fsum(w)


def future_benefit(game: SearchGame, i: int) -> float:
    """-log(1-alpha_i)/t_i: information gained per unit time by an
    unsuccessful search of box i. Infinite for a perfect box."""
    ai = game.alpha[i]
    if ai == 1.0:
        return math.inf
    return -math.log1p(-ai) / game.t[i]


def sample_game(scheme: SampleScheme, n: int, seed: Seed) -> SearchGame:
    """Draw alpha_i ~ U(alpha_low, alpha_high), t_i ~ U(t_low, t_high).

    Reproducible: the same (scheme, n, seed) always yields the same game.
    """
    if n < 1:
        raise EmptyGame("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    alpha = rng.uniform(scheme.alpha_low, scheme.alpha_high, size=n)
    t = rng.uniform(scheme.t_low, scheme.t_high, size=n)
    return SearchGame(t=tuple(t.tolist()), alpha=tuple(alpha.tolist()))


def per_game_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-game stream derived from (seed, index).

    Keyed on the index, never on scheduling order, so batches are invariant
    under the degree of parallelism.
    """
    return np.random.SeedSequence((base_seed, index))


def make_cyclic_game(
    c: float, x: Sequence[int], t: Sequence[float]
) -> SearchGame:
    """Construct a cyclic game: alpha_i = 1 - c^(1/x_i).

    The exponents must be coprime overall (gcd 1) and the base c in (0,1).
    The resulting game always passes validate_game's cyclic check.
    """
    x = tuple(int(v) for v in x)
    t = tuple(float(v) for v in t)
    if len(x) == 0 or len(x) != len(t):
        raise EmptyGame("x and t must be equal-length and nonempty")
    if any(xi < 1 for xi in x):
        raise NotCoprime(f"exponents must be positive integers, got {x}")
    if math.gcd(*x) != 1:
        raise NotCoprime(f"gcd of exponents {x} is not 1")
    if not (0.0 < c < 1.0):
        raise BaseOutOfRange(f"base c = {c} not in (0, 1)")
    alpha = tuple(1.0 - c ** (1.0 / xi) for xi in x)
    return SearchGame(t=t, alpha=alpha, cyclic=CyclicStructure(x=x, c=c))
