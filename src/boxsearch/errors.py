"""Exception types raised across the package.

Every error derives from BoxSearchError so callers (and the CLI) can
distinguish bad input (InvalidGameError subclasses) from numerical
breakdown (NumericalError subclasses).
"""


class BoxSearchError(Exception):
    """Base class for all package errors."""


class InvalidGameError(BoxSearchError):
    """Base class for malformed game descriptions / strategies."""


class EmptyGame(InvalidGameError):
    pass


class NonPositiveTime(InvalidGameError):
    pass


class ProbabilityOutOfRange(InvalidGameError):
    pass


class InvalidHidingStrategy(InvalidGameError):
    pass


class InvalidMixture(InvalidGameError):
    """Searcher mixture weights malformed (negative or not summing to 1)."""


class CyclicInconsistent(InvalidGameError):
    """Declared cyclic structure disagrees with (1-alpha_i)^x_i = c."""


class NotCoprime(InvalidGameError):
    pass


class BaseOutOfRange(InvalidGameError):
    pass


class CapExceeded(InvalidGameError):
    """A game or request beyond a stated cap: the n! enumeration above
    the ordering cap, or a payoff series deeper than the depth cap."""


class InsufficientPrefix(BoxSearchError):
    """A request for more visits of a box than the sequence ever makes."""


class BoxNeverSearched(BoxSearchError):
    """Payoff requested for a box the sequence provably never visits."""


class NumericalError(BoxSearchError):
    """Base class for numerical breakdowns."""


class Infeasible(NumericalError):
    pass


class NumericalFailure(NumericalError):
    """Simplex pivot breakdown, even under Bland's rule."""


class DualInconsistent(NumericalError):
    """Complementary-slackness residual above tolerance."""
