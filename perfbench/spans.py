"""In-memory span recording around boxsearch's layer boundaries.

A span is one call through a wrapped name. Each carries its name, start
and end (perf_counter seconds), the index of its parent span, the game
it belongs to, whether it raised, and a small measurement taken at the
boundary (sequence steps realized, LP columns, truncation depth, ...).
Spans stay in memory until the run ends.

The wraps replace names where the caller looks them up: module globals
for functions imported into `boxsearch.solver`, `boxsearch.payoff` and
`boxsearch.study`, and class attributes for the lazy-extension methods of
`SearchSequence`. A name missing from its module is recorded as absent
rather than failing, so the benchmark keeps running when a later version
of the package drops a wrap site.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter

# span name -> layer; the root span of each game is the harness itself
LAYERS = {
    "game": "other",
    "study.run_batch": "study",
    "solver.solve": "solver",
    "solver.test_p0_optimality": "solver",
    "study.solve": "solver",
    "study.test_p0_optimality": "solver",
    "study.best_response_value": "solver",
    "solver.hider_floor": "bounds",
    "solver.solve_hider_lp": "lp",
    "solver.recover_searcher_mixture": "lp",
    "solver.payoff": "payoff",
    "solver.payoff_cyclic": "payoff",
    "solver.expected_payoff": "payoff",
    "payoff.payoff": "payoff",
    "solver.gittins_sequence": "gittins",
    "solver.cyclic_sequence": "gittins",
    "SearchSequence.ensure_visits": "gittins",
    "SearchSequence.ensure_length": "gittins",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    game: int
    raised: bool = False
    info: object = None


@dataclass
class Tracer:
    """Records spans for wrapped callables; one tracer per run."""

    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    game: int = -1
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def call(self, name: str, fn, args, kwargs, enter=None, leave=None):
        """Run fn(*args, **kwargs) inside a span called name.

        enter(args) runs before the call; leave(args, result, entered)
        after it returns, and its value becomes the span's info.
        """
        entered = enter(args) if enter is not None else None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), 0.0, parent, self.game)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.end = perf_counter()
            span.raised = True
            raise
        else:
            span.end = perf_counter()
            if leave is not None:
                span.info = leave(args, result, entered)
            return result
        finally:
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, enter=None, leave=None):
        """Replace owner.attr by a traced version, or note it as absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, enter, leave)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The process is single-threaded, so children of one span never
    overlap and their durations simply add up.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer, in seconds; unknown names count as
    'other'."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = LAYERS.get(span.name, "other")
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
