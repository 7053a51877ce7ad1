"""Wrap sites for the traced run, and the per-layer metrics they yield.

Layers, by the public functions each one calls into the next:

- study:   study.run_batch (entered by the benchmark)
- solver:  solver.solve / solver.test_p0_optimality (entered by the
           benchmark) and study.{solve, test_p0_optimality,
           best_response_value}: loop bookkeeping and pool comparisons
- bounds:  solver.hider_floor
- lp:      solver.{solve_hider_lp, recover_searcher_mixture}
- payoff:  solver.{payoff, payoff_cyclic, expected_payoff}, and
           payoff.payoff because expected_payoff calls it
- gittins: solver.{gittins_sequence, cyclic_sequence} and
           SearchSequence.{ensure_visits, ensure_length}, where lazy
           generation actually runs
- other:   the harness's own share of each game span

Times are self times in ms per game; counts are per game unless the
unit says otherwise.
"""

from __future__ import annotations

import importlib

from spans import Tracer, layer_self_times

# the package re-exports a function named payoff, which shadows the
# submodule as an attribute, so the modules are looked up by full name
gittins, payoff, solver, study = (
    importlib.import_module(f"boxsearch.{name}")
    for name in ("gittins", "payoff", "solver", "study")
)

LAYER_ORDER = ("gittins", "payoff", "lp", "solver", "bounds", "study", "other")


def _seq_len(args):
    return len(args[0])


def _grown(args, result, before):
    return len(args[0]) - before


def _built(args, result, entered):
    return len(result)


def _depth(args, result, entered):
    return None if result.is_infinite else result.searches_used


def _columns(args, result, entered):
    u = args[0]
    return getattr(u, "u", u).shape[1]


def _solve_info(args, result, entered):
    return {"iterations": result.iterations, "stored": len(result.sequences)}


def _p0_info(args, result, entered):
    return {"optimal": result.optimal, "stored": result.sequences_used}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; a missing name is recorded as absent."""
    for attr in ("ensure_visits", "ensure_length"):
        tracer.wrap(gittins.SearchSequence, attr, f"SearchSequence.{attr}",
                    enter=_seq_len, leave=_grown)
    for attr in ("gittins_sequence", "cyclic_sequence"):
        tracer.wrap(solver, attr, f"solver.{attr}", leave=_built)
    tracer.wrap(solver, "payoff", "solver.payoff", leave=_depth)
    tracer.wrap(payoff, "payoff", "payoff.payoff", leave=_depth)
    tracer.wrap(solver, "expected_payoff", "solver.expected_payoff")
    tracer.wrap(solver, "payoff_cyclic", "solver.payoff_cyclic")
    tracer.wrap(solver, "solve_hider_lp", "solver.solve_hider_lp",
                leave=_columns)
    tracer.wrap(solver, "recover_searcher_mixture",
                "solver.recover_searcher_mixture")
    tracer.wrap(solver, "hider_floor", "solver.hider_floor")
    for owner, prefix in ((solver, "solver"), (study, "study")):
        tracer.wrap(owner, "solve", f"{prefix}.solve", leave=_solve_info)
        tracer.wrap(owner, "test_p0_optimality",
                    f"{prefix}.test_p0_optimality", leave=_p0_info)
    tracer.wrap(study, "best_response_value", "study.best_response_value")
    tracer.wrap(study, "run_batch", "study.run_batch")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, games: int,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over `games` traced games.

    untraced_s is the timed wall time of the same games without tracing,
    for the overhead figure. Layers absent from some workload (bounds
    without a solve, study outside the study workload) are reported as
    shares of game time, so that no time metric is structurally zero.
    """
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def infos(*names):
        return [s.info for n in names for s in by_name.get(n, ())
                if not s.raised and s.info is not None]

    game_s = sum(s.end - s.start for s in by_name.get("game", ()))
    own = layer_self_times(spans)
    per_game_ms = {layer: 1e3 * own.get(layer, 0.0) / games
                   for layer in LAYER_ORDER}
    share = {layer: 100.0 * own.get(layer, 0.0) / game_s
             for layer in LAYER_ORDER}

    steps = sum(infos("SearchSequence.ensure_visits",
                      "SearchSequence.ensure_length", "solver.cyclic_sequence",
                      "solver.gittins_sequence"))
    built = len(infos("solver.gittins_sequence", "solver.cyclic_sequence"))
    depths = infos("solver.payoff", "payoff.payoff")
    columns = infos("solver.solve_hider_lp")
    lp_calls = len(by_name.get("solver.solve_hider_lp", ()))
    solves = infos("solver.solve", "study.solve")
    p0_tests = infos("solver.test_p0_optimality", "study.test_p0_optimality")
    iterations = [s["iterations"] for s in solves]
    stored = sum(r["stored"] for r in solves + p0_tests)

    m = {
        "game.ms": (1e3 * game_s / games, "ms"),
        "other.self_ms": (per_game_ms["other"], "ms"),
        "gittins.self_ms": (per_game_ms["gittins"], "ms"),
        "gittins.share_pct": (share["gittins"], "%"),
        "gittins.steps": (steps / games, "count/game"),
        "gittins.us_per_step": (
            1e6 * own.get("gittins", 0.0) / steps if steps else 0.0, "us"),
        "gittins.sequences": (built / games, "count/game"),
        "payoff.self_ms": (per_game_ms["payoff"], "ms"),
        "payoff.share_pct": (share["payoff"], "%"),
        "payoff.series_calls": (
            (len(by_name.get("solver.payoff", ()))
             + len(by_name.get("payoff.payoff", ()))) / games, "count/game"),
        "payoff.cyclic_calls": (
            len(by_name.get("solver.payoff_cyclic", ())) / games, "count/game"),
        "payoff.depth_R_mean": (_mean(depths), "count"),
        "payoff.depth_R_max": (max(depths, default=0), "count"),
        "lp.self_ms": (per_game_ms["lp"], "ms"),
        "lp.share_pct": (share["lp"], "%"),
        "lp.calls": (lp_calls / games, "count/game"),
        "lp.ms_per_call": (
            1e3 * own.get("lp", 0.0) / lp_calls if lp_calls else 0.0, "ms"),
        "lp.columns_mean": (_mean(columns), "count"),
        "lp.columns_max": (max(columns, default=0), "count"),
        "solver.self_ms": (per_game_ms["solver"], "ms"),
        "solver.share_pct": (share["solver"], "%"),
        "solver.iterations_mean": (_mean(iterations), "count"),
        "solver.iterations_max": (max(iterations, default=0), "count"),
        "solver.sequences_stored": (stored / games, "count/game"),
        "solver.dedupe_keep_ratio": (stored / built if built else 0.0, "ratio"),
        "solver.p0_optimal": (
            sum(1 for r in p0_tests if r["optimal"]) / games, "count/game"),
        "bounds.share_pct": (share["bounds"], "%"),
        "bounds.errors": (
            sum(1 for s in by_name.get("solver.hider_floor", ()) if s.raised),
            "count"),
        "study.share_pct": (share["study"], "%"),
        "other.share_pct": (share["other"], "%"),
        "trace.overhead_pct": (100.0 * (game_s / untraced_s - 1.0), "%"),
    }
    return m
