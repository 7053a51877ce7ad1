"""Command-line interface.

Subcommands: solve, test-p0, batch, ruckle, two-box-study. Results print
as JSON on stdout; batch and ruckle write CSV files. Box indices in all
output are 1-based. Exit codes: 0 success, 2 invalid input, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import BoxSearchError, InvalidGameError, NumericalError
from .model import load_game, scheme_by_name
from .solver import SolveConfig, solve, test_p0_optimality, write_trace
from .study import (
    run_batch,
    ruckle_sweep,
    summarize,
    two_box_study,
    write_batch_csv,
    write_ruckle_csv,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    solution = solve(game, SolveConfig(epsilon=args.epsilon))
    if args.trace:
        write_trace(solution, args.trace)
    _emit({
        "value_lower": solution.L,
        "value_upper": solution.U,
        "gap": solution.gap,
        "iterations": solution.iterations,
        "termination": solution.termination.value,
        "p_star": list(solution.p_star.p),
        "theta": [
            {"weight": w, "sequence": seq.to_jsonable(length=32)}
            for w, seq in solution.theta_support()
        ],
    })
    return EXIT_OK


def _cmd_test_p0(args) -> int:
    game = load_game(args.game)
    result = test_p0_optimality(game)
    _emit({
        "optimal": result.optimal,
        "v_D": result.v_D,
        "u_p0_lower": result.u_p0.lower,
        "u_p0_upper": result.u_p0.upper,
        "sequences_used": result.sequences_used,
        "theta": [
            {"weight": w, "sequence": seq.to_jsonable(length=16)}
            for w, seq in zip(result.theta, result.sequences) if w > 0
        ],
    })
    return EXIT_OK


def _cmd_batch(args) -> int:
    scheme = scheme_by_name(args.scheme)
    records = run_batch(
        scheme, args.n, args.count, epsilon=args.epsilon, seed=args.seed
    )
    write_batch_csv(records, args.out)
    _emit({"out": args.out, **dataclasses.asdict(summarize(records))})
    return EXIT_OK


def _cmd_ruckle(args) -> int:
    alphas = [float(v) for v in args.alphas.split(",") if v.strip()]
    records = ruckle_sweep(alphas)
    if args.out:
        write_ruckle_csv(records, args.out)
    _emit({"records": [dataclasses.asdict(r) for r in records]})
    return EXIT_OK


def _cmd_two_box(args) -> int:
    result = two_box_study(args.count, seed=args.seed, epsilon=args.epsilon)
    _emit(result._asdict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxsearch",
        description="Solve zero-sum hide-and-search games with overlooks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game to an epsilon bracket")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--trace", help="write per-iteration CSV trace here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("test-p0", help="test optimality of the t/alpha heuristic")
    p.add_argument("game", help="path to a game JSON file")
    p.set_defaults(func=_cmd_test_p0)

    p = sub.add_parser("batch", help="sample games, test p0, solve the rest")
    p.add_argument("--scheme", required=True,
                   choices=["varied", "low", "medium", "high"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("ruckle", help="perfect-box-2 sweep over alpha values")
    p.add_argument("--alphas", required=True, help="comma-separated alphas")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_ruckle)

    p = sub.add_parser("two-box-study",
                       help="sign of p*_1 - p0_1 vs future benefit")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=_cmd_two_box)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidGameError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BoxSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
