"""Command-line surface tying the library together.

Subcommands: ``classify-demo``, ``solve-game``, ``simulate-repeated``,
``mwu``, ``compare``, ``report``. Exit codes: 0 success, 2 invalid input,
1 internal error. ``--format csv`` swaps the aligned text tables for CSV on
stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np

from .decisions import (
    CostMatrix,
    bayes_classifier,
    bayes_risk,
    constant_classifier,
    monte_carlo_cost,
    overlap_deterministic,
    randomized_bayes_classifier,
)
from .errors import InputError
from .jsonio import read_json_source
from .games import (
    HarmScenario,
    MixedStrategy,
    build_harm_game,
    build_matching_pennies,
    build_rock_paper_scissors,
    fictitious_play,
    is_nash,
    load_game,
    solve_zero_sum,
)
from .mixtures import Mixture, UniformInterval, load_mixture
from .ordinal import mann_whitney_u
from .repeated import FrequencyExploiter, MixedPolicy, PurePolicy, run_repeated
from .report import CSV_HEADER, comparison_row, run_report
from .survey import compare_groups, load_survey_csv

__all__ = ["main"]


def _emit(headers: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _num(v: float) -> str:
    return f"{v:.6g}"


def _parse_number(text: str, kind: type, what: str):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{what}: {text!r} is not {'an integer' if kind is int else 'a number'}") from None


def _load_cost(source: str, label_count: int) -> CostMatrix:
    if source == "zero-one":
        return CostMatrix.zero_one(label_count)
    values = read_json_source(source, "cost")
    try:
        values = np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"cost document is not a numeric matrix: {exc}") from exc
    return CostMatrix(values)


def _overlap_geometry(mixture: Mixture) -> tuple[float, float] | None:
    """(a, b) when the mixture is the canonical two-uniform overlap setting."""
    if mixture.label_count != 2:
        return None
    d0, d1 = (c.density for c in mixture.components)
    if not (isinstance(d0, UniformInterval) and isinstance(d1, UniformInterval)):
        return None
    if abs((d0.hi - d0.lo) - (d1.hi - d1.lo)) > 1e-12 or abs(d0.lo) > 1e-12:
        return None
    if any(abs(p - 0.5) > 1e-12 for p in mixture.priors):
        return None
    a, b = d1.lo, d0.hi
    return (a, b) if a >= 0 and b > 0 else None


def _cmd_classify_demo(args: argparse.Namespace) -> int:
    mixture = load_mixture(args.mixture)
    cost = _load_cost(args.cost, mixture.label_count)
    geometry = _overlap_geometry(mixture)
    name = args.classifier
    if name == "bayes":
        clf = bayes_classifier(mixture, cost)
    elif name == "mr":
        clf = randomized_bayes_classifier(mixture, cost)
    elif name == "md":
        if geometry is None:
            raise InputError("md needs the two-uniform overlap mixture (supports [0,b] and [a,a+b], equal priors)")
        clf = overlap_deterministic(*geometry)
    elif name.startswith("constant:"):
        label = _parse_number(name.split(":", 1)[1], int, f"classifier {name!r}")
        clf = constant_classifier(label, mixture.label_count)
    else:
        raise InputError(f"unknown classifier {name!r} (expected bayes|md|mr|constant:LABEL)")

    estimate = monte_carlo_cost(mixture, cost, clf, args.n, args.seed)
    analytic = ""
    intervals = all(isinstance(c.density, UniformInterval) for c in mixture.components)
    if name.startswith("constant:"):
        analytic = _num(float(mixture.priors @ cost.values[:, clf.decide(np.zeros(mixture.dimension))]))
    elif intervals and (name != "md" or np.array_equal(cost.values, CostMatrix.zero_one(2).values)):
        # md costs the Bayes risk only under 0-1 cost
        analytic = _num(bayes_risk(mixture, cost))
    _emit(
        ["classifier", "n", "seed", "mean_cost", "std_error", "analytic"],
        [[clf.name, str(args.n), str(args.seed), _num(estimate.mean_cost), _num(estimate.standard_error), analytic]],
        args.format,
    )
    return 0


def _parse_game(args: argparse.Namespace):
    if args.harm:
        try:
            m_x, v_x, m_y, v_y = (float(t) for t in args.harm.split(","))
        except ValueError:
            raise InputError("--harm expects four comma-separated numbers: mX,vX,mY,vY") from None
        return build_harm_game(HarmScenario(m_x, v_x, m_y, v_y))
    source = args.game
    if source == "mp":
        return build_matching_pennies()
    if source == "rps":
        return build_rock_paper_scissors()
    if source is None:
        raise InputError("no game given: use --game mp|rps|<json> or --harm mX,vX,mY,vY")
    return load_game(source)


def _cmd_solve_game(args: argparse.Namespace) -> int:
    game = _parse_game(args)
    if args.method == "exact":
        solution = solve_zero_sum(game)
        profile, value, tol = solution.profile, solution.value, 1e-9
    else:
        result = fictitious_play(game, args.iters, args.seed)
        profile, value, tol = result.profile, result.value_estimate, 0.05
    rows = [
        ["row", " ".join(_num(p) for p in profile.row.probs)],
        ["col", " ".join(_num(p) for p in profile.col.probs)],
        ["value", _num(value)],
        [f"is_nash(tol={tol:g})", str(is_nash(game, profile, tol)).lower()],
    ]
    _emit(["field", "value"], rows, args.format)
    return 0


def _parse_policy(text: str):
    if text == "exploiter":
        return FrequencyExploiter()
    if text.startswith("pure:"):
        return PurePolicy(_parse_number(text.split(":", 1)[1], int, f"policy {text!r}"))
    if text.startswith("mixed:"):
        probs = [_parse_number(t, float, f"policy {text!r}") for t in text.split(":", 1)[1].split(",")]
        return MixedPolicy(MixedStrategy(np.asarray(probs)))
    raise InputError(f"unknown policy {text!r} (expected pure:i|mixed:p1,p2,...|exploiter)")


def _cmd_simulate_repeated(args: argparse.Namespace) -> int:
    game = _parse_game(args)
    row = _parse_policy(args.row)
    col = _parse_policy(args.col)
    trace, summary = run_repeated(game, row, col, args.rounds, args.seed)
    if args.trace:
        trace.write_csv(args.trace)
    rows = [
        ["avg_row_payoff", _num(summary.avg_row_payoff)],
        ["avg_col_payoff", _num(summary.avg_col_payoff)],
        ["row_frequencies", " ".join(_num(f) for f in summary.row_frequencies)],
        ["col_frequencies", " ".join(_num(f) for f in summary.col_frequencies)],
        ["rounds", str(args.rounds)],
        ["seed", str(args.seed)],
    ]
    _emit(["field", "value"], rows, args.format)
    return 0


def _parse_values(text: str, flag: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _cmd_mwu(args: argparse.Namespace) -> int:
    result = mann_whitney_u(_parse_values(args.x, "--x"), _parse_values(args.y, "--y"))
    rows = [
        [
            _num(result.u_x),
            _num(result.u_y),
            _num(result.z) if not result.degenerate else "nan",
            _num(result.p_two_sided),
            str(result.tie_corrected).lower(),
            str(result.degenerate).lower(),
        ]
    ]
    _emit(["u_x", "u_y", "z", "p_two_sided", "tie_corrected", "degenerate"], rows, args.format)
    return 0


def _split_list(text: str | None) -> list[str]:
    if not text:
        return []
    return [t.strip() for t in text.split(",") if t.strip()]


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_survey_csv(args.data, args.categories)
    groups = _split_list(args.groups)
    if len(groups) != 2:
        raise InputError("--groups expects exactly two comma-separated names")
    comp = compare_groups(
        dataset, args.question, groups[0], groups[1], args.alpha, frozenset(_split_list(args.categorical))
    )
    _emit(CSV_HEADER, [comparison_row(comp)], args.format)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = load_survey_csv(args.data, args.categories)
    bundle = run_report(
        dataset,
        questions=_split_list(args.questions) or None,
        groups=_split_list(args.groups) or None,
        alpha=args.alpha,
        categorical=frozenset(_split_list(args.categorical)),
        category_labels=tuple(_split_list(args.labels)) or None,
        neutral_index=args.neutral_index,
        out_dir=args.out_dir,
    )
    for path in bundle.written_files:
        print(f"wrote {path}")
    for rep in bundle.questions:
        for note in rep.notes:
            print(f"note: {rep.question}: {note}")
    rows = [comparison_row(comp) for rep in bundle.questions for comp in rep.comparisons]
    # the CSV always has its header; the table is left out when nothing was compared
    if rows or args.format == "csv":
        _emit(CSV_HEADER, rows, args.format)
    return 0


def _seed(text: str) -> int:
    if not 0 <= int(text) < 2**64:
        raise argparse.ArgumentTypeError(f"must satisfy 0 <= seed < 2**64, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=["table", "csv"], default="table", help="stdout format")
    seeded = argparse.ArgumentParser(add_help=False, parents=[shared])
    seeded.add_argument("--seed", type=_seed, default=0, help="64-bit seed for anything stochastic")
    game_args = argparse.ArgumentParser(add_help=False, parents=[seeded])
    game_args.add_argument("--game", help="mp|rps|game JSON (path or inline)")
    game_args.add_argument("--harm", help="harm scenario mX,vX,mY,vY (overrides --game)")
    survey_args = argparse.ArgumentParser(add_help=False, parents=[shared])
    survey_args.add_argument("--data", required=True, help="survey CSV path")
    survey_args.add_argument("--alpha", type=float, default=0.05)
    survey_args.add_argument("--categories", type=int, default=5, help="number of response categories")
    survey_args.add_argument("--categorical", help="unordered question ids: grouped bars, no rank test")

    parser = argparse.ArgumentParser(prog="randrule", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-demo", parents=[seeded], help="Monte Carlo cost of a classifier on a known mixture")
    p.add_argument("--mixture", required=True, help="mixture JSON (path or inline)")
    p.add_argument("--cost", default="zero-one", help="'zero-one' or a cost matrix JSON (path or inline)")
    p.add_argument("--classifier", required=True, help="bayes|md|mr|constant:LABEL")
    p.add_argument("--n", type=int, default=100_000, help="number of sampled cases")
    p.set_defaults(func=_cmd_classify_demo)

    p = sub.add_parser("solve-game", parents=[game_args], help="equilibrium of a zero-sum game")
    p.add_argument("--method", choices=["exact", "fp"], default="exact")
    p.add_argument("--iters", type=int, default=100_000, help="fictitious-play iterations")
    p.set_defaults(func=_cmd_solve_game)

    p = sub.add_parser("simulate-repeated", parents=[game_args], help="repeated play between two policies")
    p.add_argument("--row", required=True, help="pure:i|mixed:p1,p2,...|exploiter")
    p.add_argument("--col", required=True, help="pure:i|mixed:p1,p2,...|exploiter")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--trace", help="write the per-round trace CSV here")
    p.set_defaults(func=_cmd_simulate_repeated)

    p = sub.add_parser("mwu", parents=[shared], help="Mann-Whitney U test on two samples")
    p.add_argument("--x", required=True, help="comma-separated sample values")
    p.add_argument("--y", required=True, help="comma-separated sample values")
    p.set_defaults(func=_cmd_mwu)

    p = sub.add_parser("compare", parents=[survey_args], help="rank-compare two groups from a survey CSV")
    p.add_argument("--question", required=True)
    p.add_argument("--groups", required=True, help="two comma-separated group names")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", parents=[survey_args], help="full per-question report: charts plus comparisons")
    p.add_argument("--questions", help="comma-separated question ids (default: all)")
    p.add_argument("--groups", help="comma-separated group names (default: all)")
    p.add_argument("--labels", help="comma-separated category labels")
    p.add_argument("--neutral-index", type=int, default=None, help="0-based neutral category index")
    p.add_argument("--out-dir", default=".", help="directory for the CSV and SVG files")
    p.set_defaults(func=_cmd_report)
    return parser


# parsing leaves a parser unchanged, so one serves every call of ``main`` in a process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
