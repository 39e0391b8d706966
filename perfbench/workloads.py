"""The four benchmark workloads: seeded inputs, one op, and its checks.

Each workload is a closed loop with one client: the benchmark sends one op,
waits for it to finish, checks it, then sends the next. An op is a few
in-process calls to ``randrule.cli.main`` with stdout captured, plus the
library calls the demos make. Each op reproduces one claim of the paper and
checks it, against closed forms, scipy or category histograms where one
exists.

All ops of one run use the same inputs, made from the workload seed, so
every op's output bytes must also equal those of the first op of the run.

The tracer rebinds ``monte_carlo_cost`` and ``exploitability_report`` in
this module, so ops must look them up as module globals at call time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from randrule import cli
from randrule.decisions import CostMatrix, monte_carlo_cost, nearest_mean_classifier
from randrule.games import MixedProfile, MixedStrategy, build_rock_paper_scissors, is_nash, zero_sum_game
from randrule.mixtures import gaussian_mixture
from randrule.repeated import PurePolicy, exploitability_report

__all__ = ["WORKLOADS"]


@dataclass
class Call:
    """One ``cli.main`` invocation and what it printed."""

    argv: list[str]
    rc: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return Call(argv, rc, out.getvalue(), err.getvalue())


def _fields(stdout: str) -> dict[str, list[str]]:
    """``field  value...`` table rows as {field: [tokens]}."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        head, *rest = line.split()
        rows[head] = rest
    return rows


def _table_row(stdout: str) -> dict[str, str]:
    """The single data row of a one-row table, keyed by header."""
    header, row = stdout.splitlines()[:2]
    return dict(zip(header.split(), row.split()))


def _print_rounding(printed: str) -> float:
    """Half a unit in the last digit of a value printed with 6 significant digits."""
    v = abs(float(printed))
    return 0.0 if v == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(v)) - 5)


def _hex(*values) -> bytes:
    return " ".join(float(v).hex() for v in values).encode()


def _op_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1, np.uint64)[0])


class Workload:
    """Base: ``__init__`` makes the inputs; ``op`` is what gets timed."""

    name = ""
    item_unit = ""
    items = 0

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def oracle(self) -> dict:
        """Expected results that need extra work (scipy); computed once, untimed."""
        return {}

    def reset(self) -> None:
        """Remove files an earlier op wrote, so each op must write its own."""

    def op(self) -> dict:
        raise NotImplementedError

    def outputs(self, res: dict) -> list[bytes]:
        """Every byte the op produced, for the same-seed-same-bytes check."""
        return [f"{c.argv} {c.rc}\n{c.stdout}\n{c.stderr}".encode() for c in res.values() if isinstance(c, Call)]

    def check(self, res: dict, expected: dict) -> list[str]:
        raise NotImplementedError


OVERLAP_MIXTURE = json.dumps(
    {
        "components": [
            {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
            {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
        ]
    }
)


class McOverlap(Workload):
    """md then mr on the overlap mixture a=0.5, b=1, same seed, n=1e6 each."""

    name = "mc-overlap"
    item_unit = "sampled cases"
    n = 1_000_000
    items = 2 * n

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mc_seed = _op_seed(seed, 1)

    def op(self):
        return {
            clf: run_cli(
                ["classify-demo", "--mixture", OVERLAP_MIXTURE, "--classifier", clf,
                 "--n", str(self.n), "--seed", str(self.mc_seed)]
            )
            for clf in ("md", "mr")
        }

    def check(self, res, expected):
        fails = []
        band = 4.0 * math.sqrt(0.25 * 0.75 / self.n)
        for clf, call in res.items():
            if call.rc != 0:
                fails.append(f"{clf}: exit {call.rc}: {call.stderr.strip()}")
                continue
            mean = float(_table_row(call.stdout)["mean_cost"])
            if abs(mean - 0.25) > band:
                fails.append(f"{clf}: mean cost {mean} is more than 4 SE from 0.25")
        return fails


class McGauss(Workload):
    """Bayes via the CLI and nearest-mean via the library, 10 Gaussians in 8-D."""

    name = "mc-gauss"
    item_unit = "sampled cases"
    n = 200_000
    items = 2 * n
    k, d = 10, 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
        self.means = rng.normal(0.0, 1.5, size=(self.k, self.d))
        self.mixture_json = json.dumps(
            {
                "dimension": self.d,
                "components": [
                    {"prior": 1.0 / self.k, "density": {"kind": "gaussian", "mean": m.tolist(), "lambda": 1.0}}
                    for m in self.means
                ],
            }
        )
        self.mixture = gaussian_mixture(self.means, 1.0)
        self.cost = CostMatrix.zero_one(self.k)
        self.mc_seed = _op_seed(seed, 3)

    def op(self):
        bayes = run_cli(
            ["classify-demo", "--mixture", self.mixture_json, "--classifier", "bayes",
             "--n", str(self.n), "--seed", str(self.mc_seed)]
        )
        nearest = monte_carlo_cost(self.mixture, self.cost, nearest_mean_classifier(self.mixture), self.n, self.mc_seed)
        return {"bayes": bayes, "nearest": nearest}

    def outputs(self, res):
        est = res["nearest"]
        return super().outputs(res) + [_hex(est.mean_cost, est.standard_error)]

    def check(self, res, expected):
        call = res["bayes"]
        if call.rc != 0:
            return [f"bayes: exit {call.rc}: {call.stderr.strip()}"]
        printed = _table_row(call.stdout)["mean_cost"]
        gap = abs(float(printed) - res["nearest"].mean_cost)
        if gap > 1.0 / self.n + _print_rounding(printed):
            return [f"bayes {printed} and nearest-mean {res['nearest'].mean_cost} differ by more than one case"]
        return []


# a 3x3 zero-sum game with no closed-form shortcut in game_value; exact value 1/2
GAME_3X3 = [[3.0, -1.0, 0.0], [-2.0, 4.0, 1.0], [0.0, 1.0, -3.0]]


class Play(Workload):
    """FP on RPS, pure vs exploiter on RPS, exploiter vs exploiter on matching
    pennies, and the exploitability report of a pure habit on a 3x3 game."""

    name = "play"
    item_unit = "FP iterations + repeated-play rounds"
    iters = 20_000
    rounds = 20_000
    report_rounds = 1_000
    # the FP iterations game_value runs inside the report are not counted:
    # they are how the value is computed, not work the caller asked for
    items = iters + 2 * rounds + report_rounds

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fp_seed = _op_seed(seed, 4)
        self.match_seed = _op_seed(seed, 5)
        self.report_seed = _op_seed(seed, 6)
        self.trace_path = workdir / "trace.csv"
        self.game = zero_sum_game(GAME_3X3)

    def oracle(self):
        from scipy.optimize import linprog

        # max v  s.t.  x^T A >= v for every column, sum x = 1, x >= 0
        A = np.asarray(GAME_3X3)
        rows, cols = A.shape
        lp = linprog(
            c=np.r_[np.zeros(rows), -1.0],
            A_ub=np.c_[-A.T, np.ones(cols)],
            b_ub=np.zeros(cols),
            A_eq=np.r_[np.ones(rows), 0.0].reshape(1, -1),
            b_eq=[1.0],
            bounds=[(0, None)] * rows + [(None, None)],
            method="highs",
        )
        if not lp.success:
            raise RuntimeError(f"linprog failed on the 3x3 game: {lp.message}")
        return {"value_3x3": float(-lp.fun)}

    def reset(self):
        self.trace_path.unlink(missing_ok=True)

    def op(self):
        return {
            "fp": run_cli(["solve-game", "--game", "rps", "--method", "fp",
                           "--iters", str(self.iters), "--seed", str(self.fp_seed)]),
            "pure": run_cli(["simulate-repeated", "--game", "rps", "--row", "pure:0", "--col", "exploiter",
                             "--rounds", str(self.rounds), "--seed", str(self.match_seed),
                             "--trace", str(self.trace_path)]),
            "mutual": run_cli(["simulate-repeated", "--game", "mp", "--row", "exploiter", "--col", "exploiter",
                               "--rounds", str(self.rounds), "--seed", str(self.match_seed)]),
            "report": exploitability_report(self.game, PurePolicy(0), self.report_rounds, self.report_seed),
        }

    def outputs(self, res):
        rep = res["report"]
        return super().outputs(res) + [
            self.trace_path.read_bytes(),
            _hex(rep.exploiter_avg_payoff, rep.policy_avg_payoff, rep.game_value, rep.payoff_gap,
                 *rep.policy_frequencies),
        ]

    def check(self, res, expected):
        fails = [f"{k}: exit {c.rc}: {c.stderr.strip()}" for k, c in res.items() if isinstance(c, Call) and c.rc]
        if fails:
            return fails
        fp = _fields(res["fp"].stdout)
        x = np.array([float(t) for t in fp["row"]])
        y = np.array([float(t) for t in fp["col"]])
        if np.abs(np.r_[x, y] - 1.0 / 3.0).max() > 0.05:
            fails.append(f"fp: mix {x} / {y} is not within 0.05 of 1/3")
        profile = MixedProfile(MixedStrategy(x / x.sum()), MixedStrategy(y / y.sum()))
        if not is_nash(build_rock_paper_scissors(), profile, 0.05) or fp["is_nash(tol=0.05)"] != ["true"]:
            fails.append("fp: the returned profile is not a 0.05-Nash equilibrium")
        # RPS has value 0, so the gap is minus the pure player's average payoff
        gap = -float(_fields(res["pure"].stdout)["avg_row_payoff"][0])
        if gap < 0.9:
            fails.append(f"pure vs exploiter: gap {gap} < 0.9")
        with open(self.trace_path, newline="") as fh:
            trace_rows = sum(1 for _ in fh) - 1
        if trace_rows != self.rounds:
            fails.append(f"pure vs exploiter: trace has {trace_rows} rounds, expected {self.rounds}")
        mutual = float(_fields(res["mutual"].stdout)["avg_row_payoff"][0])
        if abs(mutual) > 0.05:
            fails.append(f"exploiter vs exploiter: average payoff {mutual} is not within 0.05 of the value 0")
        value = res["report"].game_value
        if abs(value - expected["value_3x3"]) > 0.01:
            fails.append(f"3x3 report: value {value} is not within 0.01 of linprog's {expected['value_3x3']}")
        return fails


class SurveyReport(Workload):
    """``report`` on a synthetic long-form survey CSV of about 80k rows."""

    name = "survey-report"
    item_unit = "survey CSV rows"
    groups = ("teachers", "online", "visitors", "academics")
    group_sizes = (6003, 4002, 2001, 1334)
    questions = tuple(f"q{i}" for i in range(1, 7))
    categorical = "q6"
    k = 5
    missing = 0.02
    items = sum(group_sizes) * len(questions)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
        people = sum(self.group_sizes)
        q = len(self.questions)
        # respondents come in a shuffled group order; answers per (question,
        # group) follow their own category weights, so some groups differ
        group_of = rng.permutation(np.repeat(np.arange(len(self.groups)), self.group_sizes))
        weights = rng.dirichlet(np.full(self.k, 2.0), size=(q, len(self.groups)))
        cum = np.cumsum(weights, axis=2)
        u = rng.random((people, q))
        answers = np.empty((people, q), dtype=np.int64)
        for j in range(q):
            answers[:, j] = 1 + (u[:, j, None] >= cum[j, group_of][:, :-1]).sum(axis=1)
        answers[rng.random((people, q)) < self.missing] = 0
        self.group_of, self.answers = group_of, answers
        lines = ["respondent_id,group,question,response"]
        for r in range(people):
            g = self.groups[group_of[r]]
            for j, question in enumerate(self.questions):
                a = answers[r, j]
                lines.append(f"r{r:05d},{g},{question},{a if a else ''}")
        self.csv_path = workdir / "survey.csv"
        self.csv_path.write_text("\n".join(lines) + "\n")
        self.out_dir = workdir / "report"

    def oracle(self):
        from scipy.stats import mannwhitneyu

        first_seen = list(dict.fromkeys(self.group_of.tolist()))
        expected = {}
        for j, question in enumerate(self.questions):
            if question == self.categorical:
                continue
            hist = np.zeros((len(self.groups), self.k + 1), dtype=np.int64)
            np.add.at(hist, (self.group_of, self.answers[:, j]), 1)
            hist = hist[:, 1:]
            for ga, gb in combinations(first_seen, 2):
                a, b = hist[ga], hist[gb]
                # pairs (x from a, y from b) with y < x, ties worth half
                u = float((a * (np.cumsum(b) - b)).sum() + 0.5 * (a * b).sum())
                xs = np.repeat(np.arange(1, self.k + 1), a)
                ys = np.repeat(np.arange(1, self.k + 1), b)
                p = mannwhitneyu(xs, ys, use_continuity=True, alternative="two-sided", method="asymptotic").pvalue
                expected[(question, self.groups[ga], self.groups[gb])] = (u, float(p))
        return expected

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        return {
            "report": run_cli(["report", "--data", str(self.csv_path), "--out-dir", str(self.out_dir),
                               "--categorical", self.categorical])
        }

    def outputs(self, res):
        files = sorted(self.out_dir.iterdir()) if self.out_dir.is_dir() else []
        return super().outputs(res) + [p.name.encode() + b"\n" + p.read_bytes() for p in files]

    def check(self, res, expected):
        call = res["report"]
        if call.rc != 0:
            return [f"report: exit {call.rc}: {call.stderr.strip()}"]
        svgs = sorted(p.name for p in self.out_dir.glob("*.svg"))
        if svgs != [f"{q}.svg" for q in self.questions]:
            return [f"report: wrote charts {svgs}"]
        with open(self.out_dir / "comparisons.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fails = []
        got = {(r["question"], r["group_a"], r["group_b"]): r for r in rows}
        if sorted(got) != sorted(expected):
            return [f"report: compared {sorted(got)}, expected {sorted(expected)}"]
        for key, (u, p) in expected.items():
            row = got[key]
            if row["u"] != f"{u:g}":
                fails.append(f"{key}: U {row['u']} != {u:g} from the category histograms")
            # the CLI prints p with 6 significant digits
            if abs(float(row["p"]) - p) > 1e-9 + _print_rounding(row["p"]):
                fails.append(f"{key}: p {row['p']} != scipy's {p!r}")
        return fails


WORKLOADS = {w.name: w for w in (McOverlap, McGauss, Play, SurveyReport)}
