"""Repeated stage games: mixed play versus a frequency-learning adversary.

The point demonstrated here: a pure strategy in a game without pure
equilibria is eventually read and punished by an opponent that merely
counts action frequencies, while an equilibrium mix concedes nothing
beyond sampling noise. The adversary observes actions only, never the
opposing policy object. History-free policies (pure and mixed) draw all
their actions at once; frequency exploiters run the best-response loop
that fictitious play also runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InputError
from .games import MixedStrategy, NormalFormGame, _best_responses, game_value
from .rng import generator

__all__ = [
    "PurePolicy",
    "MixedPolicy",
    "FrequencyExploiter",
    "AgentPolicy",
    "MatchTrace",
    "MatchSummary",
    "ExploitabilityReport",
    "run_repeated",
    "exploitability_report",
]


@dataclass(frozen=True)
class PurePolicy:
    """Play one fixed action every round."""

    action: int


@dataclass(frozen=True)
class MixedPolicy:
    """Draw each round's action independently from a fixed mixed strategy."""

    strategy: MixedStrategy


@dataclass(frozen=True, eq=False)
class FrequencyExploiter:
    """Best-respond to the opponent's empirical action counts.

    ``virtual_counts`` (over the opponent's actions) seed the counts so the
    first round has a defined best response; ``None`` means one virtual
    observation per action. Exact-tie best responses are broken by the
    match's seeded uniforms.
    """

    virtual_counts: np.ndarray | None = None


AgentPolicy = Union[PurePolicy, MixedPolicy, FrequencyExploiter]


@dataclass(frozen=True, eq=False)
class MatchTrace:
    """Per-round actions and payoffs of one repeated match."""

    row_actions: np.ndarray
    col_actions: np.ndarray
    row_payoffs: np.ndarray
    col_payoffs: np.ndarray
    seed: int

    @property
    def rounds(self) -> int:
        return int(self.row_actions.size)

    def write_csv(self, path: str | Path) -> None:
        # adding 0.0 folds the negative zeros produced by payoff negation
        columns = (self.row_actions.tolist(), self.col_actions.tolist(),
                   (self.row_payoffs + 0.0).tolist(), (self.col_payoffs + 0.0).tolist())
        try:
            with open(path, "w", newline="") as fh:
                fh.write("round,row_action,col_action,row_payoff,col_payoff\r\n")
                fh.writelines(f"{t},{i},{j},{p!r},{q!r}\r\n" for t, (i, j, p, q) in enumerate(zip(*columns)))
        except OSError as exc:
            raise InputError(f"cannot write trace file {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MatchSummary:
    avg_row_payoff: float
    avg_col_payoff: float
    row_frequencies: np.ndarray
    col_frequencies: np.ndarray


@dataclass(frozen=True, eq=False)
class ExploitabilityReport:
    """How much a row policy concedes to a frequency-learning column."""

    exploiter_avg_payoff: float
    policy_avg_payoff: float
    policy_frequencies: np.ndarray
    game_value: float | None
    payoff_gap: float | None
    rounds: int
    seed: int


def _plan(policy: AgentPolicy, n_actions: int, n_opponent: int, side: str, u: np.ndarray):
    """(actions, counts) of one side: all actions of a history-free policy, or an
    exploiter's validated counts of opponent actions and an array the loop fills."""
    if isinstance(policy, PurePolicy):
        if not isinstance(policy.action, (int, np.integer)):
            raise InputError(f"{side} pure action {policy.action!r} is not an integer")
        if not 0 <= policy.action < n_actions:
            raise InputError(f"{side} pure action {policy.action} out of range for {n_actions} actions")
        return np.full(u.size, policy.action, dtype=np.int64), None
    if isinstance(policy, MixedPolicy):
        if policy.strategy.n_actions != n_actions:
            raise InputError(
                f"{side} mixed strategy has {policy.strategy.n_actions} entries, game offers {n_actions} actions"
            )
        cum = np.cumsum(policy.strategy.probs)
        return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1), None
    if isinstance(policy, FrequencyExploiter):
        counts = policy.virtual_counts
        counts = np.ones(n_opponent) if counts is None else np.array(counts, dtype=float)
        valid = counts.shape == (n_opponent,) and np.all(np.isfinite(counts) & (counts >= 0)) and counts.sum() > 0
        if not valid:
            raise InputError(f"{side} exploiter needs {n_opponent} finite non-negative virtual counts, not all zero")
        return np.empty(u.size, dtype=np.int64), counts
    raise InputError(f"unknown policy type {type(policy).__name__}")


def run_repeated(
    game: NormalFormGame,
    row: AgentPolicy,
    col: AgentPolicy,
    rounds: int,
    seed: int,
) -> tuple[MatchTrace, MatchSummary]:
    """Play the stage game ``rounds`` times; identical seeds replay identically.

    Sub-streams 0 and 1 of ``seed`` give the row and column player one
    uniform per round (ignored by policies that do not need randomness), so
    the trace does not depend on what the other player's policy consumes.
    """
    if rounds < 1:
        raise InputError(f"rounds must be >= 1, got {rounds}")
    u_row = generator(seed, 0).random(rounds)
    u_col = generator(seed, 1).random(rounds)
    row_actions, row_counts = _plan(row, game.row_actions, game.col_actions, "row", u_row)
    col_actions, col_counts = _plan(col, game.col_actions, game.row_actions, "col", u_col)
    A = game.row_payoff
    B = game.col_payoff
    if row_counts is not None or col_counts is not None:
        _best_responses(A, B, row_counts, col_counts, row_actions, col_actions, u_row, u_col)
    row_payoffs = A[row_actions, col_actions]
    col_payoffs = B[row_actions, col_actions]
    trace = MatchTrace(row_actions, col_actions, row_payoffs, col_payoffs, seed)
    summary = MatchSummary(
        avg_row_payoff=float(np.sum(row_payoffs) / rounds),
        avg_col_payoff=float(np.sum(col_payoffs) / rounds),
        row_frequencies=np.bincount(row_actions, minlength=game.row_actions) / rounds,
        col_frequencies=np.bincount(col_actions, minlength=game.col_actions) / rounds,
    )
    return trace, summary


def exploitability_report(
    game: NormalFormGame,
    policy: AgentPolicy,
    rounds: int,
    seed: int,
) -> ExploitabilityReport:
    """Run ``policy`` as the row player against a frequency exploiter column.

    For zero-sum games the report includes the game value and the gap
    ``value - policy payoff``: near zero for an equilibrium mix, large and
    positive for an exploitable pure strategy.
    """
    _, summary = run_repeated(game, policy, FrequencyExploiter(), rounds, seed)
    value = game_value(game) if game.zero_sum else None
    gap = (value - summary.avg_row_payoff) if value is not None else None
    return ExploitabilityReport(
        exploiter_avg_payoff=summary.avg_col_payoff,
        policy_avg_payoff=summary.avg_row_payoff,
        policy_frequencies=summary.row_frequencies,
        game_value=value,
        payoff_gap=gap,
        rounds=rounds,
        seed=seed,
    )
