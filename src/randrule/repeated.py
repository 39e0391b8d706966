"""Repeated stage games: mixed play versus a frequency-learning adversary.

The point demonstrated here: a pure strategy in a game without pure
equilibria is eventually read and punished by an opponent that merely
counts action frequencies, while an equilibrium mix concedes nothing
beyond sampling noise. The adversary observes actions only, never the
opposing policy object. History-free policies (pure and mixed) draw all
their actions at once; frequency exploiters take the exact best responses
that fictitious play also takes (see :mod:`randrule.games`). A match keeps
its actions only: its mean payoffs are tallied exactly from the cells played.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InputError, allocation
from .games import MixedStrategy, NormalFormGame, _best_responses, _check_range, _tally, game_value
from .rng import generator, inverse_cdf

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


@dataclass(frozen=True)
class FrequencyExploiter:
    """Best-respond to the opponent's empirical action counts.

    The counts start at one virtual observation per opponent action, so the
    first round has a defined best response. Exact-tie best responses are
    broken by the match's seeded uniforms.
    """


AgentPolicy = Union[PurePolicy, MixedPolicy, FrequencyExploiter]


@dataclass(frozen=True, eq=False)
class MatchTrace:
    """Per-round actions of one repeated match of ``game``; a round's payoffs are its (row, col) cell's."""

    row_actions: np.ndarray
    col_actions: np.ndarray
    game: NormalFormGame
    seed: int

    @property
    def rounds(self) -> int:
        return int(self.row_actions.size)

    def write_csv(self, path: str | Path) -> None:
        """One CSV row per round; each (row, col) cell that occurs is formatted once, from the game's payoffs."""
        cols = self.game.col_actions
        cell = self.row_actions * cols + self.col_actions
        A, B = self.game.row_payoff.ravel().tolist(), self.game.col_payoff.ravel().tolist()
        # adding 0.0 folds the negative zeros produced by payoff negation
        texts = {c: f"{c // cols},{c % cols},{A[c] + 0.0!r},{B[c] + 0.0!r}\r\n" for c in np.unique(cell).tolist()}
        try:
            with open(path, "w", newline="") as fh:
                fh.write("round,row_action,col_action,row_payoff,col_payoff\r\n")
                fh.writelines(f"{t},{texts[c]}" for t, c in enumerate(cell.tolist()))
        except OSError as exc:
            raise InputError(f"cannot write trace file {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MatchSummary:
    """Each side's mean payoff, correctly rounded from the exact mean, and action frequencies."""

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


def _plan(policy: AgentPolicy, n_actions: int, n_opponent: int, side: str, rounds: int, stream):
    """(actions, counts, uniforms) of one side: all actions of a history-free policy, or an
    exploiter's starting counts of opponent actions and an array the routes fill.

    ``stream`` is the side's own generator; a pure policy draws nothing from it."""
    if isinstance(policy, PurePolicy):
        if not isinstance(policy.action, (int, np.integer)):
            raise InputError(f"{side} pure action {policy.action!r} is not an integer")
        if not 0 <= policy.action < n_actions:
            raise InputError(f"{side} pure action {policy.action} out of range for {n_actions} actions")
        with allocation(rounds, "rounds"):
            return np.full(rounds, policy.action, dtype=np.int64), None, None
    if isinstance(policy, MixedPolicy):
        if policy.strategy.n_actions != n_actions:
            raise InputError(
                f"{side} mixed strategy has {policy.strategy.n_actions} entries, game offers {n_actions} actions"
            )
        with allocation(rounds, "rounds"):
            u = stream.random(rounds)
            return inverse_cdf(policy.strategy.probs, u), None, u
    if isinstance(policy, FrequencyExploiter):
        with allocation(rounds, "rounds"):
            return np.empty(rounds, dtype=np.int64), np.ones(n_opponent, dtype=np.int64), stream.random(rounds)
    raise InputError(f"unknown policy type {type(policy).__name__}")


def run_repeated(game: NormalFormGame, row: AgentPolicy, col: AgentPolicy, rounds: int,
                 seed: int) -> tuple[MatchTrace, MatchSummary]:
    """Play the stage game ``rounds`` times; identical seeds replay identically.

    Sub-streams 0 and 1 of ``seed`` give the row and column player one
    uniform per round (a pure policy draws none), so the trace does not
    depend on what the other player's policy consumes. The summary's means are
    exact, rounded once, for any number of rounds.
    """
    if rounds < 1:
        raise InputError(f"rounds must be >= 1, got {rounds}")
    _check_range(game)
    row_actions, row_counts, u_row = _plan(row, game.row_actions, game.col_actions, "row", rounds, generator(seed, 0))
    col_actions, col_counts, u_col = _plan(col, game.col_actions, game.row_actions, "col", rounds, generator(seed, 1))
    if row_counts is not None or col_counts is not None:
        _best_responses(game.row_payoff, game.col_payoff, row_counts, col_counts, row_actions, col_actions, u_row, u_col)
    return MatchTrace(row_actions, col_actions, game, seed), MatchSummary(*_tally(game, row_actions, col_actions))


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
