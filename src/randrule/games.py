"""Two-player normal-form games and their mixed-strategy equilibria.

Covers the dilemma games where pure strategies fail: matching pennies,
rock-paper-scissors, and the harm-allocation game in which a decision-maker
must hurt one of two parties without knowing who is at fault. Every zero-sum
game within ``MAX_EXACT_ACTIONS`` is solved exactly by one mechanism, the
Shapley-Snow kernels; fictitious play shows how the equilibrium is learned.
Fictitious play and the frequency exploiter of :mod:`randrule.repeated` run
one best-response loop with one tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .errors import InputError
from .jsonio import read_json_source
from .rng import generator

__all__ = [
    "NormalFormGame",
    "MixedStrategy",
    "MixedProfile",
    "HarmScenario",
    "ZeroSumSolution",
    "FictitiousPlayResult",
    "zero_sum_game",
    "build_matching_pennies",
    "build_rock_paper_scissors",
    "build_harm_game",
    "expected_payoff",
    "find_pure_nash",
    "solve_zero_sum",
    "is_nash",
    "fictitious_play",
    "game_value",
    "game_from_dict",
    "load_game",
]

STRATEGY_SUM_TOL = 1e-12
NASH_TOL = 1e-9
MAX_EXACT_ACTIONS = 10  # rows plus columns; an m x n game has C(m + n, m) - 1 <= 251 square blocks


def _payoff_array(values, side: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise InputError(f"{side} payoff must be a finite 2-D matrix")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Payoff matrices for the row and column player, shape (rows, cols)."""

    row_payoff: np.ndarray
    col_payoff: np.ndarray
    zero_sum: bool = False

    def __post_init__(self) -> None:
        row = _payoff_array(self.row_payoff, "row")
        col = _payoff_array(self.col_payoff, "column")
        if row.shape != col.shape:
            raise InputError(f"payoff shapes differ: {row.shape} vs {col.shape}")
        if self.zero_sum and not np.array_equal(col, -row):
            raise InputError("zero_sum games need col_payoff == -row_payoff")
        object.__setattr__(self, "row_payoff", row)
        object.__setattr__(self, "col_payoff", col)

    @property
    def row_actions(self) -> int:
        return int(self.row_payoff.shape[0])

    @property
    def col_actions(self) -> int:
        return int(self.row_payoff.shape[1])


def zero_sum_game(row_payoff) -> NormalFormGame:
    """Game where the column player's payoff is the negation of the row's."""
    row = np.asarray(row_payoff, dtype=float)
    return NormalFormGame(row, -row, zero_sum=True)


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure actions."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InputError("a mixed strategy is a non-empty probability vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0) or abs(p.sum() - 1.0) > STRATEGY_SUM_TOL:
            raise InputError(f"strategy entries must be finite, >= 0 and sum to 1, got {p}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def pure(cls, action: int, n_actions: int) -> "MixedStrategy":
        if not 0 <= action < n_actions:
            raise InputError(f"action {action} out of range for {n_actions} actions")
        p = np.zeros(n_actions)
        p[action] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, n_actions: int) -> "MixedStrategy":
        return cls(np.full(n_actions, 1.0 / n_actions))

    @property
    def n_actions(self) -> int:
        return int(self.probs.size)

    def is_fully_mixed(self) -> bool:
        return bool(np.all(self.probs > 0.0))


@dataclass(frozen=True)
class MixedProfile:
    """One strategy per player."""

    row: MixedStrategy
    col: MixedStrategy


@dataclass(frozen=True)
class HarmScenario:
    """Merit and headcount of the two parties a decision-maker may harm."""

    m_x: float
    v_x: float
    m_y: float
    v_y: float

    def __post_init__(self) -> None:
        if self.m_x < 0 or self.m_y < 0:
            raise InputError("merit values must be non-negative")
        if self.v_x <= 0 or self.v_y <= 0:
            raise InputError("worth values must be positive")
        if self.m_x * self.v_x + self.m_y * self.v_y <= 0:
            raise InputError("at least one merit-worth product must be positive")


@dataclass(frozen=True)
class ZeroSumSolution:
    profile: MixedProfile
    value: float


@dataclass(frozen=True, eq=False)
class FictitiousPlayResult:
    profile: MixedProfile
    value_estimate: float
    iterations: int


def build_matching_pennies() -> NormalFormGame:
    """The even player (rows) wins +1 when the pennies match, -1 otherwise."""
    return zero_sum_game([[1.0, -1.0], [-1.0, 1.0]])


def build_rock_paper_scissors() -> NormalFormGame:
    """Actions ordered (rock, paper, scissors); win +1, tie 0, loss -1."""
    return zero_sum_game(
        [
            [0.0, -1.0, 1.0],
            [1.0, 0.0, -1.0],
            [-1.0, 1.0, 0.0],
        ]
    )


def build_harm_game(scenario: HarmScenario) -> NormalFormGame:
    """Harm-allocation game for the decision-maker (rows) vs the environment.

    Rows are (harm X, harm Y); columns are (X at fault, Y at fault). Harming
    the party at fault costs nothing; harming the innocent party costs their
    merit times their worth. The environment collects the negation.
    """
    return zero_sum_game(
        [
            [0.0, -(scenario.m_x * scenario.v_x)],
            [-(scenario.m_y * scenario.v_y), 0.0],
        ]
    )


def _check_profile(game: NormalFormGame, profile: MixedProfile) -> None:
    if profile.row.n_actions != game.row_actions or profile.col.n_actions != game.col_actions:
        raise InputError(
            f"profile dimensions ({profile.row.n_actions}, {profile.col.n_actions}) do not "
            f"match the game ({game.row_actions}, {game.col_actions})"
        )


def expected_payoff(game: NormalFormGame, profile: MixedProfile) -> tuple[float, float]:
    """Bilinear payoffs (row, col) for a mixed profile."""
    _check_profile(game, profile)
    r = profile.row.probs
    c = profile.col.probs
    return float(r @ game.row_payoff @ c), float(r @ game.col_payoff @ c)


def find_pure_nash(game: NormalFormGame) -> list[tuple[int, int]]:
    """All pure profiles where each action is a best response to the other.

    Returned in row-major order; empty when no pure equilibrium exists.
    """
    row_best = game.row_payoff >= game.row_payoff.max(axis=0, keepdims=True)
    col_best = game.col_payoff >= game.col_payoff.max(axis=1, keepdims=True)
    cells = np.argwhere(row_best & col_best)
    return [(int(i), int(j)) for i, j in cells]


def _cofactor(m: list[list[float]], i: int, j: int) -> float:
    """Signed minor by Laplace expansion; exact for 1x1 blocks, unlike np.linalg.det."""
    minor = [row[:j] + row[j + 1 :] for r, row in enumerate(m) if r != i]
    return (-1) ** (i + j) * (sum(minor[0][c] * _cofactor(minor, 0, c) for c in range(len(minor))) if minor else 1.0)


def solve_zero_sum(game: NormalFormGame) -> ZeroSumSolution:
    """Exact equilibrium of a zero-sum game with at most ``MAX_EXACT_ACTIONS`` rows plus columns.

    Shapley-Snow kernels: a square block ``M`` of the payoff matrix with ``s = 1' adj(M) 1 != 0``
    proposes the mixes ``1' adj(M) / s`` and ``adj(M) 1 / s`` and the value ``det(M) / s``, with
    ``det(M) = M[0] adj(M)[:, 0]``. Blocks are tried by size, then in combinations order, so 1x1 blocks
    are the pure saddles in :func:`find_pure_nash` order. The first proposal passing :func:`is_nash` at 1e-9 wins.
    """
    if not game.zero_sum:
        raise InputError("exact solver only handles zero-sum games")
    rows, cols = game.row_actions, game.col_actions
    if rows + cols > MAX_EXACT_ACTIONS:
        raise InputError(f"{rows}x{cols} game exceeds {MAX_EXACT_ACTIONS} rows plus columns; use fictitious play")
    for k in range(1, min(rows, cols) + 1):
        for S, T in product(combinations(range(rows), k), combinations(range(cols), k)):
            block = game.row_payoff[np.ix_(S, T)].tolist()
            adj = np.array([[_cofactor(block, j, i) for j in range(k)] for i in range(k)])
            s = adj.sum()
            if s == 0:
                continue
            x, y = np.zeros(rows), np.zeros(cols)
            x[list(S)], y[list(T)] = adj.sum(axis=0) / s, adj.sum(axis=1) / s
            if x.min() >= 0 and y.min() >= 0:
                profile = MixedProfile(MixedStrategy(x), MixedStrategy(y))
                if is_nash(game, profile, NASH_TOL):
                    return ZeroSumSolution(profile, float(sum(a * c for a, c in zip(block[0], adj[:, 0])) / s))
    raise ArithmeticError("no square block of the payoff matrix passed the equilibrium check")


def is_nash(game: NormalFormGame, profile: MixedProfile, tol: float = NASH_TOL) -> bool:
    """True iff no player gains more than ``tol`` by any pure deviation.

    For a fully mixed strategy the supported pure payoffs must also be
    indifferent within ``tol``. ``tol`` is relative to the payoff scale
    ``max(1, max|A|, max|B|)``, so rescaling a game's payoffs keeps the verdict.
    """
    if not tol > 0:
        raise InputError("tolerance must be positive")
    _check_profile(game, profile)
    tol *= max(1.0, float(np.abs(game.row_payoff).max()), float(np.abs(game.col_payoff).max()))
    row_purepay = game.row_payoff @ profile.col.probs
    col_purepay = profile.row.probs @ game.col_payoff
    if row_purepay.max() - profile.row.probs @ row_purepay > tol:
        return False
    if col_purepay.max() - col_purepay @ profile.col.probs > tol:
        return False
    if profile.row.is_fully_mixed() and row_purepay.max() - row_purepay.min() > tol:
        return False
    if profile.col.is_fully_mixed() and col_purepay.max() - col_purepay.min() > tol:
        return False
    return True


def _pick(scores: np.ndarray, u: float) -> int:
    """Index of the maximal score; exact ties resolved by the uniform ``u``."""
    scores = scores.tolist()
    best = max(scores)
    ties = [k for k, s in enumerate(scores) if s == best]
    return ties[int(u * len(ties))]


def _best_responses(A, B, row_counts, col_counts, row_actions, col_actions, u_row, u_col) -> None:
    """Fill in, round by round, the actions of each side that best-responds to counts.

    ``row_counts`` holds the row side's counts of column actions, ``col_counts``
    the column side's counts of row actions. Each round a counting side plays
    ``_pick(A @ row_counts, u_row[t])`` or ``_pick(B.T @ col_counts, u_col[t])``;
    then both sides' counts take in the opponent's action. A side passed ``None``
    keeps the actions already in its array.
    """
    # a contiguous copy: the product over the transposed view rounds differently on non-integer payoffs
    BT = np.ascontiguousarray(B.T)
    for t in range(row_actions.size):
        if row_counts is not None:
            row_actions[t] = _pick(A @ row_counts, u_row[t])
        if col_counts is not None:
            col_actions[t] = _pick(BT @ col_counts, u_col[t])
        if row_counts is not None:
            row_counts[col_actions[t]] += 1
        if col_counts is not None:
            col_counts[row_actions[t]] += 1


def fictitious_play(game: NormalFormGame, iterations: int, tie_seed: int = 0) -> FictitiousPlayResult:
    """Best-response dynamics against empirical opponent frequencies.

    Beliefs start with one virtual observation per opponent action, so the
    first best response is defined; exact score ties are broken by a stream
    of uniforms from ``tie_seed``, alternating row and column. The loop is the
    one a repeated match runs when a frequency exploiter plays. For zero-sum
    games the average payoff converges to the game value and the empirical
    frequencies approach an equilibrium profile.
    """
    if not game.zero_sum:
        raise InputError("fictitious play is only supported for zero-sum games")
    if iterations < 1:
        raise InputError(f"iterations must be >= 1, got {iterations}")
    A = game.row_payoff
    ties = generator(tie_seed).random(2 * iterations)
    rows = np.empty(iterations, dtype=np.int64)
    cols = np.empty(iterations, dtype=np.int64)
    _best_responses(A, game.col_payoff, np.ones(game.col_actions), np.ones(game.row_actions), rows, cols,
                    ties[0::2], ties[1::2])
    profile = MixedProfile(
        MixedStrategy(np.bincount(rows, minlength=game.row_actions) / iterations),
        MixedStrategy(np.bincount(cols, minlength=game.col_actions) / iterations),
    )
    return FictitiousPlayResult(profile, float(np.sum(A[rows, cols]) / iterations), iterations)


def game_value(game: NormalFormGame) -> float:
    """Row player's equilibrium payoff of a zero-sum game, exact (see :func:`solve_zero_sum`)."""
    return solve_zero_sum(game).value


def game_from_dict(obj: dict) -> NormalFormGame:
    """Build a game from its JSON form.

    Either ``{"row_payoff": [[...]], "col_payoff": [[...]]}`` or
    ``{"row_payoff": [[...]], "zero_sum": true}``.
    """
    if "row_payoff" not in obj:
        raise InputError("game document needs a row_payoff matrix")
    row = np.asarray(obj["row_payoff"], dtype=float)
    if obj.get("zero_sum"):
        if "col_payoff" in obj and not np.array_equal(
            np.asarray(obj["col_payoff"], dtype=float), -row
        ):
            raise InputError("document declares zero_sum but col_payoff != -row_payoff")
        return zero_sum_game(row)
    if "col_payoff" not in obj:
        raise InputError("game document needs col_payoff or zero_sum: true")
    return NormalFormGame(row, np.asarray(obj["col_payoff"], dtype=float))


def load_game(source: str | Path) -> NormalFormGame:
    """Load a game from a JSON file path or an inline JSON string."""
    return game_from_dict(read_json_source(source, "game"))
