"""Two-player normal-form games and their mixed-strategy equilibria.

Covers the dilemma games where pure strategies fail: matching pennies,
rock-paper-scissors, and the harm-allocation game in which a decision-maker
must hurt one of two parties without knowing who is at fault. One exact solver
takes every zero-sum game: its first pure saddle, else a rational simplex on its
linear program; fictitious play shows how the equilibrium is learned.
Fictitious play and the frequency exploiter of :mod:`randrule.repeated` take
exact best responses for every finite payoff: two counting sides jump between
score crossings, and a side facing a known policy is scored in blocks of rounds.
Both tally their mean payoffs exactly, from the counts of the cells played.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InputError, allocation
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


def _payoff_array(values, side: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InputError(f"{side} payoff must be a non-empty finite 2-D matrix")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Payoff matrices for the row and column player, shape (rows, cols)."""

    row_payoff: np.ndarray
    col_payoff: np.ndarray

    def __post_init__(self) -> None:
        row = _payoff_array(self.row_payoff, "row")
        col = _payoff_array(self.col_payoff, "column")
        if row.shape != col.shape:
            raise InputError(f"payoff shapes differ: {row.shape} vs {col.shape}")
        object.__setattr__(self, "row_payoff", row)
        object.__setattr__(self, "col_payoff", col)

    @property
    def zero_sum(self) -> bool:
        """True iff the column player's payoff is exactly the negation of the row player's."""
        return bool(np.array_equal(self.col_payoff, -self.row_payoff))

    @property
    def row_actions(self) -> int:
        return int(self.row_payoff.shape[0])

    @property
    def col_actions(self) -> int:
        return int(self.row_payoff.shape[1])


def zero_sum_game(row_payoff) -> NormalFormGame:
    """Game where the column player's payoff is the negation of the row's."""
    row = np.asarray(row_payoff, dtype=float)
    return NormalFormGame(row, -row)


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
    """Empirical profile, correctly rounded average payoff and the profile's duality gap ``max(A y) - min(x A)``."""

    profile: MixedProfile
    value_estimate: float
    iterations: int
    duality_gap: float


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


def solve_zero_sum(game: NormalFormGame) -> ZeroSumSolution:
    """Exact equilibrium of any zero-sum game, each number rounded once.

    A game with a pure saddle returns the first one in :func:`find_pure_nash` order. Otherwise a tableau
    simplex over exact :class:`fractions.Fraction`, under Bland's rule with variables in column order,
    solves ``max 1'y s.t. (A + shift) y <= 1, y >= 0``, where ``shift = 1 - min A`` makes every entry >= 1.
    The column mix is ``y / 1'y``, the row mix the objective row's slack entries over ``1'y`` and the value
    ``1 / 1'y - shift``; each is rounded once by ``float(Fraction)``, so it is correctly rounded, with no
    tolerance and no size limit. A game with several mixed equilibria gets the Bland vertex. Fraction
    growth sets the cost (2-core x86): about 1-4 ms at 5x5, 7-34 ms at 10x10, 0.1-0.65 s at 20x20.
    """
    if not game.zero_sum:
        raise InputError("exact solver only handles zero-sum games")
    rows, cols = game.row_actions, game.col_actions
    if saddles := find_pure_nash(game):
        i, j = saddles[0]
        return ZeroSumSolution(MixedProfile(MixedStrategy.pure(i, rows), MixedStrategy.pure(j, cols)),
                               float(game.row_payoff[i, j]))
    shift = 1 - Fraction(game.row_payoff.min())
    # columns y, slacks, right-hand side; the last row is the objective -1'y
    T = [[Fraction(a) + shift for a in r] + [Fraction(int(k == i)) for k in range(rows)] + [Fraction(1)]
         for i, r in enumerate(game.row_payoff.tolist())] + [[Fraction(-1)] * cols + [Fraction(0)] * (rows + 1)]
    basis = list(range(cols, cols + rows))
    while (j := next((k for k, c in enumerate(T[-1][:-1]) if c < 0), None)) is not None:
        r = min((T[q][-1] / T[q][j], basis[q], q) for q in range(rows) if T[q][j] > 0)[2]
        pivot = T[r] = [v / T[r][j] for v in T[r]]
        for k, row in enumerate(T):
            if k != r and (f := row[j]):
                T[k] = [a - f * b for a, b in zip(row, pivot)]
        basis[r] = j
    total = T[-1][-1]
    x = [float(v / total) for v in T[-1][cols:-1]]
    y = [float(T[basis.index(c)][-1] / total) if c in basis else 0.0 for c in range(cols)]
    return ZeroSumSolution(MixedProfile(MixedStrategy(x), MixedStrategy(y)), float(1 / total - shift))


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


def _pick(scores: list[int], u: float) -> int:
    """Index of the maximal score; exact ties resolved by the uniform ``u``."""
    best = max(scores)
    ties = [k for k, s in enumerate(scores) if s == best]
    return ties[int(u * len(ties))]


def _check_range(game: NormalFormGame) -> None:
    """Refuse payoffs of 2**1023 or more: a payoff gap can be twice the largest payoff."""
    big = max(float(np.abs(game.row_payoff).max()), float(np.abs(game.col_payoff).max()))
    if big >= 2.0**1023:
        raise InputError(f"payoff magnitude {big:g} could overflow a payoff gap: scale the payoffs down")


def _integers(M: np.ndarray, length: int) -> tuple[np.ndarray, int, int]:
    """``(N, g, den)`` with ``M = N * g / den`` and ``N`` coprime integers.

    Every double is an integer over a power of two, so the largest denominator is a multiple of
    every other. Counts summing to at most ``length`` keep each sum of counts times entries within
    ``max|N| * length``: ``N`` is int64 when that is below 2**63, else Python ints.
    """
    ratios = [v.as_integer_ratio() for v in M.ravel().tolist()]
    den = max(d for _, d in ratios)
    g = math.gcd(*(n * den // d for n, d in ratios)) or 1
    ints = [n * den // d // g for n, d in ratios]
    return np.array(ints, dtype=np.int64 if max(map(abs, ints)) * length < 2**63 else object).reshape(M.shape), g, den


def _tally(game: NormalFormGame, rows: np.ndarray, cols: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Mean row and column payoffs, then row and column action frequencies, of the cells ``(rows[t], cols[t])``.

    A side's mean is the cell counts times its coprime integer payoffs (:func:`_integers`, whose ``length``
    rule keeps an int64 sum exact) times ``g / (den * n)``: one int / int division, correctly rounded.
    """
    n = rows.size
    counts = np.bincount(rows * game.col_actions + cols, minlength=game.row_payoff.size).reshape(game.row_payoff.shape)
    sides = (_integers(M, n) for M in (game.row_payoff, game.col_payoff))
    means = [int((counts * N).sum()) * g / (den * n) for N, g, den in sides]
    return means[0], means[1], counts.sum(axis=1) / n, counts.sum(axis=0) / n


def _run(scores: list[int], lead: int, slopes: list[int], limit: int) -> int:
    """Rounds, at most ``limit``, for which ``lead`` stays the strict maximum of ``scores + k * slopes``.

    1 if another score ties it now; otherwise the first k at which a rival with a larger slope
    ties or passes it, ``ceil(gap / slope difference)`` in Python integers.
    """
    top, rise = scores[lead], slopes[lead]
    for k, (s, r) in enumerate(zip(scores, slopes)):
        if k == lead:
            continue
        if s == top:
            return 1
        if r > rise:
            limit = min(limit, (top - s + r - rise - 1) // (r - rise))
    return limit


def _jump(A, BT, row_counts, col_counts, row_actions, col_actions, u_row, u_col) -> None:
    """Both sides count: pick once per pass, then repeat that pair until a score crossing."""
    rounds = row_actions.size
    A_cols, BT_cols = A.T.tolist(), BT.T.tolist()
    t = 0
    while t < rounds:
        R, C = (A @ row_counts).tolist(), (BT @ col_counts).tolist()
        i, j = _pick(R, u_row[t]), _pick(C, u_col[t])
        run = _run(C, j, BT_cols[i], _run(R, i, A_cols[j], rounds - t))
        row_actions[t : t + run] = i
        col_actions[t : t + run] = j
        row_counts[j] += run
        col_counts[i] += run
        t += run


_BLOCK_ROUNDS = 1 << 12


def _score_blocks(MT, counts, opp, out, u) -> None:
    """One side counts, its opponent's actions ``opp`` are known: score ``_BLOCK_ROUNDS`` rounds at a time.

    ``MT`` holds a payoff row per opponent action. The scores before round t are
    ``counts @ MT + cumsum(MT[opp]) - MT[opp]`` at row t; each row is picked as :func:`_pick`
    does, by the first column whose running tie count exceeds ``floor(u * ties)``.
    """
    score = counts @ MT
    for b in range(0, out.size, _BLOCK_ROUNDS):
        step = MT[opp[b : b + _BLOCK_ROUNDS]]
        S = np.cumsum(step, axis=0)
        S -= step
        S += score
        score = S[-1] + step[-1]
        ties = np.cumsum(S == S.max(axis=1, keepdims=True), axis=1)
        out[b : b + _BLOCK_ROUNDS] = np.argmax(ties > np.floor(u[b : b + _BLOCK_ROUNDS] * ties[:, -1])[:, None], axis=1)
    counts += np.bincount(opp, minlength=counts.size)


def _best_responses(A, B, row_counts, col_counts, row_actions, col_actions, u_row, u_col) -> None:
    """Fill in the actions of each side that best-responds to counts, with one tie rule.

    ``row_counts`` holds the row side's counts of column actions, ``col_counts`` the column
    side's counts of row actions. Each round a counting side plays ``_pick(A @ row_counts, u_row[t])``
    or ``_pick(B.T @ col_counts, u_col[t])`` on exact scores; then both sides' counts take in the
    opponent's action. A side passed ``None`` keeps the actions already in its array. Each side
    scores on its payoffs as coprime integers (:func:`_integers`), which keeps every order and
    tie: :func:`_jump` serves two counting sides, :func:`_score_blocks` one.
    """
    length = row_actions.size + sum(A.shape)
    if row_counts is None:
        return _score_blocks(_integers(B, length)[0], col_counts, row_actions, col_actions, u_col)
    if col_counts is None:
        return _score_blocks(_integers(A.T, length)[0], row_counts, col_actions, row_actions, u_row)
    _jump(_integers(A, length)[0], _integers(B.T, length)[0], row_counts, col_counts,
          row_actions, col_actions, u_row, u_col)


def fictitious_play(game: NormalFormGame, iterations: int, tie_seed: int = 0) -> FictitiousPlayResult:
    """Best-response dynamics against empirical opponent frequencies.

    Beliefs start with one virtual observation per opponent action, so the
    first best response is defined; exact score ties are broken by a stream
    of uniforms from ``tie_seed``, alternating row and column. The best responses
    are those of two frequency exploiters in a repeated match; they jump between
    exact score crossings, about sqrt(iterations) passes on RPS. The average payoff
    converges to the game value, the empirical frequencies approach an equilibrium
    profile, and the duality gap certifies how far: it is 0 exactly at an equilibrium.
    """
    if not game.zero_sum:
        raise InputError("fictitious play is only supported for zero-sum games")
    if iterations < 1:
        raise InputError(f"iterations must be >= 1, got {iterations}")
    _check_range(game)
    A = game.row_payoff
    with allocation(iterations, "iterations"):
        ties = generator(tie_seed).random(2 * iterations)
        rows, cols = np.empty((2, iterations), dtype=np.int64)
    _best_responses(A, game.col_payoff, np.ones(game.col_actions, dtype=np.int64),
                    np.ones(game.row_actions, dtype=np.int64), rows, cols, ties[0::2], ties[1::2])
    value, _, x, y = _tally(game, rows, cols)
    gap = float((A @ y).max() - (x @ A).min())
    return FictitiousPlayResult(MixedProfile(MixedStrategy(x), MixedStrategy(y)), value, iterations, gap)


def game_value(game: NormalFormGame) -> float:
    """Row player's equilibrium payoff of a zero-sum game, exact (see :func:`solve_zero_sum`)."""
    return solve_zero_sum(game).value


def _document_matrix(obj: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"game document's {key} is not a numeric matrix: {exc}") from exc


def game_from_dict(obj: dict) -> NormalFormGame:
    """Build a game from its JSON form.

    Either ``{"row_payoff": [[...]], "col_payoff": [[...]]}`` or
    ``{"row_payoff": [[...]], "zero_sum": true}``.
    """
    if not isinstance(obj, dict) or "row_payoff" not in obj:
        raise InputError("game document must be a JSON object with a row_payoff matrix")
    row = _document_matrix(obj, "row_payoff")
    if not isinstance(zero_sum := obj.get("zero_sum", False), bool):
        raise InputError(f"game document's zero_sum must be true or false, got {zero_sum!r}")
    if zero_sum:
        if "col_payoff" in obj and not np.array_equal(_document_matrix(obj, "col_payoff"), -row):
            raise InputError("document declares zero_sum but col_payoff != -row_payoff")
        return zero_sum_game(row)
    if "col_payoff" not in obj:
        raise InputError("game document needs col_payoff or zero_sum: true")
    return NormalFormGame(row, _document_matrix(obj, "col_payoff"))


def load_game(source: str | Path) -> NormalFormGame:
    """Load a game from a JSON file path or an inline JSON string."""
    return game_from_dict(read_json_source(source, "game"))
