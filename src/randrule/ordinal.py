"""Rank statistics for ordinal samples: Mann-Whitney U and summaries.

Conventions, fixed once for the whole package: the U statistic is computed
from midranks (equivalent to counting cross-pairs with half credit for
ties), the normal approximation uses the tie-corrected variance and a 0.5
continuity correction, and p-values are two-sided. ``brute_force_u`` is the
definitional pair-counting oracle and must agree with the rank formulation
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InputError

__all__ = [
    "OrdinalSample",
    "MwuResult",
    "DescriptiveSummary",
    "mann_whitney_u",
    "brute_force_u",
    "descriptive_summary",
]

SampleLike = Union["OrdinalSample", Sequence[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class OrdinalSample:
    """Ordered responses; optionally validated against 1..k category codes."""

    values: np.ndarray
    category_count: int | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InputError("a sample must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(v)):
            raise InputError("sample values must be finite")
        k = self.category_count
        if k is not None:
            if k < 1:
                raise InputError(f"category count must be >= 1, got {k}")
            if np.any(v != np.round(v)) or v.min() < 1 or v.max() > k:
                raise InputError(f"category codes must be integers in 1..{k}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _as_sample(x: SampleLike) -> OrdinalSample:
    return x if isinstance(x, OrdinalSample) else OrdinalSample(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class MwuResult:
    """Mann-Whitney statistics for samples x (size n) and y (size m).

    ``u_x`` counts pairs where a y value precedes an x value (ties worth
    half); ``u_x + u_y == n * m`` always. ``degenerate`` marks the case
    where every pooled value is identical, leaving z undefined (NaN) and
    p = 1.
    """

    u_x: float
    u_y: float
    z: float
    p_two_sided: float
    tie_corrected: bool
    degenerate: bool
    n: int
    m: int


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with tied values sharing the mean of their rank block.

    Also returns the size of each block of equal values, in sorted order.
    """
    _, inverse, sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(sizes)
    return ((2 * ends - sizes + 1) / 2.0)[inverse], sizes


def mann_whitney_u(x: SampleLike, y: SampleLike) -> MwuResult:
    """Two-sided Mann-Whitney U test via the normal approximation."""
    xs = _as_sample(x)
    ys = _as_sample(y)
    n, m = xs.n, ys.n
    pooled = np.concatenate([xs.values, ys.values])
    ranks, tie_sizes = _midranks(pooled)
    u_x = float(ranks[:n].sum() - n * (n + 1) / 2.0)
    u_y = float(n * m - u_x)

    has_ties = bool(np.any(tie_sizes > 1))
    total = n + m
    tie_term = float((tie_sizes.astype(float) ** 3 - tie_sizes).sum())
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0.0:
        # every pooled value identical: the statistic carries no information
        return MwuResult(u_x, u_y, float("nan"), 1.0, has_ties, True, n, m)
    delta = u_x - n * m / 2.0
    z_abs = max(abs(delta) - 0.5, 0.0) / math.sqrt(variance)
    p = min(1.0, math.erfc(z_abs / math.sqrt(2.0)))
    return MwuResult(u_x, u_y, math.copysign(z_abs, delta), p, has_ties, False, n, m)


def brute_force_u(x: SampleLike, y: SampleLike) -> tuple[float, float]:
    """Definitional U by looping over all n*m cross-pairs; the test's oracle."""
    xs = _as_sample(x).values
    ys = _as_sample(y).values
    u_x = 0.0
    for xi in xs:
        for yj in ys:
            if yj < xi:
                u_x += 1.0
            elif yj == xi:
                u_x += 0.5
    return u_x, float(xs.size * ys.size - u_x)


@dataclass(frozen=True)
class DescriptiveSummary:
    """Median (lower-middle for even n), all modes, and a full histogram."""

    median: float
    modes: tuple[float, ...]
    counts: dict[float, int]


def descriptive_summary(sample: SampleLike) -> DescriptiveSummary:
    """Ordinal-friendly summary: no means, lower-middle median, ties kept.

    When the sample declares a category count, the histogram includes every
    code 1..k, zeros included.
    """
    s = _as_sample(sample)
    ordered = np.sort(s.values)
    median = float(ordered[(s.n - 1) // 2])
    values, freq = np.unique(s.values, return_counts=True)
    modes = tuple(float(v) for v, c in zip(values, freq) if c == freq.max())
    if s.category_count is not None:
        counts = {float(code): 0 for code in range(1, s.category_count + 1)}
    else:
        counts = {}
    for v, c in zip(values, freq):
        counts[float(v)] = int(c)
    return DescriptiveSummary(median, modes, counts)
