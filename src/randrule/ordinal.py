"""Rank statistics for ordinal samples: Mann-Whitney U and summaries.

Conventions, fixed once for the whole package: every statistic reads the
samples' histograms, U counts cross-pairs with half credit for ties, the
normal approximation uses the tie-corrected variance and a 0.5 continuity
correction, and p-values are two-sided. ``brute_force_u`` is the
definitional pair-counting oracle and must agree with the histogram count
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Ordered responses; optionally validated against 1..k category codes.

    The histogram is ``levels``, the sorted distinct values, and ``counts``,
    how often each occurs; its size follows the data, not the category count.
    A coded sample takes codes 1..k below 2**53, where every integer is a
    float.
    """

    values: np.ndarray
    category_count: int | None = None
    levels: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InputError("a sample must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(v)):
            raise InputError("sample values must be finite")
        k = self.category_count
        if k is not None:
            if k < 1:
                raise InputError(f"category count must be >= 1, got {k}")
            # an integer from 2**53 on may have been rounded on its way to float
            top = min(k, 2**53 - 1)
            if np.any(v != np.round(v)) or v.min() < 1 or v.max() > top:
                raise InputError(f"category codes must be integers in 1..{top}")
        levels, counts = np.unique(v, return_counts=True)
        for name, array in (("values", v), ("levels", levels), ("counts", counts)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _as_sample(x: SampleLike) -> OrdinalSample:
    return x if isinstance(x, OrdinalSample) else OrdinalSample(x)


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


def mann_whitney_u(x: SampleLike, y: SampleLike) -> MwuResult:
    """Two-sided Mann-Whitney U test via the normal approximation."""
    xs, ys = _as_sample(x), _as_sample(y)
    n, m = xs.n, ys.n
    # both samples' counts on the sorted union of their levels
    pooled = np.concatenate([xs.levels, ys.levels])
    order = np.argsort(pooled, kind="stable")  # two sorted runs, so one merge
    place = np.empty_like(order)  # each level's index in the union
    place[order] = np.concatenate([[0], np.cumsum(np.diff(pooled[order]) != 0)])
    cx, cy = np.zeros((2, place.max() + 1), dtype=np.int64)
    cx[place[: xs.levels.size]] = xs.counts
    cy[place[xs.levels.size :]] = ys.counts
    # each x beats the y values below its level and ties, for half, those at it;
    # U sums half-integers and the tie term integers, both exact below 2**53
    u_x = float((cx * (np.cumsum(cy) - cy / 2.0)).sum())
    u_y = float(n * m - u_x)

    tie_sizes = cx + cy
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

    The histogram is the sample's; when the sample declares a category count
    it lists every code 1..k, zeros included.
    """
    s = _as_sample(sample)
    median = float(s.levels[np.searchsorted(np.cumsum(s.counts), (s.n - 1) // 2, side="right")])
    modes = tuple(s.levels[s.counts == s.counts.max()].tolist())
    counts = dict.fromkeys(map(float, range(1, (s.category_count or 0) + 1)), 0)
    counts.update(zip(s.levels.tolist(), s.counts.tolist()))
    return DescriptiveSummary(median, modes, counts)
