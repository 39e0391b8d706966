"""Seeded randomness contract used across the package.

Every stochastic operation takes an explicit 64-bit integer seed and builds
its own PCG64 generator; there is no hidden global RNG state. The mapping
from seed to random stream is fixed:

* ``generator(seed)`` wraps ``PCG64(SeedSequence(seed))``.
* Independent sub-streams are derived with spawn keys,
  ``generator(seed, k)`` = ``PCG64(SeedSequence(seed, spawn_key=(k,)))``,
  so an operation that needs several streams (e.g. case sampling plus
  classifier coin flips) derives them by a fixed index, never by sharing.
* Non-uniform variates are produced by explicit transforms of the raw
  ``random()`` doubles: an affine map for intervals, Box-Muller for
  Gaussians (see :func:`box_muller`) and :func:`inverse_cdf` for every
  discrete pick (case labels, randomized decisions, mixed-strategy
  actions). Together with PCG64's stable bit stream this makes identical
  seeds give identical output on every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generator", "box_muller", "inverse_cdf"]


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """Return the PCG64 generator for ``seed``, optionally a derived sub-stream."""
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Map pairs of [0,1) uniforms to standard normal deviates.

    ``uniforms`` has shape (n, 2c); columns are consumed pairwise:
    ``z0 = sqrt(-2 ln(1-u1)) cos(2 pi u2)`` and the matching ``sin`` term.
    Using ``1 - u1`` keeps the log argument in (0, 1]. Output has the same
    shape, normals interleaved in the positions of their source pair.
    """
    u = np.asarray(uniforms, dtype=float)
    if u.ndim != 2 or u.shape[1] % 2 != 0:
        raise ValueError("box_muller expects an (n, 2c) array of uniforms")
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    out = np.empty_like(u)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out


def inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Pick one label in ``0..k-1`` per [0,1) uniform from a discrete distribution.

    ``probs`` is one distribution of shape (k,) shared by every uniform, or
    one per uniform, shape (n, k). The pick counts how many of the first
    ``k - 1`` running sums are at or below the uniform; the sums are added
    left to right, as ``np.cumsum`` adds them. For non-negative entries that
    is ``min(searchsorted(cumsum(p), u, side="right"), k - 1)``, so the last
    label also takes any rounding shortfall of the total.
    """
    p = np.asarray(probs, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] == 0 or u.ndim != 1 or p.shape[:-1] not in ((), u.shape):
        raise ValueError("inverse_cdf expects (k,) or (n, k) probabilities for n uniforms")
    picks = np.zeros(u.shape, dtype=np.int64)
    cum = np.zeros(p.shape[:-1])
    for c in range(p.shape[-1] - 1):
        cum += p[..., c]
        picks += cum <= u
    return picks
