"""Known class-conditional mixtures: densities, posteriors, and sampling.

A :class:`Mixture` is the generative environment for classification: each
class carries a prior weight and a density (a one-dimensional interval or an
isotropic Gaussian). Labels are the integer positions ``0..k-1`` of the
components.

Sampling is seed-deterministic. ``sample_case_arrays`` draws one
``(n, 1 + w)`` table of uniforms from the seeded generator, where ``w`` is
the widest per-case transform budget over the components (1 for an interval,
``2*ceil(d/2)`` for a d-dimensional Gaussian). Case ``i`` consumes only row
``i``: column 0 picks the label by inverse-CDF over the prior cumsum, and
the remaining columns feed that label's density transform. Row-indexed
consumption makes the result independent of evaluation order or batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import InputError, UnsupportedEvidenceError
from .jsonio import read_json_source
from .rng import box_muller, generator

__all__ = [
    "LabelId",
    "UniformInterval",
    "IsotropicGaussian",
    "Density",
    "ClassComponent",
    "Mixture",
    "uniform_overlap_mixture",
    "gaussian_mixture",
    "density_at",
    "posterior",
    "posterior_matrix",
    "sample_case_arrays",
    "mixture_from_dict",
    "load_mixture",
]

LabelId = int

PRIOR_SUM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class UniformInterval:
    """Uniform density on [lo, hi]; both endpoints count as inside."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InputError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise InputError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def dimension(self) -> int:
        return 1

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of the (n, 1) evidence array; ``-inf`` outside."""
        v = x[:, 0]
        inside = (self.lo <= v) & (v <= self.hi)
        return np.where(inside, -math.log(self.hi - self.lo), -np.inf)


@dataclass(frozen=True, eq=False)
class IsotropicGaussian:
    """Gaussian with mean vector mu and covariance lambda * I."""

    mean: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1 or mean.size == 0 or not np.all(np.isfinite(mean)):
            raise InputError("gaussian mean must be a finite vector")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise InputError("gaussian lambda must be positive")
        object.__setattr__(self, "mean", _readonly(mean))

    @property
    def dimension(self) -> int:
        return int(self.mean.size)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        sq = np.sum((x - self.mean) ** 2, axis=1)
        return -sq / (2.0 * self.lam) - self.dimension / 2.0 * math.log(2.0 * math.pi * self.lam)


Density = Union[UniformInterval, IsotropicGaussian]


@dataclass(frozen=True)
class ClassComponent:
    """One mixture component: prior weight plus class-conditional density."""

    prior: float
    density: Density

    def __post_init__(self) -> None:
        if not (math.isfinite(self.prior) and self.prior >= 0):
            raise InputError(f"prior must be a non-negative real, got {self.prior}")


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture of class densities; labels are component positions."""

    components: tuple[ClassComponent, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if len(components) < 2:
            raise InputError("a mixture needs at least 2 components")
        dims = {c.density.dimension for c in components}
        if len(dims) != 1:
            raise InputError(f"component dimensions differ: {sorted(dims)}")
        total = math.fsum(c.prior for c in components)
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise InputError(f"priors must sum to 1 (within {PRIOR_SUM_TOL}), got {total!r}")
        object.__setattr__(self, "components", components)

    @property
    def dimension(self) -> int:
        return self.components[0].density.dimension

    @property
    def label_count(self) -> int:
        return len(self.components)

    @property
    def priors(self) -> np.ndarray:
        return np.array([c.prior for c in self.components])

    def _check_label(self, label: LabelId) -> None:
        if not 0 <= label < self.label_count:
            raise InputError(f"label {label} out of range for {self.label_count} classes")

    def _as_evidence(self, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.ndim != 1 or arr.size != self.dimension:
            raise InputError(
                f"evidence must be a vector of dimension {self.dimension}, got shape {np.shape(x)}"
            )
        return arr.reshape(1, -1)


def uniform_overlap_mixture(a: float, b: float) -> Mixture:
    """Equal-weight mixture of intervals [0, b] and [a, a+b].

    The second support is the first shifted right by ``a``; for ``a < b``
    the two overlap on [a, b], where evidence says nothing about the class.
    ``a = 0`` is the degenerate identical-supports case.
    """
    if not (a >= 0 and b > 0):
        raise InputError("overlap mixture needs a >= 0 and b > 0")
    return Mixture(
        [
            ClassComponent(0.5, UniformInterval(0.0, b)),
            ClassComponent(0.5, UniformInterval(a, a + b)),
        ]
    )


def gaussian_mixture(
    means: Sequence[Sequence[float]] | Sequence[float],
    lam: float,
    priors: Sequence[float] | None = None,
) -> Mixture:
    """Mixture of isotropic Gaussians with common lambda; equal priors by default."""
    raw = np.asarray(means, dtype=float)
    # a flat list of scalars means k one-dimensional components
    mean_arr = raw.reshape(-1, 1) if raw.ndim == 1 else raw
    k = mean_arr.shape[0]
    if priors is None:
        priors = [1.0 / k] * k
    if len(priors) != k:
        raise InputError(f"got {len(priors)} priors for {k} means")
    return Mixture(
        [ClassComponent(p, IsotropicGaussian(m, lam)) for p, m in zip(priors, mean_arr)]
    )


def density_at(mixture: Mixture, label: LabelId, x) -> float:
    """Class-conditional density f_label(x)."""
    mixture._check_label(label)
    ev = mixture._as_evidence(x)
    return math.exp(mixture.components[label].density.logpdf(ev)[0])


def _weighted_densities(mixture: Mixture, X: np.ndarray) -> np.ndarray:
    """Prior-weighted densities ``pi_j f_j(x_i)``, times a positive factor per column, as a (k, n) array.

    Evaluated in the log domain, each column shifted so its largest entry is 1: nothing underflows.
    Class-major, so reductions over classes run along the long axis. Raises
    :class:`UnsupportedEvidenceError` if any row has zero density under every class.
    """
    with np.errstate(divide="ignore"):  # a zero prior has log -inf
        weighted = np.stack([np.log(c.prior) + c.density.logpdf(X) for c in mixture.components])
    top = weighted.max(axis=0)
    if np.isneginf(top).any():
        bad = int(np.argmax(np.isneginf(top)))
        raise UnsupportedEvidenceError(f"evidence row {bad} has zero density under every class")
    weighted -= top
    return np.exp(weighted, out=weighted)


def posterior_matrix(mixture: Mixture, X: np.ndarray) -> np.ndarray:
    """Posterior class probabilities for each row of an (n, d) batch.

    Raises :class:`UnsupportedEvidenceError` if any row has zero density
    under every class.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mixture.dimension:
        raise InputError(f"expected an (n, {mixture.dimension}) evidence array")
    weighted = _weighted_densities(mixture, X)
    return (weighted / weighted.sum(axis=0)).T


def posterior(mixture: Mixture, x) -> np.ndarray:
    """Posterior probability vector Prob(class | x); components sum to 1."""
    return posterior_matrix(mixture, mixture._as_evidence(x))[0]


def _uniform_budget(density: Density) -> int:
    if isinstance(density, UniformInterval):
        return 1
    pairs = (density.dimension + 1) // 2
    return 2 * pairs


def _transform(density: Density, u: np.ndarray) -> np.ndarray:
    """Map a block of per-case uniforms to samples of ``density``."""
    if isinstance(density, UniformInterval):
        return (density.lo + (density.hi - density.lo) * u[:, 0]).reshape(-1, 1)
    z = box_muller(u[:, : _uniform_budget(density)])
    return density.mean + math.sqrt(density.lam) * z[:, : density.dimension]


def _sample_arrays(mixture: Mixture, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    width = max(_uniform_budget(c.density) for c in mixture.components)
    table = gen.random((n, 1 + width))
    cum = np.cumsum(mixture.priors)
    labels = np.searchsorted(cum, table[:, 0], side="right")
    labels = np.minimum(labels, mixture.label_count - 1).astype(np.int64)
    X = np.empty((n, mixture.dimension))
    for j, comp in enumerate(mixture.components):
        mask = labels == j
        if np.any(mask):
            X[mask] = _transform(comp.density, table[mask, 1:])
    return X, labels


def sample_case_arrays(mixture: Mixture, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` labeled cases; returns (X of shape (n, d), labels of shape (n,)).

    Identical seeds give bit-identical output, and the first m rows for a
    sample of size n coincide with the sample of size m for every m <= n.
    """
    return _sample_arrays(mixture, n, generator(seed))


def _density_from_dict(obj: dict) -> Density:
    kind = obj.get("kind")
    if kind == "uniform":
        return UniformInterval(float(obj["lo"]), float(obj["hi"]))
    if kind == "gaussian":
        return IsotropicGaussian(np.asarray(obj["mean"], dtype=float), float(obj["lambda"]))
    raise InputError(f"unknown density kind {kind!r} (expected 'uniform' or 'gaussian')")


def mixture_from_dict(obj: dict) -> Mixture:
    """Build a mixture from its JSON form.

    Schema: ``{"dimension": d, "components": [{"prior": p, "density": {...}}]}``
    with density ``{"kind": "uniform", "lo": ..., "hi": ...}`` or
    ``{"kind": "gaussian", "mean": [...], "lambda": ...}``.
    """
    if not isinstance(obj, dict):
        raise InputError(f"mixture document must be a JSON object, got {type(obj).__name__}")
    try:
        comps = [
            ClassComponent(float(c["prior"]), _density_from_dict(c["density"]))
            for c in obj["components"]
        ]
    except InputError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed mixture document: {exc}") from exc
    mixture = Mixture(comps)
    declared = obj.get("dimension")
    if declared is not None and declared != mixture.dimension:
        raise InputError(f"declared dimension {declared!r} != component dimension {mixture.dimension}")
    return mixture


def load_mixture(source: str | Path) -> Mixture:
    """Load a mixture from a JSON file path or an inline JSON string."""
    return mixture_from_dict(read_json_source(source, "mixture"))
