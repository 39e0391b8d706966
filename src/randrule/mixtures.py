"""Known class-conditional mixtures: densities, posteriors, and sampling.

A :class:`Mixture` is the generative environment for classification: each
class carries a prior weight and a density (a one-dimensional interval or an
isotropic Gaussian). Labels are the integer positions ``0..k-1`` of the
components.

Sampling is seed-deterministic. Cases are drawn from one ``(n, 1 + w)``
table of uniforms from a seeded generator, where ``w`` is the widest
per-case transform budget over the components (1 for an interval,
``2*ceil(d/2)`` for a d-dimensional Gaussian). Case ``i`` consumes only row
``i``: column 0 picks the label with ``rng.inverse_cdf`` over the priors,
and the remaining columns feed that label's density transform. Row-indexed
consumption makes the result independent of evaluation order or batching.

Each density kind's transform runs once over all rows, its parameters
gathered by label, so no class is masked or copied out. Consecutive draws
from one generator give the same table as one draw of all rows, so
``_case_chunks`` yields the cases in chunks of ``_CHUNK_ROWS``, the one
binding of the chunk size. ``sample_case_arrays`` fills its output chunk by
chunk from ``generator(seed)``. ``decisions.monte_carlo_cost`` draws its
cases from ``_case_chunks`` on sub-stream 0 of its seed, and decides and
reduces each chunk before it draws the next, so its per-case costs vector
is the only array it holds of length ``n``.

A mixture builds its per-label arrays once (``Mixture._labels``: kind,
interval ends, means, lambdas and their square roots, log priors), and the
sampler and the decision rules read them. ``_weighted_densities`` is the
evidence kernel and the oracle: :func:`posterior_matrix` and the rules of
``decisions`` read it, except on the rows a certified product form decides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import InputError, UnsupportedEvidenceError, allocation
from .jsonio import read_json_source
from .rng import box_muller, generator, inverse_cdf

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
_CHUNK_ROWS = 1 << 14  # cases sampled at a time, so each chunk's arrays stay in cache


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
        if not math.isfinite(self.hi - self.lo):
            raise InputError(f"interval [{self.lo}, {self.hi}] is wider than a double can hold")

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

    @property
    def log_norm(self) -> float:
        """``(d/2) log(2 pi lambda)``, the log of the density's normalizer."""
        return self.dimension / 2.0 * math.log(2.0 * math.pi * self.lam)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        # far evidence overflows the distance, and a subnormal lambda the quotient, to -inf: the exact limit
        with np.errstate(over="ignore"):
            sq = np.sum((x - self.mean) ** 2, axis=1)
            return -sq / (2.0 * self.lam) - self.log_norm


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

    @functools.cached_property
    def _labels(self) -> "_LabelArrays":
        return _label_arrays(self)

    def _as_evidence(self, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.ndim != 1 or arr.size != self.dimension:
            raise InputError(
                f"evidence must be a vector of dimension {self.dimension}, got shape {np.shape(x)}"
            )
        return arr.reshape(1, -1)


@dataclass(frozen=True, eq=False)
class _LabelArrays:
    """Every label's parameters as arrays, built once per mixture (``Mixture._labels``).

    The other kind's slots stay harmless: an interval has mean 0 and lambda 1,
    a Gaussian lo = span = 0.
    """

    is_interval: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    means: np.ndarray
    lam: np.ndarray
    scale: np.ndarray  # sqrt(lam)
    log_prior: np.ndarray  # -inf for a zero prior


def _label_arrays(mixture: Mixture) -> _LabelArrays:
    k, d = mixture.label_count, mixture.dimension
    is_interval, lo, span = np.zeros(k, dtype=bool), np.zeros(k), np.zeros(k)
    means, lam = np.zeros((k, d)), np.ones(k)
    for j, comp in enumerate(mixture.components):
        f = comp.density
        if isinstance(f, UniformInterval):
            is_interval[j], lo[j], span[j] = True, f.lo, f.hi - f.lo
        else:
            means[j], lam[j] = f.mean, f.lam
    with np.errstate(divide="ignore"):  # a zero prior has log -inf
        log_prior = np.array([np.log(c.prior) for c in mixture.components])
    return _LabelArrays(is_interval, lo, span, means, lam, np.sqrt(lam), log_prior)


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
    :class:`UnsupportedEvidenceError` naming the first row with zero density under every
    class, or with nan evidence.
    """
    weighted = np.stack([a + c.density.logpdf(X) for a, c in zip(mixture._labels.log_prior, mixture.components)])
    top = weighted.max(axis=0)
    scored = top > -np.inf  # False on nan too
    if not scored.all():
        bad = int(np.argmin(scored))
        # an interval's logpdf reads nan evidence as outside its support, so ask the evidence
        why = "is not a number" if np.isnan(X[bad]).any() else "has zero density under every class"
        raise UnsupportedEvidenceError(f"evidence row {bad} {why}")
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


def _case_chunks(mixture: Mixture, n: int, gen: np.random.Generator):
    """Yield ``(start, X, labels)`` for the next ``n`` cases of ``gen``'s stream, ``_CHUNK_ROWS`` at a time."""
    d, arrays = mixture.dimension, mixture._labels
    is_interval = arrays.is_interval
    # the widest transform budget: 1 for an interval, 2*ceil(d/2) for a Gaussian
    width = 1 if is_interval.all() else 2 * ((d + 1) // 2)
    priors = mixture.priors
    for start in range(0, n, _CHUNK_ROWS):
        table = gen.random((min(_CHUNK_ROWS, n - start), 1 + width))
        labels = inverse_cdf(priors, table[:, 0])
        # each kind's transform runs once over every row, its parameters gathered by label
        if is_interval.any():
            X = (arrays.lo[labels] + arrays.span[labels] * table[:, 1]).reshape(-1, 1)
        if not is_interval.all():
            gauss = box_muller(table[:, 1:])[:, :d]  # a Gaussian's budget is the widest
            table = None  # in place from here, so the uniforms are gone before the gather
            gauss *= arrays.scale[labels, None]
            gauss += arrays.means[labels]
            # only a 1-D mixture holds both kinds
            X = np.where(is_interval[labels, None], X, gauss) if is_interval.any() else gauss
        table = gauss = None  # the caller decides the chunk without the sampling temporaries
        yield start, X, labels


def sample_case_arrays(mixture: Mixture, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` labeled cases; returns (X of shape (n, d), labels of shape (n,)).

    Identical seeds give bit-identical output, and the first m rows for a
    sample of size n coincide with the sample of size m for every m <= n.
    The cases come from ``_case_chunks`` on ``generator(seed)``; Monte Carlo
    draws its cases from sub-stream 0 of its seed instead, so this is not
    the sample that ``monte_carlo_cost(..., n, seed)`` evaluates.
    """
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    with allocation(n, "cases"):
        X, labels = np.empty((n, mixture.dimension)), np.empty(n, dtype=np.int64)
    for start, chunk_X, chunk_labels in _case_chunks(mixture, n, generator(seed)):
        stop = start + chunk_labels.size
        X[start:stop], labels[start:stop] = chunk_X, chunk_labels
    return X, labels


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
