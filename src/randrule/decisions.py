"""Bayes-optimal and randomized classifiers with cost evaluation.

A classifier maps evidence to either a single label (deterministic) or a
full probability distribution over labels (randomized). Keeping the whole
distribution, rather than only a sampler, lets callers integrate expected
costs exactly and test output distributions directly.

Cost bookkeeping uses a truth-first matrix: ``kappa[j, d]`` is the cost of
deciding class ``d`` when the case really belongs to class ``j``. The Bayes
rule picks the decision minimizing ``sum_j prior_j * kappa[j, d] * f_j(x)``,
ties (within a relative ``TIE_RTOL``) broken toward the lowest label; the
randomized Bayes rule spreads its mass evenly over the tied decisions instead.

On a mixture of Gaussians with one lambda, Bayes, randomized Bayes and
nearest-mean score every class of a chunk from one product ``X @ M.T``, not
from k per-class distance passes, built once per rule by :func:`_product`. Its
one per-row bound on how far those scores can be from the kernel's, in any
summation order, certifies a row when no comparison the rule makes lies within
it. The kernel recomputes every other row: ``mixtures._weighted_densities`` for
the Bayes rules, the per-class distances of ``_nearest_mean_kernel`` for
nearest-mean. So every decision is the kernel's, and the kernel stays the
oracle. The likelihood-ratio rule, mixtures whose lambdas differ, interval and
mixed-kind mixtures, single-point :func:`bayes_decide`, posteriors and costs
outside [2**-300, 2**900] take the kernel alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InputError, UnsupportedEvidenceError, allocation
from .mixtures import Mixture, UniformInterval, _case_chunks, _weighted_densities, posterior
from .rng import generator, inverse_cdf

__all__ = [
    "CostMatrix",
    "DeterministicClassifier",
    "RandomizedClassifier",
    "Classifier",
    "CostEstimate",
    "expected_cost_of_decision",
    "expected_cost_of_classifier",
    "bayes_decide",
    "bayes_classifier",
    "randomized_bayes_classifier",
    "two_class_likelihood_rule",
    "nearest_mean_classifier",
    "constant_classifier",
    "overlap_deterministic",
    "bayes_risk",
    "monte_carlo_cost",
]

DISTRIBUTION_TOL = 1e-9
TIE_RTOL = 1e-12  # Bayes scores this close to the minimum count as ties
_U = 2.0**-53  # unit roundoff of a double
_GAP = 400.0  # a certain Bayes row has every live log-weight within this of its largest
_Weights = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]  # X -> (log_w, eta), see _product


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Misclassification costs; entry [truth, decision], non-negative."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"cost matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InputError("cost entries must be finite and non-negative")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def zero_one(cls, label_count: int) -> "CostMatrix":
        """Cost 1 for every error, 0 on the diagonal."""
        return cls(np.ones((label_count, label_count)) - np.eye(label_count))

    @property
    def label_count(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class DeterministicClassifier:
    """Evidence -> label. ``batch_rule`` maps an (n, d) array to (n,) labels."""

    label_count: int
    batch_rule: Callable[[np.ndarray], np.ndarray]
    name: str = "deterministic"

    def decide(self, x) -> int:
        return int(self.decide_batch(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def decide_batch(self, X: np.ndarray) -> np.ndarray:
        labels = np.asarray(self.batch_rule(X))
        if labels.dtype.kind not in "biu":  # checked before the cast, which would truncate 0.7 to 0
            raise InputError(f"classifier {self.name!r} returned labels of dtype {labels.dtype}, not integers")
        labels = labels.astype(np.int64, copy=False)
        if labels.shape != (X.shape[0],):
            raise InputError(f"classifier {self.name!r} returned labels of shape {labels.shape}")
        if labels.size and not 0 <= labels.min() <= labels.max() < self.label_count:
            raise InputError(f"classifier {self.name!r} returned a label outside 0..{self.label_count - 1}")
        return labels

    def distribution(self, x) -> np.ndarray:
        return self.distributions(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def distributions(self, X: np.ndarray) -> np.ndarray:
        """One-hot rows: a deterministic rule is a point-mass randomized rule."""
        labels = self.decide_batch(X)
        out = np.zeros((X.shape[0], self.label_count))
        out[np.arange(X.shape[0]), labels] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class RandomizedClassifier:
    """Evidence -> label distribution. ``batch_rule`` maps (n, d) to (n, k)."""

    label_count: int
    batch_rule: Callable[[np.ndarray], np.ndarray]
    name: str = "randomized"

    def distribution(self, x) -> np.ndarray:
        return self.distributions(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def distributions(self, X: np.ndarray) -> np.ndarray:
        probs = np.asarray(self.batch_rule(X), dtype=float)
        if probs.shape != (X.shape[0], self.label_count):
            raise InputError(f"classifier {self.name!r} returned shape {probs.shape}")
        # written so that nan fails both checks
        if not (np.all(probs >= -DISTRIBUTION_TOL) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= DISTRIBUTION_TOL)):
            raise InputError(f"classifier {self.name!r} returned an invalid distribution")
        return probs

    def realize_batch(self, X: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Resolve each row's distribution with one [0,1) uniform (``rng.inverse_cdf``)."""
        return inverse_cdf(self.distributions(X), uniforms)

    def decide(self, x, seed: int) -> int:
        """One realized decision; same (x, seed) always gives the same label."""
        u = generator(seed).random(1)
        return int(self.realize_batch(np.atleast_2d(np.asarray(x, dtype=float)), u)[0])


Classifier = Union[DeterministicClassifier, RandomizedClassifier]


@dataclass(frozen=True, eq=False)
class CostEstimate:
    """Monte Carlo mean cost with its standard error; reproducible from seed.

    ``confusion[label, decision]`` counts the sampled cases of each true
    label and decision; it is a read-only int64 array that sums to ``n``.
    """

    mean_cost: float
    standard_error: float
    n: int
    seed: int
    confusion: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostEstimate):
            return NotImplemented
        return (self.mean_cost, self.standard_error, self.n, self.seed) == (
            other.mean_cost, other.standard_error, other.n, other.seed
        ) and np.array_equal(self.confusion, other.confusion)


def _check_cost(mixture: Mixture, cost: CostMatrix) -> None:
    if cost.label_count != mixture.label_count:
        raise InputError(
            f"cost matrix is {cost.label_count}x{cost.label_count} "
            f"but the mixture has {mixture.label_count} classes"
        )


def expected_cost_of_decision(mixture: Mixture, cost: CostMatrix, x, d: int) -> float:
    """Posterior-weighted cost of announcing class ``d`` at evidence ``x``."""
    _check_cost(mixture, cost)
    mixture._check_label(d)
    post = posterior(mixture, x)
    return float(post @ cost.values[:, d])


def expected_cost_of_classifier(mixture: Mixture, cost: CostMatrix, classifier: Classifier, x) -> float:
    """Expected cost at ``x`` averaged over the classifier's output distribution."""
    _check_cost(mixture, cost)
    dist = classifier.distribution(x)
    post = posterior(mixture, x)
    return float(post @ cost.values @ dist)


def _product(means: np.ndarray, lam: float, log_prior: np.ndarray, log_norm: float) -> _Weights | None:
    """The product form of Gaussians with common ``lam``, or None when ``lam`` is outside [2**-200, 2**200].

    It is the function ``X -> (log_w, eta)``: the logs of the kernel's weights from one
    matrix product, and how far they can be from the kernel's.

    For an isotropic Gaussian ``log(pi_j f_j(x)) = c_j + x.mu_j / lam - |x|^2 / (2 lam)``
    with ``c_j = log pi_j - |mu_j|^2 / (2 lam) - (d/2) log(2 pi lam)``, so all k
    log-weights of a row come from one (k, d) @ (d, n) product. ``log_w`` holds them
    shifted so each column's largest is 0; ``W = exp(log_w)`` are then the weights of
    ``mixtures._weighted_densities``, which stays the oracle. The product leaves out
    ``|x|^2 / (2 lam)``: with one lambda it shifts the whole column, and the shift to a
    largest of 1 takes it out again.

    The bound. Write ``u = 2**-53``, ``h = 1 / (2 lam)``, ``r = |x|``,
    ``m = max |mu_j|`` and ``ab = max |a_j| + |b|`` over the live labels, where
    ``a_j = log pi_j`` and ``b = (d/2) log(2 pi lam)`` are the floats both paths
    add; ``l_j`` is the exact log-weight built from them. A sum or dot of n terms, in
    any order and with or without FMA (BLAS, numpy's SIMD loops), is within
    ``n u / (1 - n u)`` of the sum of the terms' absolute values.

    * The kernel rounds ``x - mu_j``, its square, a d-term sum, a division and two
      additions: it is within ``(d + 5) u h |x - mu_j|^2 + 2 u ab`` of ``l_j``, and
      ``|x - mu_j| <= r + m``.
    * The product rounds ``mu_j / lam`` and a d-term dot (``(d + 1) u 2 h sum_i |x_i mu_ji|``,
      at most ``(d + 1) u 2 h r m`` by Cauchy-Schwarz, so no second product is needed),
      ``|mu_j|^2 / (2 lam)`` and ``c_j`` (``(d + 4) u h m^2 + 2 u ab``) and at most two
      more additions: it is within ``(d + 6) u h ((r + m)^2 - r^2) + 4 u ab``.
    * Each path subtracts its column's top; the top is a factor common to the column,
      which no comparison of its entries sees, and the subtraction adds
      ``u |l_j - l_top| <= u (h (r + m)^2 + 2 ab)``. The caller's ``exp`` is allowed 8 ulp
      (``17 u`` in the log), a cost product over k non-negative terms ``(k + 1) u``, and
      ``u h (r + m)^2`` covers the rounded ``r``, ``m`` and ``n u / (1 - n u)`` here.

    So two entries of a column, each a cost-weighted sum of weights, compare within
    ``eta_1 = (2 d + 14) u h (r + m)^2 - (d + 6) u h r^2 + 10 u ab + (2 k + 36) u``
    of how the kernel's compare. A comparison against a threshold that is a rounded
    product of another entry, times a rounded ``exp(+-eta)``, agrees with the kernel's
    when ``eta >= 2 eta_1 + 24 u``; ``eta`` is that with ``8 u`` to spare for its own
    rounding. For d = 8, k = 10, equal priors and unit lambda it stays below ``TIE_RTOL``
    while ``r + m < 17``.

    On weights the bound holds while none is subnormal: the Bayes rules certify only rows
    whose live log-weights all lie within ``_GAP`` of the top, so every weight is at least
    ``e**-400`` in both paths; a comparison of log-weights needs no such floor. Underflow
    elsewhere (a product ``x_i mu_i``, ``|x|^2`` of tiny evidence) adds at most
    ``d 2**-1074`` per sum; the lambda range keeps that far below ``u`` after the
    scaling by ``h``.
    Evidence with inf or nan gives a nan or infinite eta, which no comparison passes.
    A zero prior's log-weight is -inf in both paths and its weight exactly 0.
    """
    if not 2.0**-200 <= lam <= 2.0**200:
        return None
    k, d = means.shape
    h = 0.5 / lam
    sq_norms = np.einsum("ij,ij->i", means, means)
    live = np.flatnonzero(log_prior > -np.inf)
    scaled_means, offsets = means / lam, log_prior - sq_norms * h - log_norm
    max_norm = math.sqrt(sq_norms[live].max())
    eta_slope, eta_relief = (4 * d + 28) * _U * h, (2 * d + 12) * _U * h
    eta_floor = 20 * _U * float(np.abs(log_prior[live]).max() + abs(log_norm)) + (4 * k + 104) * _U

    def weights(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)  # the bound is for doubles
        with np.errstate(all="ignore"):  # inf or nan evidence leaves its row uncertain, not a warning
            norms = np.einsum("ij,ij->i", X, X)
            log_w = scaled_means @ X.T
            log_w += offsets[:, None]
            log_w -= log_w.max(axis=0)
            eta = eta_slope * (np.sqrt(norms) + max_norm) ** 2 - eta_relief * norms
            eta += eta_floor
            return log_w, eta

    return weights


def _bayes_ties(mixture: Mixture, cost: CostMatrix, X: np.ndarray) -> np.ndarray:
    """(k, n) mask of the decisions whose score ``sum_j pi_j kappa[j, d] f_j(x_i)`` ties the minimum."""
    scores = cost.values.T @ _weighted_densities(mixture, X)
    return scores <= scores.min(axis=0) * (1.0 + TIE_RTOL)


def _with_kernel(out: np.ndarray, ok: np.ndarray, X: np.ndarray, kernel) -> np.ndarray:
    """``out`` with every column that ``ok`` leaves uncertain replaced by ``kernel`` on its rows of ``X``."""
    uncertain = np.flatnonzero(~ok)
    if uncertain.size:
        try:
            out[..., uncertain] = kernel(X[uncertain])
        except UnsupportedEvidenceError:
            kernel(X)  # raises again, naming the row by its place in the whole batch
            raise
    return out


def _certified_ties(mixture: Mixture, cost: CostMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The function ``X ->`` :func:`_bayes_ties` mask, from the product form on every row where it is certain.

    The product form serves Gaussians with one lambda in [2**-200, 2**200] and positive costs in [2**-300,
    2**900], which keep every cost times a weight of at least ``e**-400`` normal and every score finite.
    A row is certain when its live log-weights lie within ``_GAP`` of its top and no score lies within the
    factor ``exp(+-eta)`` of the tie threshold; the kernel decides the rest, and every row without the product.
    """
    arrays, positive = mixture._labels, cost.values[cost.values > 0]
    product = None
    if not arrays.is_interval.any() and np.all(arrays.lam == arrays.lam[0]):
        if not positive.size or (2.0**-300 <= positive.min() and positive.max() <= 2.0**900):
            product = _product(arrays.means, arrays.lam[0], arrays.log_prior, mixture.components[0].density.log_norm)
    if product is None:
        return lambda X: _bayes_ties(mixture, cost, X)
    live = arrays.log_prior > -np.inf
    live = slice(None) if live.all() else live  # a view, not a copy, when every label is live

    def certified(X: np.ndarray) -> np.ndarray:
        log_w, eta = product(X)
        with np.errstate(all="ignore"):
            ok = log_w[live].min(axis=0) >= -_GAP
            scores = cost.values.T @ np.exp(log_w, out=log_w)
            threshold = scores.min(axis=0) * (1.0 + TIE_RTOL)
            ties = scores <= threshold * np.exp(-eta)
            ok &= (ties | (scores > threshold * np.exp(eta))).all(axis=0)
        return _with_kernel(ties, ok, X, lambda rows: _bayes_ties(mixture, cost, rows))

    return certified


def bayes_decide(mixture: Mixture, cost: CostMatrix, x) -> int:
    """Minimum expected cost decision at ``x``; ties go to the lowest label."""
    _check_cost(mixture, cost)
    return int(np.argmax(_bayes_ties(mixture, cost, mixture._as_evidence(x))[:, 0]))


def bayes_classifier(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """The :func:`bayes_decide` rule packaged as a vectorized classifier."""
    _check_cost(mixture, cost)
    ties = _certified_ties(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        return np.argmax(ties(X), axis=0)

    return DeterministicClassifier(mixture.label_count, rule, name="bayes")


def randomized_bayes_classifier(mixture: Mixture, cost: CostMatrix) -> RandomizedClassifier:
    """Spread the mass evenly over every minimum expected cost decision.

    Every such decision costs the minimum, so this rule costs exactly as much as
    :func:`bayes_decide` at every ``x``; on the two-uniform overlap it is a fair coin.
    """
    _check_cost(mixture, cost)
    certified = _certified_ties(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        ties = certified(X)
        return (ties / ties.sum(axis=0)).T

    return RandomizedClassifier(mixture.label_count, rule, name="randomized-bayes")


def two_class_likelihood_rule(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """Two-class rule: declare class 0 iff f0(x)/f1(x) strictly exceeds the threshold.

    The threshold ``(pi_1 kappa[1,0]) / (pi_0 kappa[0,1])`` makes the rule
    agree with :func:`bayes_decide` wherever the posterior is defined. The
    comparison is done in product form on the prior-weighted densities of
    ``mixtures._weighted_densities``, so zero densities need no special casing.
    Every row takes that kernel; no workload needs a faster path.
    """
    _check_cost(mixture, cost)
    if mixture.label_count != 2:
        raise InputError("the likelihood-ratio rule is defined for exactly two classes")
    k01 = cost.values[0, 1]
    k10 = cost.values[1, 0]
    if mixture.priors[0] * k01 <= 0.0:
        raise InputError("likelihood threshold undefined: pi_0 * kappa[0,1] must be positive")

    def rule(X: np.ndarray) -> np.ndarray:
        w = _weighted_densities(mixture, X)
        return np.where(k01 * w[0] > k10 * w[1], 0, 1)

    return DeterministicClassifier(2, rule, name="likelihood-ratio")


def _nearest_mean_kernel(means: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Index of the nearest mean by per-class squared distances; the lowest index on ties.

    A row whose distances overflow is measured again with its evidence and the means scaled by the power
    of two that takes its largest magnitude below ``2**T``, ``T = (1021 - bit_length(d)) // 2``, so that
    ``d * (2 * 2**T)**2 < 2**1024``. Scaling by a power of two changes no comparison while nothing leaves
    the normal range. Raises :class:`UnsupportedEvidenceError` naming the first row with a distance
    that is still not finite (nan or infinite evidence)."""
    def distances(X, scale):
        # class by class, so the largest temporary is (n, d), not (n, k, d)
        with np.errstate(over="ignore"):  # far evidence is measured again below
            return np.stack([((X - mu * scale) ** 2).sum(axis=1) for mu in means], axis=1)

    d2 = distances(X, 1.0)
    finite = np.isfinite(d2).all(axis=1)
    if not finite.all():
        far = np.flatnonzero(~finite)
        top = np.maximum(np.abs(X[far]).max(axis=1), np.abs(means).max())
        # below 1 for every finite row that overflowed; nan and infinite rows stay as they are
        scale = np.minimum(np.ldexp(1.0, (1021 - X.shape[1].bit_length()) // 2 - np.frexp(top)[1]), 1.0)[:, None]
        d2[far] = distances(X[far] * scale, scale)
        finite = np.isfinite(d2).all(axis=1)
        if not finite.all():
            raise UnsupportedEvidenceError(f"evidence row {int(np.argmin(finite))} has a distance to a mean that is not finite")
    return np.argmin(d2, axis=1)


def nearest_mean_classifier(mixture: Mixture) -> DeterministicClassifier:
    """Declare the class with the nearest Gaussian mean (lowest index on ties).

    Requires every component to be Gaussian with a common lambda and equal
    priors; under those assumptions this rule is Bayes-optimal for 0-1 cost.

    The rule reads the one bound of :func:`_product`, on a product form built from
    the means, the first lambda, zero log priors and a zero ``log_norm``, so its
    log-weights are ``-|x - mu_j|^2 / (2 lam)`` up to one column shift. It does not
    take the mixture's priors, which may differ from equal by up to 1e-12 and would
    certify against the density kernel. The bound
    also covers the distance kernel: its rounding of ``|x - mu_j|^2``, scaled by
    ``h = 1 / (2 lam)``, lies inside the ``(d + 5) u h |x - mu_j|^2`` budgeted for the
    density kernel. A row is certain when exactly one class has a log-weight of at
    least ``-eta``, that is ``W >= exp(-eta)`` without the rounding of ``exp``; a
    comparison of log-weights needs no floor on the weights, so classes far apart stay
    certain. The per-class distances decide every other row, exact ties included, and
    every row when lambda is outside [2**-200, 2**200].
    """
    arrays = mixture._labels
    if arrays.is_interval.any():
        raise InputError("nearest-mean rule needs Gaussian components")
    if any(not math.isclose(lam, arrays.lam[0], rel_tol=1e-12) for lam in arrays.lam):
        raise InputError("nearest-mean rule needs a common lambda across components")
    k = mixture.label_count
    if any(abs(p - 1.0 / k) > 1e-12 for p in mixture.priors):
        raise InputError("nearest-mean rule needs equal priors")
    means = arrays.means
    product = _product(means, arrays.lam[0], np.zeros(k), 0.0)

    def rule(X: np.ndarray) -> np.ndarray:
        if product is None:
            return _nearest_mean_kernel(means, X)
        log_w, eta = product(X)
        near = log_w >= -eta  # inf or nan evidence gives no class or every class: uncertain
        certain = near.sum(axis=0) == 1
        return _with_kernel(np.argmax(near, axis=0), certain, X, lambda rows: _nearest_mean_kernel(means, rows))

    return DeterministicClassifier(mixture.label_count, rule, name="nearest-mean")


def constant_classifier(label: int, label_count: int) -> DeterministicClassifier:
    """Ignore the evidence and always announce ``label``."""
    if not 0 <= label < label_count:
        raise InputError(f"label {label} out of range for {label_count} classes")

    def rule(X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], label, dtype=np.int64)

    return DeterministicClassifier(label_count, rule, name=f"constant:{label}")


def overlap_deterministic(a: float, b: float) -> DeterministicClassifier:
    """Midpoint rule for supports [0, b] and [a, a+b]: class 1 iff (a+b)/2 <= x."""
    # a = 0 is the identical-supports case; the shift cannot be negative
    if not (a >= 0 and b > 0):
        raise InputError(f"overlap rules need a >= 0 and b > 0, got a={a}, b={b}")
    mid = (a + b) / 2.0

    def rule(X: np.ndarray) -> np.ndarray:
        return (mid <= X[:, 0]).astype(np.int64)

    return DeterministicClassifier(2, rule, name="overlap-deterministic")


def bayes_risk(mixture: Mixture, cost: CostMatrix) -> float:
    """Exact expected cost of :func:`bayes_decide` on a mixture of intervals.

    Every density is constant between consecutive endpoints, so the risk sums
    cell width times the least score ``sum_j pi_j kappa[j, d] f_j`` at each
    cell midpoint; on the overlap under 0-1 cost that is (b-a)/(2b) for a < b.
    """
    _check_cost(mixture, cost)
    if not all(isinstance(c.density, UniformInterval) for c in mixture.components):
        raise InputError("the exact Bayes risk needs interval components")
    edges = np.unique([[c.density.lo, c.density.hi] for c in mixture.components])
    mids = ((edges[:-1] + edges[1:]) / 2.0).reshape(-1, 1)
    weighted = np.stack([c.prior * np.exp(c.density.logpdf(mids)) for c in mixture.components])
    return float(np.diff(edges) @ (cost.values.T @ weighted).min(axis=0))


def monte_carlo_cost(
    mixture: Mixture,
    cost: CostMatrix,
    classifier: Classifier,
    n: int,
    seed: int,
) -> CostEstimate:
    """Estimate a classifier's expected cost by sampling ``n`` labeled cases.

    Two sub-streams are derived from ``seed`` by fixed index: stream 0 draws
    the cases, stream 1 supplies one uniform per case for randomized
    decisions. Case ``i`` always consumes position ``i`` of each stream, so
    the estimate does not depend on evaluation order and is bit-reproducible.

    The cases stream through in the chunks of ``mixtures._case_chunks``:
    each chunk is sampled, decided and reduced to its per-case costs and
    confusion counts before the next is drawn. The per-case costs vector is
    the only array of length ``n``; the mean and standard error are taken
    over it at the end, so neither depends on the chunk size.
    """
    _check_cost(mixture, cost)
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    top = float(cost.values.max())
    # top**2 * n bounds the sum of the costs and of their squared deviations; top * top is inf at
    # worst and the integer quotient is exact for any n, so the test itself cannot overflow
    if top * top >= 2**1023 / n:
        raise InputError(f"cost magnitude {top:g} over n={n} cases could overflow the mean or its standard error: "
                         "scale the costs down")
    if classifier.label_count != mixture.label_count:
        raise InputError("classifier and mixture disagree on the number of classes")
    k = mixture.label_count
    coins = generator(seed, 1)
    flat_cost = cost.values.ravel()
    with allocation(n, "cases"):
        costs = np.empty(n)
    confusion = np.zeros(k * k, dtype=np.int64)
    for start, X, labels in _case_chunks(mixture, n, generator(seed, 0)):
        rows = labels.size
        if isinstance(classifier, DeterministicClassifier):
            decisions = classifier.decide_batch(X)
        else:
            decisions = classifier.realize_batch(X, coins.random(rows))
        flat = labels * k + decisions
        costs[start : start + rows] = flat_cost[flat]
        confusion += np.bincount(flat, minlength=k * k)
        X = labels = decisions = flat = None  # released before the next chunk is sampled
    se = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    confusion = confusion.reshape(k, k)
    confusion.flags.writeable = False
    return CostEstimate(float(costs.mean()), se, n, seed, confusion)
