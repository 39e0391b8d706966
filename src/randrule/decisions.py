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

On a mixture of Gaussians the batch rules (Bayes, randomized Bayes,
likelihood-ratio, nearest-mean) score every class of a chunk from one product
``X @ M.T`` and one row norm, not from k per-class distance passes. A per-row
bound on how far those scores can be from the kernel's, in any summation
order, certifies a row when no comparison the rule makes lies within it
(``mixtures._product_weights`` derives it). The kernel recomputes every other
row: ``mixtures._weighted_densities`` for the density rules, the per-class
distances of ``_nearest_mean_kernel`` for nearest-mean. So every decision is
the kernel's, and the kernel stays the oracle. Interval and mixed-kind
mixtures, single-point :func:`bayes_decide`, posteriors and costs outside
[2**-300, 2**900] take the kernel alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InputError, UnsupportedEvidenceError
from .mixtures import (
    _U,
    Mixture,
    UniformInterval,
    _case_chunks,
    _product_weights,
    _weighted_densities,
    posterior,
)
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
        labels = np.asarray(self.batch_rule(X), dtype=np.int64)
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
        if np.any(probs < -DISTRIBUTION_TOL) or np.any(
            np.abs(probs.sum(axis=1) - 1.0) > DISTRIBUTION_TOL
        ):
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


def _bayes_ties(mixture: Mixture, cost: CostMatrix, X: np.ndarray) -> np.ndarray:
    """(k, n) mask of the decisions whose score ``sum_j pi_j kappa[j, d] f_j(x_i)`` ties the minimum."""
    scores = cost.values.T @ _weighted_densities(mixture, X)
    return scores <= scores.min(axis=0) * (1.0 + TIE_RTOL)


def _product_form(mixture: Mixture, cost: CostMatrix):
    """The mixture's ``_Product``, or None when it has none or a cost could make a certified score subnormal.

    Positive costs in [2**-300, 2**900] keep every cost times a weight of at least
    ``e**-400`` a normal double, and every score finite.
    """
    positive = cost.values[cost.values > 0]
    if positive.size and not (2.0**-300 <= positive.min() and positive.max() <= 2.0**900):
        return None
    return mixture._labels.product


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


def _certified_ties(mixture: Mixture, cost: CostMatrix, product, X: np.ndarray) -> np.ndarray:
    """The :func:`_bayes_ties` mask, from the product form on every row where it is certain.

    A row is certain when no score lies within the factor ``exp(+-eta)`` of the
    tie threshold (see ``mixtures._product_weights``); the kernel recomputes the rest.
    """
    if product is None:
        return _bayes_ties(mixture, cost, X)
    W, eta, ok = _product_weights(product, X)
    with np.errstate(all="ignore"):
        scores = cost.values.T @ W
        threshold = scores.min(axis=0) * (1.0 + TIE_RTOL)
        ties = scores <= threshold * np.exp(-eta)
        ok &= (ties | (scores > threshold * np.exp(eta))).all(axis=0)
    return _with_kernel(ties, ok, X, lambda rows: _bayes_ties(mixture, cost, rows))


def bayes_decide(mixture: Mixture, cost: CostMatrix, x) -> int:
    """Minimum expected cost decision at ``x``; ties go to the lowest label."""
    _check_cost(mixture, cost)
    return int(np.argmax(_bayes_ties(mixture, cost, mixture._as_evidence(x))[:, 0]))


def bayes_classifier(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """The :func:`bayes_decide` rule packaged as a vectorized classifier."""
    _check_cost(mixture, cost)
    product = _product_form(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        return np.argmax(_certified_ties(mixture, cost, product, X), axis=0)

    return DeterministicClassifier(mixture.label_count, rule, name="bayes")


def randomized_bayes_classifier(mixture: Mixture, cost: CostMatrix) -> RandomizedClassifier:
    """Spread the mass evenly over every minimum expected cost decision.

    Every such decision costs the minimum, so this rule costs exactly as much as
    :func:`bayes_decide` at every ``x``; on the two-uniform overlap it is a fair coin.
    """
    _check_cost(mixture, cost)
    product = _product_form(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        ties = _certified_ties(mixture, cost, product, X)
        return (ties / ties.sum(axis=0)).T

    return RandomizedClassifier(mixture.label_count, rule, name="randomized-bayes")


def two_class_likelihood_rule(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """Two-class rule: declare class 0 iff f0(x)/f1(x) strictly exceeds the threshold.

    The threshold ``(pi_1 kappa[1,0]) / (pi_0 kappa[0,1])`` makes the rule
    agree with :func:`bayes_decide` wherever the posterior is defined. The
    comparison is done in product form on the prior-weighted densities, so
    zero densities need no special casing. On two Gaussians the certified
    weights of ``mixtures._product_weights`` decide every row whose two sides
    differ by more than the factor ``exp(eta)``; the kernel decides the rest.
    """
    _check_cost(mixture, cost)
    if mixture.label_count != 2:
        raise InputError("the likelihood-ratio rule is defined for exactly two classes")
    k01 = cost.values[0, 1]
    k10 = cost.values[1, 0]
    if mixture.priors[0] * k01 <= 0.0:
        raise InputError("likelihood threshold undefined: pi_0 * kappa[0,1] must be positive")

    product = _product_form(mixture, cost)

    def kernel(X: np.ndarray) -> np.ndarray:
        w = _weighted_densities(mixture, X)
        return np.where(k01 * w[0] > k10 * w[1], 0, 1)

    def rule(X: np.ndarray) -> np.ndarray:
        if product is None:
            return kernel(X)
        W, eta, ok = _product_weights(product, X)
        with np.errstate(all="ignore"):
            side0, side1 = k01 * W[0], k10 * W[1]
            first = side0 > side1 * np.exp(eta)
            ok &= first | (side0 <= side1 * np.exp(-eta))
        return _with_kernel(np.where(first, 0, 1), ok, X, kernel)

    return DeterministicClassifier(2, rule, name="likelihood-ratio")


def _nearest_mean_kernel(means: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Index of the nearest mean by per-class squared distances; the lowest index on ties."""
    # class by class, so the largest temporary is (n, d), not (n, k, d)
    d2 = np.stack([((X - mu) ** 2).sum(axis=1) for mu in means], axis=1)
    return np.argmin(d2, axis=1)


def nearest_mean_classifier(mixture: Mixture) -> DeterministicClassifier:
    """Declare the class with the nearest Gaussian mean (lowest index on ties).

    Requires every component to be Gaussian with a common lambda and equal
    priors; under those assumptions this rule is Bayes-optimal for 0-1 cost.

    The rule takes ``argmax_j (x.mu_j - |mu_j|^2 / 2)`` from one matrix product.
    Against the kernel's squared distances ``|x - mu_j|^2 = |x|^2 - 2 (x.mu_j - |mu_j|^2 / 2)``,
    each rounded within ``(d + 2) u (|x| + |mu_j|)^2`` (``u = 2**-53``, any summation
    order), and the product's scores, each within ``(d + 1) u (|x| + |mu_j|)^2 / 2``,
    a row is certain when one score leads every other by more than
    ``2 (d + 6) u ((|x| + max|mu_j|)^2 + 2**-900)``; the last term covers underflow.
    The per-class distances decide every other row, exact ties included.
    """
    arrays = mixture._labels
    if arrays.is_interval.any():
        raise InputError("nearest-mean rule needs Gaussian components")
    if any(not math.isclose(lam, arrays.lam[0], rel_tol=1e-12) for lam in arrays.lam):
        raise InputError("nearest-mean rule needs a common lambda across components")
    equal = 1.0 / mixture.label_count
    if any(abs(p - equal) > 1e-12 for p in mixture.priors):
        raise InputError("nearest-mean rule needs equal priors")
    means = arrays.means
    half_sq = 0.5 * np.einsum("ij,ij->i", means, means)
    max_norm = math.sqrt(2.0 * half_sq.max())
    slope = 2 * (mixture.dimension + 6) * _U

    def rule(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)  # the margin is for doubles
        with np.errstate(all="ignore"):  # inf or nan evidence leaves its row uncertain
            scores = means @ X.T
            scores -= half_sq[:, None]
            margin = slope * ((np.sqrt(np.einsum("ij,ij->i", X, X)) + max_norm) ** 2 + 2.0**-900)
            near = scores >= scores.max(axis=0) - margin
            ok = near.sum(axis=0) == 1
        return _with_kernel(np.argmax(near, axis=0), ok, X, lambda rows: _nearest_mean_kernel(means, rows))

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
    if classifier.label_count != mixture.label_count:
        raise InputError("classifier and mixture disagree on the number of classes")
    k = mixture.label_count
    coins = generator(seed, 1)
    flat_cost = cost.values.ravel()
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
