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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InputError
from .mixtures import IsotropicGaussian, Mixture, _sample_arrays, _weighted_densities, posterior
from .rng import generator

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
    "analytic_overlap_cost",
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
        """Resolve each row's distribution with one [0,1) uniform (inverse CDF)."""
        cum = np.cumsum(self.distributions(X), axis=1)
        picks = (uniforms[:, None] >= cum).sum(axis=1)
        return np.minimum(picks, self.label_count - 1).astype(np.int64)

    def decide(self, x, seed: int) -> int:
        """One realized decision; same (x, seed) always gives the same label."""
        u = generator(seed).random(1)
        return int(self.realize_batch(np.atleast_2d(np.asarray(x, dtype=float)), u)[0])


Classifier = Union[DeterministicClassifier, RandomizedClassifier]


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo mean cost with its standard error; reproducible from seed."""

    mean_cost: float
    standard_error: float
    n: int
    seed: int


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


def bayes_decide(mixture: Mixture, cost: CostMatrix, x) -> int:
    """Minimum expected cost decision at ``x``; ties go to the lowest label."""
    _check_cost(mixture, cost)
    return int(np.argmax(_bayes_ties(mixture, cost, mixture._as_evidence(x))[:, 0]))


def bayes_classifier(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """The :func:`bayes_decide` rule packaged as a vectorized classifier."""
    _check_cost(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        return np.argmax(_bayes_ties(mixture, cost, X), axis=0)

    return DeterministicClassifier(mixture.label_count, rule, name="bayes")


def randomized_bayes_classifier(mixture: Mixture, cost: CostMatrix) -> RandomizedClassifier:
    """Spread the mass evenly over every minimum expected cost decision.

    Every such decision costs the minimum, so this rule costs exactly as much as
    :func:`bayes_decide` at every ``x``; on the two-uniform overlap it is a fair coin.
    """
    _check_cost(mixture, cost)

    def rule(X: np.ndarray) -> np.ndarray:
        ties = _bayes_ties(mixture, cost, X)
        return (ties / ties.sum(axis=0)).T

    return RandomizedClassifier(mixture.label_count, rule, name="randomized-bayes")


def two_class_likelihood_rule(mixture: Mixture, cost: CostMatrix) -> DeterministicClassifier:
    """Two-class rule: declare class 0 iff f0(x)/f1(x) strictly exceeds the threshold.

    The threshold ``(pi_1 kappa[1,0]) / (pi_0 kappa[0,1])`` makes the rule
    agree with :func:`bayes_decide` wherever the posterior is defined. The
    comparison is done in product form on the prior-weighted densities, so
    zero densities need no special casing.
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


def nearest_mean_classifier(mixture: Mixture) -> DeterministicClassifier:
    """Declare the class with the nearest Gaussian mean (lowest index on ties).

    Requires every component to be Gaussian with a common lambda and equal
    priors; under those assumptions this rule is Bayes-optimal for 0-1 cost.
    """
    lams = []
    means = []
    for comp in mixture.components:
        if not isinstance(comp.density, IsotropicGaussian):
            raise InputError("nearest-mean rule needs Gaussian components")
        lams.append(comp.density.lam)
        means.append(comp.density.mean)
    if any(not math.isclose(lam, lams[0], rel_tol=1e-12) for lam in lams):
        raise InputError("nearest-mean rule needs a common lambda across components")
    equal = 1.0 / mixture.label_count
    if any(abs(p - equal) > 1e-12 for p in mixture.priors):
        raise InputError("nearest-mean rule needs equal priors")
    mean_arr = np.stack(means)

    def rule(X: np.ndarray) -> np.ndarray:
        # class by class, so the largest temporary is (n, d), not (n, k, d)
        d2 = np.stack([((X - mu) ** 2).sum(axis=1) for mu in mean_arr], axis=1)
        return np.argmin(d2, axis=1)

    return DeterministicClassifier(mixture.label_count, rule, name="nearest-mean")


def constant_classifier(label: int, label_count: int) -> DeterministicClassifier:
    """Ignore the evidence and always announce ``label``."""
    if not 0 <= label < label_count:
        raise InputError(f"label {label} out of range for {label_count} classes")

    def rule(X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], label, dtype=np.int64)

    return DeterministicClassifier(label_count, rule, name=f"constant:{label}")


def _check_overlap_params(a: float, b: float) -> None:
    # a = 0 is the identical-supports case; the shift cannot be negative
    if not (a >= 0 and b > 0):
        raise InputError(f"overlap rules need a >= 0 and b > 0, got a={a}, b={b}")


def overlap_deterministic(a: float, b: float) -> DeterministicClassifier:
    """Midpoint rule for supports [0, b] and [a, a+b]: class 1 iff (a+b)/2 <= x."""
    _check_overlap_params(a, b)
    mid = (a + b) / 2.0

    def rule(X: np.ndarray) -> np.ndarray:
        return (mid <= X[:, 0]).astype(np.int64)

    return DeterministicClassifier(2, rule, name="overlap-deterministic")


def analytic_overlap_cost(a: float, b: float) -> float:
    """Exact 0-1 error rate of the overlap rules: (b-a)/(2b) if a < b else 0.

    The mixture puts mass (b-a)/b on the overlap, where any rule errs half
    the time; off the overlap the evidence decides the class for free. At
    a >= b the overlap has measure zero and the cost vanishes.
    """
    _check_overlap_params(a, b)
    if a >= b:
        return 0.0
    return (b - a) / (2.0 * b)


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
    """
    _check_cost(mixture, cost)
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    if classifier.label_count != mixture.label_count:
        raise InputError("classifier and mixture disagree on the number of classes")
    X, labels = _sample_arrays(mixture, n, generator(seed, 0))
    if isinstance(classifier, DeterministicClassifier):
        decisions = classifier.decide_batch(X)
    else:
        u = generator(seed, 1).random(n)
        decisions = classifier.realize_batch(X, u)
    costs = cost.values[labels, decisions]
    se = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(float(costs.mean()), se, n, seed)
