"""The certified product path against the kernel it replaces on Gaussian mixtures.

Bayes, randomized Bayes and nearest-mean rules decide a Gaussian mixture with
one lambda from one matrix product and fall back to the log-domain kernel
(``mixtures._weighted_densities``, ``decisions._nearest_mean_kernel``) on every
row the rounding bound cannot certify (``decisions._product`` derives it). The
likelihood-ratio rule, mixtures whose lambdas differ, lambdas outside
[2**-200, 2**200] and, for the Bayes rules, costs outside [2**-300, 2**900]
take the kernel alone. These tests force rows onto and next to decision
boundaries and check that every decision is the kernel's, and count the rows
that fall back.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from randrule import (
    ClassComponent,
    CostMatrix,
    IsotropicGaussian,
    Mixture,
    UnsupportedEvidenceError,
    bayes_classifier,
    gaussian_mixture,
    monte_carlo_cost,
    nearest_mean_classifier,
    randomized_bayes_classifier,
    two_class_likelihood_rule,
)
from randrule import decisions, mixtures
from randrule.decisions import TIE_RTOL

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def boundary_rows(means, lams, priors, rng):
    """Rows on and next to the boundaries between every pair of means, at the means, near them and far out."""
    k, d = means.shape
    rows = [means]
    for i in range(k):
        for j in range(i + 1, k):
            delta = means[i] - means[j]
            mid = (means[i] + means[j]) / 2.0
            rows.append(mid[None, :])
            if d >= 2 and delta.any():
                # along the bisector: a direction orthogonal to delta
                a = int(np.argmax(np.abs(delta)))
                b = (a + 1) % d
                v = np.zeros(d)
                v[a], v[b] = -delta[b], delta[a]
                rows.append(mid + np.outer([0.25, 1.0, -3.0], v))
            sq = float(delta @ delta)
            if sq > 0.0 and lams[i] == lams[j] and priors[i] > 0 and priors[j] > 0:
                # log(pi_i f_i / pi_j f_j) = t |delta|^2 / lam + log(pi_i / pi_j) at mid + t delta:
                # put it at 0 and at and around the tie tolerance, on both sides
                shift = math.log(priors[i] / priors[j])
                targets = np.array([0.0, 1.0, 1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0]) * math.log1p(TIE_RTOL)
                # and within a few rounding errors of an exact tie
                targets = np.r_[targets, 1e-16, 4e-16, 2e-15]
                targets = np.r_[targets, -targets]
                t = (targets - shift) * lams[i] / sq
                rows.append(mid + np.outer(t, delta))
    scale = np.sqrt(lams)[:, None]
    rows.append(means + scale * rng.normal(size=(k, d)))
    # far tails: 40 standard deviations out, and far along a difference of means
    rows.append(means[:1] + 40.0 * scale[:1] * np.eye(d)[:1])
    rows.append(means[:1] - 40.0 * scale[:1] * np.ones((1, d)) / math.sqrt(d))
    rows.append(means[:1] + 30.0 * (means[:1] - means[-1:]))
    return np.concatenate(rows)


@st.composite
def near_tie_cases(draw):
    """(priors, means, lams, cost, X): Gaussian mixtures with rows forced onto near-ties.

    Means sit on a quarter grid, so midpoints are exact, or anywhere, so that
    midpoints are within rounding of a tie; duplicate means, a zero prior,
    unequal lambdas, 800-D components and costs with equal columns (two
    decisions whose scores are always equal) all occur. Equal priors and
    lambdas may be jittered within 1e-12 after the rows are placed, which
    nearest-mean still accepts as equal.
    """
    k = draw(st.integers(2, 4))
    d = draw(st.sampled_from([1, 2, 3, 8, 800]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.integers(-8, 9, size=(k, d)) / 4.0 if draw(st.booleans()) else rng.normal(0.0, 1.5, size=(k, d))
    if d == 800:
        means /= 8.0  # keep the classes close in 800-D, or every row is far from a boundary
    if draw(st.booleans()):
        means[-1] = means[0]
    priors = draw(st.sampled_from(["equal", "random", "zero"]))
    if priors == "equal":
        p = np.full(k, 1.0 / k)
    else:
        p = rng.integers(1, 5, size=k).astype(float)
        if priors == "zero":
            p[draw(st.integers(0, k - 1))] = 0.0
        p /= p.sum()
    lam = draw(st.sampled_from([0.25, 0.8, 1.0, 2.0]))
    lams = np.full(k, lam) if draw(st.booleans()) else lam * rng.choice([0.5, 1.0, 3.0], size=k)
    costs = draw(st.sampled_from(["zero-one", "integers", "equal-columns"]))
    cost = 1.0 - np.eye(k) if costs == "zero-one" else rng.integers(0, 4, size=(k, k)).astype(float)
    if costs == "equal-columns":
        cost[:, 1] = cost[:, 0]
    X = boundary_rows(means, lams, p, rng)
    # the rows sit on the unjittered ties, so the jitter alone decides them
    jitter = draw(st.sampled_from(["none", "priors", "lambdas", "both"]))
    if jitter in ("priors", "both") and priors == "equal":
        shift = rng.choice([-4e-13, 4e-13], size=k)
        p = p + shift - shift.mean()
    if jitter in ("lambdas", "both") and np.all(lams == lams[0]):
        lams = lams * (1.0 + rng.uniform(-4e-13, 4e-13, size=k))
    return p, means, lams, cost, X


def build(p, means, lams):
    return Mixture([ClassComponent(float(pj), IsotropicGaussian(mu, float(lj))) for pj, mu, lj in zip(p, means, lams)])


def assert_decisions_match_the_kernel(case):
    p, means, lams, cost_values, X = case
    mixture, cost = build(p, means, lams), CostMatrix(cost_values)
    ties = decisions._bayes_ties(mixture, cost, X)
    assert np.array_equal(bayes_classifier(mixture, cost).decide_batch(X), np.argmax(ties, axis=0))
    assert np.array_equal(randomized_bayes_classifier(mixture, cost).distributions(X), (ties / ties.sum(axis=0)).T)
    if len(p) == 2 and p[0] * cost_values[0, 1] > 0:
        w = mixtures._weighted_densities(mixture, X)
        expected = np.where(cost_values[0, 1] * w[0] > cost_values[1, 0] * w[1], 0, 1)
        assert np.array_equal(two_class_likelihood_rule(mixture, cost).decide_batch(X), expected)
    k = len(p)
    if np.all(np.abs(p - 1.0 / k) <= 1e-12) and all(math.isclose(lj, lams[0], rel_tol=1e-12) for lj in lams):
        nearest = nearest_mean_classifier(mixture).decide_batch(X)
        assert np.array_equal(nearest, decisions._nearest_mean_kernel(means, X))


@PROPERTY
@given(near_tie_cases())
def test_certified_decisions_are_the_kernels_on_forced_near_ties(case):
    assert_decisions_match_the_kernel(case)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(near_tie_cases())
def test_an_infinite_bound_sends_every_row_to_the_kernel(case):
    # an infinite unit roundoff makes every bound that decisions._product builds infinite
    # (or nan): no row is certain; every rule builds its product inside the patch
    with mock.patch.object(decisions, "_U", math.inf):
        assert_decisions_match_the_kernel(case)


def test_nearest_mean_decides_by_distance_when_priors_are_nearly_equal():
    # priors within 1e-12 of equal tilt the density kernel toward class 0 just past the midpoint;
    # nearest-mean accepts them as equal and must still follow the distances
    mixture = build([0.5 + 5e-13, 0.5 - 5e-13], np.array([[0.0], [2.0]]), [1.0, 1.0])
    X = 1.0 + np.array([[5e-13], [2e-13], [-5e-13], [1e-12], [0.0]])
    nearest = nearest_mean_classifier(mixture).decide_batch(X)
    assert np.array_equal(nearest, decisions._nearest_mean_kernel(mixture._labels.means, X))
    assert nearest.tolist() == [1, 1, 0, 1, 0]


class KernelRows:
    """Counts the rows each kernel fallback decides."""

    def __init__(self, monkeypatch):
        self.bayes = self.nearest = self.weighted = 0
        bayes, nearest, weighted = decisions._bayes_ties, decisions._nearest_mean_kernel, decisions._weighted_densities

        def count_bayes(mixture, cost, X):
            self.bayes += len(X)
            return bayes(mixture, cost, X)

        def count_nearest(means, X):
            self.nearest += len(X)
            return nearest(means, X)

        def count_weighted(mixture, X):
            self.weighted += len(X)
            return weighted(mixture, X)

        monkeypatch.setattr(decisions, "_bayes_ties", count_bayes)
        monkeypatch.setattr(decisions, "_nearest_mean_kernel", count_nearest)
        monkeypatch.setattr(decisions, "_weighted_densities", count_weighted)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_almost_no_benchmark_case_falls_back(monkeypatch, seed):
    # the mc-gauss benchmark's mixture: 10 unit Gaussians in 8-D, means drawn with spread 1.5
    means = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2]))).normal(0.0, 1.5, size=(10, 8))
    mixture, cost = gaussian_mixture(means, 1.0), CostMatrix.zero_one(10)
    rows = KernelRows(monkeypatch)
    n = 200_000
    bayes = monte_carlo_cost(mixture, cost, bayes_classifier(mixture, cost), n, seed)
    nearest = monte_carlo_cost(mixture, cost, nearest_mean_classifier(mixture), n, seed)
    assert rows.bayes <= n // 1000 and rows.nearest <= n // 1000
    # the Bayes rule under 0-1 cost is nearest-mean here, up to rows tied within TIE_RTOL
    assert abs(bayes.mean_cost - nearest.mean_cost) <= 1.0 / n


BISECTED = gaussian_mixture([[0.0, 0.0], [2.0, 1.0]], 0.8)
ZERO_ONE = CostMatrix.zero_one(2)


def test_every_row_on_an_exact_bisector_falls_back_where_the_comparison_is_strict(monkeypatch):
    # the perpendicular bisector of the two means: (1, 0.5) + t (-1, 2)
    t = np.linspace(-3.0, 3.0, 25)
    X = np.c_[1.0 - t, 0.5 + 2.0 * t]
    rows = KernelRows(monkeypatch)
    nearest = nearest_mean_classifier(BISECTED).decide_batch(X)
    ratio = two_class_likelihood_rule(BISECTED, ZERO_ONE).decide_batch(X)
    assert (rows.nearest, rows.weighted) == (len(X), len(X))
    # an exact tie is well inside TIE_RTOL: both paths tie both decisions, so Bayes needs no fallback
    bayes = bayes_classifier(BISECTED, ZERO_ONE).decide_batch(X)
    mr = randomized_bayes_classifier(BISECTED, ZERO_ONE).distributions(X)
    assert rows.bayes == 0
    assert not nearest.any() and ratio.all() and not bayes.any()
    assert np.array_equal(mr, np.full((len(X), 2), 0.5))


def test_every_row_at_the_tie_tolerance_falls_back_for_bayes(monkeypatch):
    # f_0 / f_1 = 1 + TIE_RTOL at (1, 0.5) + t (-2, -1) + s (-1, 2), within rounding of x
    t = math.log1p(TIE_RTOL) * 0.8 / 5.0
    s = np.linspace(-3.0, 3.0, 25)
    X = np.c_[1.0 - 2.0 * t - s, 0.5 - t + 2.0 * s]
    rows = KernelRows(monkeypatch)
    bayes_classifier(BISECTED, ZERO_ONE).decide_batch(X)
    randomized_bayes_classifier(BISECTED, ZERO_ONE).distributions(X)
    assert rows.bayes == 2 * len(X)


def test_rows_off_the_bisector_take_the_product(monkeypatch):
    X = np.random.default_rng(5).normal(size=(1000, 2))
    X = X[np.abs((X - [1.0, 0.5]) @ [2.0, 1.0]) > 1e-6]
    rows = KernelRows(monkeypatch)
    for rule in (bayes_classifier(BISECTED, ZERO_ONE), nearest_mean_classifier(BISECTED)):
        rule.decide_batch(X)
    randomized_bayes_classifier(BISECTED, ZERO_ONE).distributions(X)
    assert (rows.bayes, rows.nearest, rows.weighted) == (0, 0, 0)


@pytest.mark.parametrize("scale, kernel_rows", [(2.0**-301, 1000), (2.0**-300, 0), (2.0**900, 0), (2.0**901, 1000)])
def test_costs_outside_their_range_take_the_kernel(monkeypatch, scale, kernel_rows):
    # positive costs in [2**-300, 2**900] keep every cost times a certain row's weights a normal double
    X = np.random.default_rng(5).normal(size=(1000, 2))
    X = X[np.abs((X - [1.0, 0.5]) @ [2.0, 1.0]) > 1e-6]
    cost = CostMatrix(scale * ZERO_ONE.values)
    ties = decisions._bayes_ties(BISECTED, cost, X)
    rows = KernelRows(monkeypatch)
    assert np.array_equal(bayes_classifier(BISECTED, cost).decide_batch(X), np.argmax(ties, axis=0))
    assert np.array_equal(randomized_bayes_classifier(BISECTED, cost).distributions(X), (ties / ties.sum(axis=0)).T)
    assert len(X) == 1000 and rows.bayes == 2 * kernel_rows


def test_nearest_mean_stays_certain_on_classes_far_apart(monkeypatch):
    # at either mean the other class's log-weight is 1800 below: far past the weights' e**-400 floor
    mixture = gaussian_mixture([[0.0], [60.0]], 1.0)
    X = np.random.default_rng(9).normal(size=(400, 1)) + np.repeat([[0.0], [60.0]], 200, axis=0)
    rows = KernelRows(monkeypatch)
    nearest = nearest_mean_classifier(mixture).decide_batch(X)
    assert rows.nearest == 0
    assert np.array_equal(nearest, decisions._nearest_mean_kernel(mixture._labels.means, X))


@pytest.mark.parametrize("lam", [2.0**-210, 2.0**210])
def test_nearest_mean_outside_the_lambda_range_takes_the_kernel(monkeypatch, lam):
    means = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]]) * math.sqrt(lam)
    mixture = gaussian_mixture(means, lam)
    X = np.random.default_rng(7).normal(size=(200, 2)) * math.sqrt(lam)
    X = np.r_[X, (means[:1] + means[1:2]) / 2.0]
    cost = CostMatrix.zero_one(3)
    ties = decisions._bayes_ties(mixture, cost, X)
    rows = KernelRows(monkeypatch)
    nearest = nearest_mean_classifier(mixture).decide_batch(X)
    assert rows.nearest == len(X)
    assert np.array_equal(nearest, decisions._nearest_mean_kernel(means, X))
    # the Bayes rules take the kernel there too
    assert np.array_equal(bayes_classifier(mixture, cost).decide_batch(X), np.argmax(ties, axis=0))
    assert np.array_equal(randomized_bayes_classifier(mixture, cost).distributions(X), (ties / ties.sum(axis=0)).T)
    assert rows.bayes == 2 * len(X)


def test_unequal_lambdas_and_the_likelihood_ratio_rule_take_the_kernel(monkeypatch):
    X = np.random.default_rng(8).normal(size=(300, 2))
    mixture = build([0.5, 0.5], np.array([[0.0, 0.0], [2.0, 1.0]]), [0.8, 1.6])
    rows = KernelRows(monkeypatch)
    bayes_classifier(mixture, ZERO_ONE).decide_batch(X)
    randomized_bayes_classifier(mixture, ZERO_ONE).distributions(X)
    assert (rows.bayes, rows.weighted) == (2 * len(X), 2 * len(X))  # the Bayes kernel reads the weights
    two_class_likelihood_rule(BISECTED, ZERO_ONE).decide_batch(X)
    assert (rows.bayes, rows.weighted) == (2 * len(X), 3 * len(X))


def test_infinite_evidence_is_refused_by_its_row_in_the_batch():
    X = np.random.default_rng(6).normal(size=(40, 2))
    X[29, 1] = np.inf
    for rule in (bayes_classifier(BISECTED, ZERO_ONE), two_class_likelihood_rule(BISECTED, ZERO_ONE)):
        with pytest.raises(UnsupportedEvidenceError, match="evidence row 29 has zero density under every class"):
            rule.decide_batch(X)
    X[[3, 17]] = np.nan  # an earlier nan row is refused first
    for rule in (bayes_classifier(BISECTED, ZERO_ONE), two_class_likelihood_rule(BISECTED, ZERO_ONE)):
        with pytest.raises(UnsupportedEvidenceError, match="evidence row 3 is not a number"):
            rule.decide_batch(X)
