import math
import tracemalloc

import numpy as np
import pytest

from randrule import (
    ClassComponent,
    CostMatrix,
    DeterministicClassifier,
    InputError,
    Mixture,
    RandomizedClassifier,
    UniformInterval,
    UnsupportedEvidenceError,
    bayes_classifier,
    bayes_decide,
    bayes_risk,
    constant_classifier,
    expected_cost_of_classifier,
    expected_cost_of_decision,
    gaussian_mixture,
    mixture_from_dict,
    monte_carlo_cost,
    nearest_mean_classifier,
    overlap_deterministic,
    randomized_bayes_classifier,
    sample_case_arrays,
    two_class_likelihood_rule,
    uniform_overlap_mixture,
)
from randrule import mixtures

ZERO_ONE = CostMatrix.zero_one(2)


def overlap(a=0.5, b=1.0):
    return uniform_overlap_mixture(a, b)


class TestCostMatrix:
    def test_zero_one_shape(self):
        assert np.array_equal(ZERO_ONE.values, [[0, 1], [1, 0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            CostMatrix([[0, -1], [1, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            CostMatrix([[0, 1, 2], [1, 0, 2]])


class TestExpectedCost:
    def test_overlap_point_costs_half_either_way(self):
        m = overlap()
        assert expected_cost_of_decision(m, ZERO_ONE, 0.75, 0) == pytest.approx(0.5, abs=1e-12)
        assert expected_cost_of_decision(m, ZERO_ONE, 0.75, 1) == pytest.approx(0.5, abs=1e-12)

    def test_certain_class_costs_nothing(self):
        assert expected_cost_of_decision(overlap(), ZERO_ONE, 0.25, 0) == 0.0

    def test_asymmetric_costs_weight_the_posterior(self):
        # posterior (1/2, 1/2); deciding class d costs the other class's entry
        cost = CostMatrix([[0.0, 2.0], [1.0, 0.0]])
        m = overlap()
        assert expected_cost_of_decision(m, cost, 0.75, 1) == pytest.approx(1.0, abs=1e-12)
        assert expected_cost_of_decision(m, cost, 0.75, 0) == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_evidence_propagates(self):
        with pytest.raises(UnsupportedEvidenceError):
            expected_cost_of_decision(overlap(), ZERO_ONE, 9.0, 0)


class TestBayesDecide:
    def test_only_supported_class_wins(self):
        assert bayes_decide(overlap(), ZERO_ONE, 0.25) == 0

    def test_nearest_mean_threshold_for_equal_gaussians(self):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        assert bayes_decide(m, ZERO_ONE, 0.4) == 0
        assert bayes_decide(m, ZERO_ONE, 0.6) == 1

    def test_exact_tie_goes_to_lowest_label(self):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        assert bayes_decide(m, ZERO_ONE, 0.5) == 0
        # the second density is 1/((a+b)-a) = 1/0.9999999999999999: a tie only up to rounding
        assert bayes_decide(overlap(0.9, 1.0), ZERO_ONE, 0.95) == 0

    def test_asymmetric_cost_shifts_the_boundary(self):
        # kappa[1,0] = 2 (deciding 0 on a true 1 is the expensive mistake):
        # declare 0 iff f0/f1 > 2, i.e. x < (1 - 2 ln 2)/2 ~ -0.1931
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        cost = CostMatrix([[0.0, 1.0], [2.0, 0.0]])
        boundary = (1.0 - 2.0 * math.log(2.0)) / 2.0
        assert boundary == pytest.approx(-0.1931, abs=5e-5)
        assert bayes_decide(m, cost, -0.20) == 0
        assert bayes_decide(m, cost, -0.19) == 1

    def test_mirrored_cost_shifts_the_boundary_the_other_way(self):
        # kappa[0,1] = 2: declare 0 iff f0/f1 > 1/2, i.e. x < (1 + 2 ln 2)/2
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        cost = CostMatrix([[0.0, 2.0], [1.0, 0.0]])
        boundary = (1.0 + 2.0 * math.log(2.0)) / 2.0
        assert bayes_decide(m, cost, boundary - 0.01) == 0
        assert bayes_decide(m, cost, boundary + 0.01) == 1

    def test_argmin_invariant_under_cost_scaling(self):
        m = gaussian_mixture([0.0, 1.5], lam=0.8)
        cost = CostMatrix([[0.0, 3.0], [1.0, 0.0]])
        scaled = CostMatrix(cost.values * 7.5)
        for x in np.linspace(-2, 3, 101):
            assert bayes_decide(m, cost, x) == bayes_decide(m, scaled, x)


class TestLikelihoodRule:
    def test_equal_priors_symmetric_cost_is_the_higher_density_rule(self):
        m = overlap()
        rule = two_class_likelihood_rule(m, ZERO_ONE)
        assert rule.decide(0.25) == 0
        assert rule.decide(1.25) == 1
        # threshold 1 and equal densities: strict comparison falls to class 1
        assert rule.decide(0.75) == 1

    def test_prior_ratio_threshold(self):
        # priors (3/4, 1/4) with 0-1 cost give threshold 1/3: for unit
        # gaussians the flip sits at x = (1 + 2 ln 3)/2
        from randrule import ClassComponent, IsotropicGaussian, Mixture

        m = Mixture(
            [
                ClassComponent(0.75, IsotropicGaussian([0.0], 1.0)),
                ClassComponent(0.25, IsotropicGaussian([1.0], 1.0)),
            ]
        )
        rule = two_class_likelihood_rule(m, ZERO_ONE)
        flip = (1.0 + 2.0 * math.log(3.0)) / 2.0
        assert rule.decide(flip - 0.01) == 0
        assert rule.decide(flip + 0.01) == 1

    def test_agrees_with_bayes_on_a_grid(self):
        # the overlap is one big exact-tie region where the strict ">" and
        # the argmin tie-break legitimately differ; compare off the tie set
        m = overlap(0.3, 1.1)
        rule = two_class_likelihood_rule(m, ZERO_ONE)
        bayes = bayes_classifier(m, ZERO_ONE)
        X = np.linspace(0.0, 1.4, 10_000).reshape(-1, 1)
        ties = (X[:, 0] >= 0.3) & (X[:, 0] <= 1.1)
        assert np.array_equal(rule.decide_batch(X)[~ties], bayes.decide_batch(X)[~ties])

    def test_agrees_with_bayes_everywhere_without_ties(self):
        from randrule import ClassComponent, IsotropicGaussian, Mixture

        m = Mixture(
            [
                ClassComponent(0.6, IsotropicGaussian([0.0], 0.9)),
                ClassComponent(0.4, IsotropicGaussian([1.3], 0.9)),
            ]
        )
        cost = CostMatrix([[0.0, 1.4], [0.7, 0.0]])
        rule = two_class_likelihood_rule(m, cost)
        bayes = bayes_classifier(m, cost)
        X = np.linspace(-3.0, 4.0, 10_000).reshape(-1, 1)
        assert np.array_equal(rule.decide_batch(X), bayes.decide_batch(X))

    def test_agrees_with_bayes_on_random_gaussian_mixtures(self):
        from randrule import ClassComponent, IsotropicGaussian, Mixture

        rng = np.random.Generator(np.random.PCG64(55))
        X = np.linspace(-8.0, 9.0, 2_000).reshape(-1, 1)
        for _ in range(50):
            pi0 = float(rng.uniform(0.1, 0.9))
            m = Mixture(
                [
                    ClassComponent(pi0, IsotropicGaussian([rng.uniform(-2, 2)], rng.uniform(0.3, 3))),
                    ClassComponent(1.0 - pi0, IsotropicGaussian([rng.uniform(-2, 2)], rng.uniform(0.3, 3))),
                ]
            )
            cost = CostMatrix([[0.0, rng.uniform(0.1, 3)], [rng.uniform(0.1, 3), 0.0]])
            rule = two_class_likelihood_rule(m, cost)
            bayes = bayes_classifier(m, cost)
            assert np.array_equal(rule.decide_batch(X), bayes.decide_batch(X))

    def test_agrees_with_nearest_mean_in_800_dimensions(self):
        # these cases' densities lie below the smallest double
        m = gaussian_mixture(np.stack([np.zeros(800), np.full(800, 0.1)]), lam=1.0)
        X, _ = sample_case_arrays(m, 1_000, seed=5)
        decisions = two_class_likelihood_rule(m, ZERO_ONE).decide_batch(X)
        assert np.array_equal(decisions, nearest_mean_classifier(m).decide_batch(X))
        assert 0 < decisions.sum() < 1_000

    def test_needs_two_classes(self):
        m = gaussian_mixture([0.0, 1.0, 2.0], lam=1.0)
        with pytest.raises(InputError):
            two_class_likelihood_rule(m, CostMatrix.zero_one(3))

    def test_zero_threshold_denominator_rejected(self):
        m = overlap()
        with pytest.raises(InputError):
            two_class_likelihood_rule(m, CostMatrix([[0.0, 0.0], [1.0, 0.0]]))


class TestNearestMean:
    def test_picks_the_closer_mean(self):
        m = gaussian_mixture([[0.0, 0.0], [2.0, 0.0]], lam=1.0)
        rule = nearest_mean_classifier(m)
        assert rule.decide([0.5, 0.0]) == 0

    def test_equidistant_goes_to_lowest_index(self):
        m = gaussian_mixture([[0.0, 0.0], [2.0, 0.0]], lam=1.0)
        rule = nearest_mean_classifier(m)
        assert rule.decide([1.0, 0.0]) == 0

    def test_matches_bayes_off_tie_boundaries(self):
        m = gaussian_mixture([[0.0, 0.0], [2.0, 0.5], [1.0, 2.0]], lam=0.6)
        rule = nearest_mean_classifier(m)
        bayes = bayes_classifier(m, CostMatrix.zero_one(3))
        g = np.linspace(-1.0, 3.0, 100)
        X = np.array([[x, y] for x in g for y in g])
        means = np.array([[0.0, 0.0], [2.0, 0.5], [1.0, 2.0]])
        d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        d2.sort(axis=1)
        off_ties = d2[:, 1] - d2[:, 0] > 1e-9
        assert np.array_equal(rule.decide_batch(X)[off_ties], bayes.decide_batch(X)[off_ties])

    def test_preconditions(self):
        from randrule import ClassComponent, IsotropicGaussian, Mixture

        with pytest.raises(InputError):
            nearest_mean_classifier(overlap())
        unequal_lam = Mixture(
            [
                ClassComponent(0.5, IsotropicGaussian([0.0], 1.0)),
                ClassComponent(0.5, IsotropicGaussian([1.0], 2.0)),
            ]
        )
        with pytest.raises(InputError):
            nearest_mean_classifier(unequal_lam)
        unequal_priors = Mixture(
            [
                ClassComponent(0.7, IsotropicGaussian([0.0], 1.0)),
                ClassComponent(0.3, IsotropicGaussian([1.0], 1.0)),
            ]
        )
        with pytest.raises(InputError):
            nearest_mean_classifier(unequal_priors)


class TestOverlapRules:
    def test_midpoint_rule_branches(self):
        md = overlap_deterministic(0.5, 1.0)
        assert md.decide(0.75) == 1  # boundary belongs to the right branch
        assert md.decide(0.2) == 0
        assert md.decide(1.4) == 1

    def test_coin_flip_rule_distributions(self):
        mr = randomized_bayes_classifier(overlap(), ZERO_ONE)
        assert np.array_equal(mr.distribution(0.75), [0.5, 0.5])
        assert np.array_equal(mr.distribution(0.1), [1.0, 0.0])
        assert np.array_equal(mr.distribution(1.2), [0.0, 1.0])

    def test_disjoint_supports_make_the_coin_branch_vacuous(self):
        # a > b: no point of either support is a tie, so the rule is
        # deterministic and coincides with the midpoint rule on the supports;
        # the gap b < x < a has no density, as for the Bayes rule
        mr = randomized_bayes_classifier(overlap(2.0, 1.0), ZERO_ONE)
        md = overlap_deterministic(2.0, 1.0)
        for x in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0):
            dist = mr.distribution(x)
            assert dist[md.decide(x)] == 1.0
        with pytest.raises(UnsupportedEvidenceError):
            mr.distribution(1.5)

    def test_repeated_decide_with_same_seed_is_identical(self):
        mr = randomized_bayes_classifier(overlap(), ZERO_ONE)
        picks = [mr.decide(0.75, seed=123) for _ in range(5)]
        assert len(set(picks)) == 1

    def test_distribution_is_valid_everywhere(self):
        # everywhere the evidence has density; outside both supports it raises
        mr = randomized_bayes_classifier(overlap(0.4, 1.3), ZERO_ONE)
        X = np.linspace(0.0, 1.7, 301).reshape(-1, 1)
        dist = mr.distributions(X)
        assert np.all(dist >= 0.0)
        assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-12)
        for x in (-0.5, 2.5):
            with pytest.raises(UnsupportedEvidenceError):
                mr.distribution(x)


def coin_flip_rule(a, b):
    """The three-branch overlap rule the randomized Bayes rule replaced, kept as the oracle.

    First matching branch wins: class 1 where b < x, class 0 where x < a,
    else a fair coin.
    """

    def rule(X):
        x = X[:, 0]
        p1 = np.where(b < x, 1.0, np.where(x < a, 0.0, 0.5))
        return np.stack([1.0 - p1, p1], axis=1)

    return RandomizedClassifier(2, rule, name="coin-flip")


class TestRandomizedBayes:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("b", [1.0, 1.3])
    @pytest.mark.parametrize("seed", [5, 42])
    def test_reproduces_the_coin_flip_rule_bit_for_bit(self, a, b, seed):
        m = overlap(a, b)
        got = monte_carlo_cost(m, ZERO_ONE, randomized_bayes_classifier(m, ZERO_ONE), 10**5, seed)
        want = monte_carlo_cost(m, ZERO_ONE, coin_flip_rule(a, b), 10**5, seed)
        assert (got.mean_cost.hex(), got.standard_error.hex()) == (want.mean_cost.hex(), want.standard_error.hex())

    def test_equals_bayes_where_the_minimum_is_unique(self):
        m = gaussian_mixture([[0.0, 0.0], [2.0, 0.5], [1.0, 2.0]], lam=0.6, priors=[0.2, 0.3, 0.5])
        cost = CostMatrix([[0.0, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        X, _ = sample_case_arrays(m, 5_000, 8)
        dist = randomized_bayes_classifier(m, cost).distributions(X)
        assert np.array_equal(dist, bayes_classifier(m, cost).distributions(X))

    def test_spreads_evenly_over_a_three_way_tie(self):
        m = gaussian_mixture([0.0, 0.0, 5.0], lam=1.0)
        mr = randomized_bayes_classifier(m, CostMatrix.zero_one(3))
        assert np.array_equal(mr.distribution(0.0), [0.5, 0.5, 0.0])
        cost = CostMatrix(np.ones((3, 3)))  # every decision costs the same
        assert np.array_equal(randomized_bayes_classifier(m, cost).distribution(0.0), [1 / 3, 1 / 3, 1 / 3])

    def test_follows_the_cost_matrix(self):
        # posterior (1/2, 1/2) on the overlap; deciding 1 costs 2, so 0 is the only minimum
        cost = CostMatrix([[0.0, 2.0], [1.0, 0.0]])
        assert np.array_equal(randomized_bayes_classifier(overlap(), cost).distribution(0.75), [1.0, 0.0])

    def test_cost_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            randomized_bayes_classifier(overlap(), CostMatrix.zero_one(3))


class TestAnalyticOverlapCost:
    """The exact 0-1 cost of the overlap rules is the Bayes risk of the overlap mixture."""

    def test_reference_values(self):
        assert bayes_risk(overlap(0.5, 1.0), ZERO_ONE) == 0.25
        assert bayes_risk(overlap(0.0, 1.0), ZERO_ONE) == 0.5  # identical supports
        assert bayes_risk(overlap(2.0, 1.0), ZERO_ONE) == 0.0  # separable
        assert bayes_risk(overlap(1.0, 1.0), ZERO_ONE) == 0.0  # touching: zero-measure overlap

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.8, 1.3])
    def test_against_quadrature_oracle(self, a):
        # integrate the pointwise error mass of the midpoint rule directly
        b = 1.0
        md = overlap_deterministic(a, b)
        grid = np.linspace(0.0, a + b, 400_001)
        centers = (grid[:-1] + grid[1:]) / 2.0
        width = grid[1] - grid[0]
        f0 = ((centers >= 0.0) & (centers <= b)) / b
        f1 = ((centers >= a) & (centers <= a + b)) / b
        decisions = md.decide_batch(centers.reshape(-1, 1))
        err = 0.5 * np.where(decisions == 0, f1, f0)
        assert float((err * width).sum()) == pytest.approx(bayes_risk(overlap(a, b), ZERO_ONE), abs=2e-5)

    def test_matches_the_closed_form_on_a_sweep(self):
        for b in (0.3, 1.0, 2.0):
            for i in range(250):
                a = i / 100
                closed = (b - a) / (2.0 * b) if a < b else 0.0
                assert abs(bayes_risk(overlap(a, b), ZERO_ONE) - closed) <= 2e-16, (a, b)


class TestBayesRisk:
    def test_three_class_mixture_under_a_general_cost(self):
        priors_and_supports = [(0.2, 0.0, 2.0), (0.5, 1.0, 3.0), (0.3, 0.5, 1.5)]
        mixture = mixture_from_dict(
            {"components": [{"prior": p, "density": {"kind": "uniform", "lo": lo, "hi": hi}}
                            for p, lo, hi in priors_and_supports]}
        )
        # the cells [0,.5] [.5,1] [1,1.5] [1.5,2] [2,3] decide 0, 0, 2, 1, 1 at least scores
        # 0, .3, .65, .1, 0; times the cell widths that is 0 + .15 + .325 + .05 + 0
        assert bayes_risk(mixture, CostMatrix([[0, 1, 4], [2, 0, 1], [1, 3, 0]])) == 0.525

    def test_gaussian_components_are_refused(self):
        with pytest.raises(InputError, match="interval components"):
            bayes_risk(gaussian_mixture([0.0, 1.0], 1.0), ZERO_ONE)

    def test_cost_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            bayes_risk(overlap(), CostMatrix.zero_one(3))


class TestMonteCarlo:
    def test_bit_identical_for_fixed_seed(self):
        m = overlap()
        mr = randomized_bayes_classifier(m, ZERO_ONE)
        one = monte_carlo_cost(m, ZERO_ONE, mr, 10_000, seed=3)
        two = monte_carlo_cost(m, ZERO_ONE, mr, 10_000, seed=3)
        assert one == two
        assert one.n == 10_000 and one.seed == 3

    # 2**511 * 2**511 * 2 = 2**1023: the smallest bound on the squared deviations that is refused
    @pytest.mark.parametrize("top, n", [(1e308, 10), (1e160, 10), (1e308, 10**5), (2.0**511, 2)])
    def test_costs_whose_sums_could_overflow_are_refused(self, top, n):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        cost = CostMatrix([[0.0, top], [top, 0.0]])
        with pytest.raises(InputError) as info:
            monte_carlo_cost(m, cost, randomized_bayes_classifier(m, cost), n, seed=5)
        assert f"cost magnitude {top:g} over n={n} cases could overflow" in str(info.value)

    @pytest.mark.parametrize("top, n", [(1e150, 10**5), (2.0**511, 1)])
    def test_large_costs_below_the_bound_keep_a_finite_estimate(self, top, n):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        cost = CostMatrix([[0.0, top], [top, 0.0]])
        est = monte_carlo_cost(m, cost, randomized_bayes_classifier(m, cost), n, seed=5)
        assert math.isfinite(est.mean_cost) and math.isfinite(est.standard_error)
        assert 0.0 <= est.mean_cost <= top

    def test_midpoint_rule_matches_analytic_cost(self):
        m = overlap()
        est = monte_carlo_cost(m, ZERO_ONE, overlap_deterministic(0.5, 1.0), 10**5, seed=17)
        assert abs(est.mean_cost - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 10**5)

    def test_constant_classifier_errs_half_the_time(self):
        m = overlap()
        est = monte_carlo_cost(m, ZERO_ONE, constant_classifier(0, 2), 10**5, seed=29)
        assert abs(est.mean_cost - 0.5) <= 3.0 * math.sqrt(0.25 / 10**5)

    def test_bayes_rule_is_no_worse_than_the_alternatives(self):
        m = overlap(0.4, 1.0)
        bayes = bayes_classifier(m, ZERO_ONE)
        base = monte_carlo_cost(m, ZERO_ONE, bayes, 10**5, seed=31)
        flipped = overlap_deterministic(0.4, 1.0)
        anti = constant_classifier(1, 2)
        rules = [
            constant_classifier(0, 2),
            anti,
            flipped,
            randomized_bayes_classifier(m, ZERO_ONE),
            two_class_likelihood_rule(m, ZERO_ONE),
        ]
        for rule in rules:
            other = monte_carlo_cost(m, ZERO_ONE, rule, 10**5, seed=31)
            slack = 3.0 * math.hypot(base.standard_error, other.standard_error)
            assert base.mean_cost <= other.mean_cost + slack

    def test_gaussian_bayes_beats_a_biased_rule(self):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        bayes = bayes_classifier(m, ZERO_ONE)
        crooked = constant_classifier(0, 2)
        b = monte_carlo_cost(m, ZERO_ONE, bayes, 10**5, seed=37)
        c = monte_carlo_cost(m, ZERO_ONE, crooked, 10**5, seed=37)
        assert b.mean_cost < c.mean_cost

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            monte_carlo_cost(overlap(), ZERO_ONE, constant_classifier(0, 3), 100, seed=1)

    def test_cost_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            monte_carlo_cost(overlap(), CostMatrix.zero_one(3), constant_classifier(0, 2), 100, seed=1)


COST_3 = CostMatrix([[0.0, 1.0, 4.0], [2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])
INTERVALS_3 = Mixture(
    [
        ClassComponent(0.2, UniformInterval(0.0, 2.0)),
        ClassComponent(0.5, UniformInterval(1.0, 3.0)),
        ClassComponent(0.3, UniformInterval(0.5, 1.5)),
    ]
)
MEANS_3 = [[0.0, 0.0], [1.5, 0.5], [-0.5, 1.2]]
WEIGHTED_3 = gaussian_mixture(MEANS_3, 0.8, priors=[0.5, 0.3, 0.2])
EVEN_3 = gaussian_mixture(MEANS_3, 0.8)
# (mixture, cost, classifier) of every rule kind Monte Carlo runs
MC_CASES = {
    "md": (overlap(), ZERO_ONE, overlap_deterministic(0.5, 1.0)),
    "mr": (overlap(), ZERO_ONE, randomized_bayes_classifier(overlap(), ZERO_ONE)),
    "bayes": (WEIGHTED_3, COST_3, bayes_classifier(WEIGHTED_3, COST_3)),
    "nearest-mean": (EVEN_3, CostMatrix.zero_one(3), nearest_mean_classifier(EVEN_3)),
    "intervals-bayes": (INTERVALS_3, COST_3, bayes_classifier(INTERVALS_3, COST_3)),
    "intervals-mr": (INTERVALS_3, COST_3, randomized_bayes_classifier(INTERVALS_3, COST_3)),
}


class TestChunkedMonteCarlo:
    @pytest.mark.parametrize("name", sorted(MC_CASES))
    def test_estimate_does_not_depend_on_the_chunk_size(self, monkeypatch, name):
        mixture, cost, rule = MC_CASES[name]
        n = 1003
        seen = []

        def spy(method):
            def wrapper(self, X, *args):
                seen.append(len(X))
                return method(self, X, *args)

            return wrapper

        monkeypatch.setattr(DeterministicClassifier, "decide_batch", spy(DeterministicClassifier.decide_batch))
        monkeypatch.setattr(RandomizedClassifier, "realize_batch", spy(RandomizedClassifier.realize_batch))
        results = []
        for rows in (1, 7, n):
            monkeypatch.setattr(mixtures, "_CHUNK_ROWS", rows)
            seen.clear()
            est = monte_carlo_cost(mixture, cost, rule, n, seed=23)
            assert max(seen) <= rows and sum(seen) == n
            results.append((est.mean_cost.hex(), est.standard_error.hex(), est.confusion.tolist()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", sorted(MC_CASES))
    def test_confusion_counts_every_case_and_gives_the_mean(self, name):
        mixture, cost, rule = MC_CASES[name]
        n = 50_001
        est = monte_carlo_cost(mixture, cost, rule, n, seed=29)
        k = mixture.label_count
        assert est.confusion.shape == (k, k) and est.confusion.dtype == np.int64
        assert not est.confusion.flags.writeable
        assert est.confusion.sum() == n
        assert (est.confusion * cost.values).sum() / n == pytest.approx(est.mean_cost, rel=1e-12)

    def test_confusion_rows_are_labels_and_columns_are_decisions(self):
        est = monte_carlo_cost(INTERVALS_3, COST_3, constant_classifier(2, 3), 10_000, seed=31)
        assert est.confusion[:, :2].sum() == 0
        # the labels follow the priors 0.2, 0.5, 0.3
        assert np.allclose(est.confusion[:, 2] / 10_000, [0.2, 0.5, 0.3], atol=0.02)

    def test_estimates_compare_by_value(self):
        mixture, cost, rule = MC_CASES["mr"]
        one = monte_carlo_cost(mixture, cost, rule, 1000, seed=3)
        assert one == monte_carlo_cost(mixture, cost, rule, 1000, seed=3)
        assert one != monte_carlo_cost(mixture, cost, rule, 1000, seed=4)

    def test_a_label_outside_the_classes_is_refused(self):
        rule = DeterministicClassifier(2, lambda X: np.full(X.shape[0], 2), name="two")
        with pytest.raises(InputError, match="outside 0..1"):
            monte_carlo_cost(overlap(), ZERO_ONE, rule, 100, seed=1)

    @pytest.mark.parametrize("which", ["bayes", "nearest-mean"])
    def test_memory_stays_near_the_costs_vector(self, which):
        mixture = gaussian_mixture(np.random.default_rng(3).normal(size=(10, 8)), 0.8)
        cost = CostMatrix.zero_one(10)
        rule = bayes_classifier(mixture, cost) if which == "bayes" else nearest_mean_classifier(mixture)
        n = 200_000
        tracemalloc.start()
        try:
            monte_carlo_cost(mixture, cost, rule, n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the costs vector and the standard deviation's temporary, plus one chunk's work
        assert peak < 24 * n + 4 * 2**20


class TestExactClassifierCost:
    def test_randomized_rule_costs_half_on_the_overlap(self):
        m = overlap()
        mr = randomized_bayes_classifier(m, ZERO_ONE)
        assert expected_cost_of_classifier(m, ZERO_ONE, mr, 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_certain_region_costs_nothing(self):
        m = overlap()
        mr = randomized_bayes_classifier(m, ZERO_ONE)
        assert expected_cost_of_classifier(m, ZERO_ONE, mr, 0.2) == 0.0


GAUSS_2 = gaussian_mixture([[0.0], [1.0]], 1.0)
# the product path sends these rows to the kernel; 1e200 overflows every squared distance
NOT_A_NUMBER = "is not a number"
NO_DENSITY = "has zero density under every class"
NO_DISTANCE = "has a distance to a mean that is not finite"


class TestNonFiniteEvidence:
    """Each rule refuses nan evidence, and evidence too far to score, by its row and without a warning."""

    @staticmethod
    def refuse(decide, cases):
        # the bad row follows a good one, so the message names its place in the whole batch
        for x, why in cases:
            with pytest.raises(UnsupportedEvidenceError, match=f"^evidence row 1 {why}$"):
                decide(np.array([[0.3], [x]]))

    def test_bayes_decide(self):
        for x, why in ((np.nan, NOT_A_NUMBER), (np.inf, NO_DENSITY), (1e200, NO_DENSITY)):
            with pytest.raises(UnsupportedEvidenceError, match=f"^evidence row 0 {why}$"):
                bayes_decide(GAUSS_2, ZERO_ONE, [x])

    def test_bayes_classifier(self):
        rule = bayes_classifier(GAUSS_2, ZERO_ONE)
        self.refuse(rule.decide_batch, ((np.nan, NOT_A_NUMBER), (np.inf, NO_DENSITY), (1e200, NO_DENSITY)))

    def test_randomized_bayes_classifier(self):
        rule = randomized_bayes_classifier(GAUSS_2, ZERO_ONE)
        self.refuse(rule.distributions, ((np.nan, NOT_A_NUMBER), (-np.inf, NO_DENSITY), (1e200, NO_DENSITY)))

    def test_likelihood_rule(self):
        rule = two_class_likelihood_rule(GAUSS_2, ZERO_ONE)
        self.refuse(rule.decide_batch, ((np.nan, NOT_A_NUMBER), (np.inf, NO_DENSITY), (-1e200, NO_DENSITY)))

    def test_nearest_mean_classifier(self):
        rule = nearest_mean_classifier(GAUSS_2)
        self.refuse(rule.decide_batch, ((np.nan, NO_DISTANCE), (np.inf, NO_DISTANCE), (1e200, NO_DISTANCE)))

    def test_posterior(self):
        self.refuse(lambda X: mixtures.posterior_matrix(GAUSS_2, X), ((np.nan, NOT_A_NUMBER), (1e200, NO_DENSITY)))
        with pytest.raises(UnsupportedEvidenceError, match=f"^evidence row 0 {NOT_A_NUMBER}$"):
            mixtures.posterior(GAUSS_2, [np.nan])


class TestRuleOutputs:
    """A user rule's output is refused, naming the rule, when it is not a label or not a distribution."""

    def test_fractional_labels_are_refused_before_the_cast(self):
        rule = DeterministicClassifier(2, lambda X: np.full(len(X), 0.7), name="seven-tenths")
        with pytest.raises(InputError, match="classifier 'seven-tenths' returned labels of dtype float64, not integers"):
            monte_carlo_cost(overlap(), ZERO_ONE, rule, 1000, 1)
        # booleans are labels 0 and 1
        halves = DeterministicClassifier(2, lambda X: X[:, 0] >= 0.75)
        assert halves.decide_batch(np.array([[0.2], [0.9]])).tolist() == [0, 1]

    def test_nan_distributions_are_refused(self):
        rule = RandomizedClassifier(2, lambda X: np.full((len(X), 2), np.nan), name="nan")
        with pytest.raises(InputError, match="classifier 'nan' returned an invalid distribution"):
            monte_carlo_cost(overlap(), ZERO_ONE, rule, 1000, 1)
        rule = RandomizedClassifier(2, lambda X: np.tile([np.inf, -np.inf], (len(X), 1)), name="infinite")
        with pytest.raises(InputError, match="classifier 'infinite' returned an invalid distribution"):
            rule.distributions(np.zeros((3, 1)))
