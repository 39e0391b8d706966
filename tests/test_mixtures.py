import json
import math

import numpy as np
import pytest

from randrule import (
    ClassComponent,
    InputError,
    IsotropicGaussian,
    Mixture,
    UniformInterval,
    UnsupportedEvidenceError,
    density_at,
    gaussian_mixture,
    load_mixture,
    mixture_from_dict,
    posterior,
    posterior_matrix,
    sample_case_arrays,
    uniform_overlap_mixture,
)


def two_uniform(a=0.5, b=1.0):
    return uniform_overlap_mixture(a, b)


class TestDensities:
    def test_uniform_density_is_constant_inside(self):
        m = Mixture(
            [
                ClassComponent(0.5, UniformInterval(0.0, 1.0)),
                ClassComponent(0.5, UniformInterval(0.0, 2.0)),
            ]
        )
        assert density_at(m, 0, 0.5) == 1.0
        assert density_at(m, 1, 3.0) == 0.0

    def test_uniform_boundary_counts_as_inside(self):
        m = two_uniform()
        assert density_at(m, 0, 0.0) == 1.0
        assert density_at(m, 0, 1.0) == 1.0

    def test_standard_normal_at_zero(self):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        assert density_at(m, 0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_isotropic_gaussian_matches_explicit_formula(self):
        m = gaussian_mixture([[0.0, 0.0], [2.0, 1.0]], lam=0.7)
        x = np.array([0.3, -0.4])
        expected = (2 * math.pi * 0.7) ** -1 * math.exp(-(0.3**2 + 0.4**2) / (2 * 0.7))
        assert density_at(m, 0, x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = gaussian_mixture([[0.0, 0.0], [1.0, 1.0]], lam=1.0)
        with pytest.raises(InputError):
            density_at(m, 0, [1.0])

    def test_bad_label_rejected(self):
        with pytest.raises(InputError):
            density_at(two_uniform(), 2, 0.5)


class TestConstruction:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(InputError):
            Mixture(
                [
                    ClassComponent(0.6, UniformInterval(0, 1)),
                    ClassComponent(0.5, UniformInterval(0, 1)),
                ]
            )

    def test_needs_two_components(self):
        with pytest.raises(InputError):
            Mixture([ClassComponent(1.0, UniformInterval(0, 1))])

    def test_interval_needs_lo_below_hi(self):
        with pytest.raises(InputError):
            UniformInterval(1.0, 1.0)

    def test_gaussian_needs_positive_lambda(self):
        with pytest.raises(InputError):
            IsotropicGaussian(np.zeros(2), 0.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InputError):
            Mixture(
                [
                    ClassComponent(0.5, UniformInterval(0, 1)),
                    ClassComponent(0.5, IsotropicGaussian(np.zeros(2), 1.0)),
                ]
            )


class TestPosterior:
    def test_only_supported_class_gets_all_mass(self):
        assert np.array_equal(posterior(two_uniform(), 0.25), [1.0, 0.0])

    def test_overlap_region_is_uninformative(self):
        assert np.array_equal(posterior(two_uniform(), 0.75), [0.5, 0.5])

    def test_gaussian_midpoint_is_even(self):
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        assert posterior(m, 0.5) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_unsupported_evidence_raises(self):
        with pytest.raises(UnsupportedEvidenceError):
            posterior(two_uniform(), 5.0)

    def test_unsupported_evidence_names_its_row_not_its_coordinates(self):
        # in 800-D these densities lie below the smallest double, yet equal
        # means still leave every row uninformative
        m = gaussian_mixture(np.zeros((2, 800)), lam=1.0)
        assert np.array_equal(posterior_matrix(m, np.ones((3, 800))), np.full((3, 2), 0.5))
        with pytest.raises(UnsupportedEvidenceError) as info:
            posterior_matrix(two_uniform(), np.array([[0.25], [5.0], [7.0]]))
        assert str(info.value) == "evidence row 1 has zero density under every class"

    @pytest.mark.parametrize("x", [38.0, 40.0, 100.0])
    def test_far_tail_posterior_is_the_logistic(self, x):
        # log f1(x) - log f0(x) = x - 1/2 for unit Gaussians at 0 and 1
        m = gaussian_mixture([0.0, 1.0], lam=1.0)
        assert posterior(m, x)[0] == pytest.approx(1.0 / (1.0 + math.exp(x - 0.5)), rel=1e-12, abs=0.0)
        assert posterior(m, -x)[1] == pytest.approx(1.0 / (1.0 + math.exp(x + 0.5)), rel=1e-12, abs=0.0)

    def test_zero_prior_class_gets_zero_posterior(self):
        m = gaussian_mixture([0.0, 1.0, 2.0], lam=1.0, priors=[0.0, 0.5, 0.5])
        post = posterior_matrix(m, np.array([[-3.0], [0.3], [40.0]]))
        assert np.array_equal(post[:, 0], np.zeros(3))
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_sums_to_one_across_support(self):
        m = two_uniform(0.3, 1.2)
        for x in np.linspace(0.0, 1.5, 301):
            p = posterior(m, x)
            assert np.all(p >= 0) and np.all(p <= 1)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_invariant_under_common_scaling_of_weighted_densities(self):
        # same prior/density products up to a constant factor: [0,1] vs [0,2]
        # supports with halved densities give identical posteriors on [0,1]
        m1 = Mixture(
            [
                ClassComponent(0.3, UniformInterval(0, 1)),
                ClassComponent(0.7, UniformInterval(0, 1)),
            ]
        )
        m2 = Mixture(
            [
                ClassComponent(0.3, UniformInterval(0, 2)),
                ClassComponent(0.7, UniformInterval(0, 2)),
            ]
        )
        for x in (0.0, 0.25, 0.8, 1.0):
            assert posterior(m1, x) == pytest.approx(posterior(m2, x), abs=1e-15)


class TestSampling:
    def test_sample_size_must_be_positive(self):
        with pytest.raises(InputError):
            sample_case_arrays(two_uniform(), 0, seed=1)

    def test_fixed_seed_is_bit_identical(self):
        m = two_uniform()
        X1, labels1 = sample_case_arrays(m, 200, seed=42)
        X2, labels2 = sample_case_arrays(m, 200, seed=42)
        assert X1.tobytes() == X2.tobytes()
        assert labels1.tobytes() == labels2.tobytes()

    def test_prefix_property_of_the_case_stream(self):
        # case i's randomness is positional, so shorter runs are prefixes
        m = two_uniform()
        X_small, lab_small = sample_case_arrays(m, 100, seed=7)
        X_big, lab_big = sample_case_arrays(m, 1000, seed=7)
        assert np.array_equal(X_small, X_big[:100])
        assert np.array_equal(lab_small, lab_big[:100])

    def test_label_frequencies_converge_to_priors(self):
        # binomial 3-sigma band at n=1e6: 0.5 +- 0.0015
        _, labels = sample_case_arrays(two_uniform(), 10**6, seed=2024)
        assert abs(np.mean(labels == 1) - 0.5) <= 0.0015

    def test_within_class_samples_follow_the_density(self):
        # one-sided KS distance of the class-0 sample against U[0, b]
        b = 1.0
        X, labels = sample_case_arrays(two_uniform(0.5, b), 2 * 10**5, seed=5)
        xs = np.sort(X[labels == 0, 0])
        m = xs.size
        assert m > 9 * 10**4
        cdf = np.clip(xs / b, 0.0, 1.0)
        ks = max(
            float(np.max(np.arange(1, m + 1) / m - cdf)),
            float(np.max(cdf - np.arange(0, m) / m)),
        )
        assert ks < 0.01

    def test_gaussian_sampling_moments(self):
        m = gaussian_mixture([[0.0, 0.0], [3.0, 3.0]], lam=2.0)
        X, labels = sample_case_arrays(m, 10**5, seed=11)
        cls = X[labels == 0]
        assert np.max(np.abs(cls.mean(axis=0))) < 0.03
        assert np.max(np.abs(cls.var(axis=0) - 2.0)) < 0.06


class TestJson:
    def test_round_trip_from_document(self):
        doc = {
            "dimension": 1,
            "components": [
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [2.0], "lambda": 0.5}},
            ],
        }
        m = mixture_from_dict(doc)
        assert m.dimension == 1
        assert density_at(m, 0, 0.5) == 1.0

    def test_load_from_string_and_path(self, tmp_path):
        doc = {
            "dimension": 1,
            "components": [
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
            ],
        }
        text = json.dumps(doc)
        from_string = load_mixture(text)
        path = tmp_path / "mixture.json"
        path.write_text(text)
        from_path = load_mixture(path)
        assert from_string.components == from_path.components

    def test_declared_dimension_must_match(self):
        doc = {
            "dimension": 3,
            "components": [
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
            ],
        }
        with pytest.raises(InputError):
            mixture_from_dict(doc)

    def test_unknown_kind_rejected(self):
        doc = {"components": [{"prior": 1.0, "density": {"kind": "cauchy"}}]}
        with pytest.raises(InputError):
            mixture_from_dict(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(InputError):
            load_mixture("{not json")
