import math

import numpy as np
import pytest

from randrule import (
    InputError,
    OrdinalSample,
    brute_force_u,
    descriptive_summary,
    mann_whitney_u,
)


class TestBruteForce:
    def test_single_tie_splits_evenly(self):
        assert brute_force_u([5], [5]) == (0.5, 0.5)

    def test_complete_separation(self):
        assert brute_force_u([1, 1], [2, 2]) == (0.0, 4.0)

    def test_reference_pair(self):
        assert brute_force_u([19, 22, 16, 29, 24], [20, 11, 17, 12]) == (17.0, 3.0)


class TestMannWhitney:
    def test_complete_separation(self):
        r = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert r.u_x == 0.0
        assert r.u_y == 9.0

    def test_reference_pair(self):
        r = mann_whitney_u([19, 22, 16, 29, 24], [20, 11, 17, 12])
        assert (r.u_x, r.u_y) == (17.0, 3.0)
        assert not r.tie_corrected

    def test_half_credit_for_ties(self):
        r = mann_whitney_u([1, 2], [2, 3])
        assert r.u_x == 0.5
        assert r.tie_corrected

    def test_matches_brute_force_on_random_tied_samples(self):
        rng = np.random.Generator(np.random.PCG64(1234))
        for _ in range(300):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(2, 25))
            x = rng.integers(1, 6, size=n)
            y = rng.integers(1, 6, size=m)
            r = mann_whitney_u(x, y)
            assert (r.u_x, r.u_y) == brute_force_u(x, y)
            assert r.u_x + r.u_y == n * m

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.integers(1, 6, size=15).astype(float)
        y = rng.integers(1, 6, size=12).astype(float)
        base = mann_whitney_u(x, y)
        for transform in (lambda v: v**3 + 2 * v, np.exp, lambda v: 10 * v - 7):
            r = mann_whitney_u(transform(x), transform(y))
            assert r.u_x == base.u_x
            assert r.p_two_sided == base.p_two_sided

    def test_swapping_samples_swaps_u_and_keeps_p(self):
        x = [1, 3, 3, 4, 5, 2]
        y = [2, 2, 4, 5, 5]
        fwd = mann_whitney_u(x, y)
        rev = mann_whitney_u(y, x)
        assert (fwd.u_x, fwd.u_y) == (rev.u_y, rev.u_x)
        assert fwd.p_two_sided == rev.p_two_sided
        assert fwd.z == -rev.z

    def test_p_decreases_as_samples_separate(self):
        rng = np.random.Generator(np.random.PCG64(77))
        x = rng.normal(0.0, 1.0, size=30)
        base_y = rng.normal(0.0, 1.0, size=25)
        previous = None
        for shift in np.linspace(0.0, 3.0, 13):
            p = mann_whitney_u(x, base_y + shift).p_two_sided
            if previous is not None:
                assert p <= previous + 1e-12
            previous = p

    def test_degenerate_pooled_sample(self):
        r = mann_whitney_u([3, 3], [3, 3, 3])
        assert r.degenerate
        assert r.p_two_sided == 1.0
        assert math.isnan(r.z)
        assert r.u_x + r.u_y == 6.0

    def test_identical_distributions_give_p_one(self):
        r = mann_whitney_u([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert r.p_two_sided == 1.0
        assert not r.degenerate

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            mann_whitney_u([], [1, 2])

    def test_matches_scipy_asymptotic_convention(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.Generator(np.random.PCG64(2718))
        for _ in range(50):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(3, 30))
            x = rng.integers(1, 6, size=n)
            y = rng.integers(1, 6, size=m)
            if np.unique(np.concatenate([x, y])).size == 1:
                continue
            ours = mann_whitney_u(x, y)
            ref = scipy_stats.mannwhitneyu(
                x, y, alternative="two-sided", method="asymptotic", use_continuity=True
            )
            assert ours.u_x == ref.statistic
            assert ours.p_two_sided == pytest.approx(ref.pvalue, abs=1e-10)


class TestOrdinalSample:
    def test_category_codes_validated(self):
        with pytest.raises(InputError):
            OrdinalSample(np.array([1, 2, 7]), category_count=5)
        with pytest.raises(InputError):
            OrdinalSample(np.array([1.5]), category_count=5)

    def test_non_empty(self):
        with pytest.raises(InputError):
            OrdinalSample(np.array([]))

    def test_the_histogram_stops_at_the_largest_code(self):
        # the histogram holds the codes that occur, so its size follows the data and not k
        s = OrdinalSample(np.array([1, 3, 3]), category_count=10**12)
        assert s.levels.tolist() == [1.0, 3.0]
        assert s.counts.tolist() == [1, 2]

    def test_a_code_float_cannot_hold_exactly_is_refused(self):
        OrdinalSample(np.array([1, 2**53 - 1]), category_count=10**30)
        with pytest.raises(InputError, match=r"^category codes must be integers in 1\.\.9007199254740991$"):
            OrdinalSample(np.array([1, 2**53 + 1]), category_count=10**30)
        with pytest.raises(InputError, match=r"^category codes must be integers in 1\.\.5$"):
            OrdinalSample(np.array([1, 2**53 + 1]), category_count=5)


class TestDescriptiveSummary:
    def test_simple_case(self):
        s = descriptive_summary([1, 2, 2, 5])
        assert s.median == 2.0
        assert s.modes == (2.0,)

    def test_even_length_uses_the_lower_middle(self):
        s = descriptive_summary([1, 1, 2, 2])
        assert s.median == 1.0
        assert s.modes == (1.0, 2.0)

    def test_singleton(self):
        s = descriptive_summary([3])
        assert s.median == 3.0
        assert s.modes == (3.0,)
        assert s.counts == {3.0: 1}

    def test_histogram_includes_empty_categories(self):
        s = descriptive_summary(OrdinalSample(np.array([1, 1, 3]), category_count=5))
        assert s.counts == {1.0: 2, 2.0: 0, 3.0: 1, 4.0: 0, 5.0: 0}
