"""Property tests: each fast path against the slow oracle it replaced."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from randrule import SurveyDataset, SurveyRecord, brute_force_u, mann_whitney_u

# derandomized so that every run checks the same examples
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

tied_samples = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40)


@PROPERTY
@given(tied_samples, tied_samples)
def test_u_equals_the_pair_counting_oracle(x, y):
    r = mann_whitney_u(x, y)
    assert (r.u_x, r.u_y) == brute_force_u(x, y)


@PROPERTY
@given(tied_samples, tied_samples)
def test_p_matches_scipy(x, y):
    scipy_stats = pytest.importorskip("scipy.stats")
    r = mann_whitney_u(x, y)
    if len(set(x) | set(y)) == 1:
        assert r.degenerate and r.p_two_sided == 1.0 and math.isnan(r.z)
        return
    ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic", use_continuity=True)
    assert not r.degenerate
    assert abs(r.p_two_sided - ref.pvalue) <= 1e-9


@PROPERTY
@given(st.integers(min_value=-3, max_value=3), st.integers(1, 20), st.integers(1, 20))
def test_all_identical_values_are_degenerate(value, n, m):
    r = mann_whitney_u([value] * n, [value] * m)
    assert r.degenerate
    assert r.p_two_sided == 1.0


records = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.sampled_from(["g1", "g2", "g3"]),
        st.sampled_from(["q1", "q2", "q3"]),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=60,
    unique_by=lambda t: (t[0], t[2]),
)


@PROPERTY
@given(records)
def test_lookups_match_a_scan_of_the_records(rows):
    ds = SurveyDataset(tuple(SurveyRecord(f"r{r}", g, q, v) for r, g, q, v in rows), category_count=4)
    assert ds.groups() == list(dict.fromkeys(rec.group for rec in ds.records))
    assert ds.questions() == list(dict.fromkeys(rec.question for rec in ds.records))
    for question in ("q1", "q2", "q3", "q9"):
        for group in ("g1", "g2", "g3", "g9"):
            scanned = [
                rec.response
                for rec in ds.records
                if rec.question == question and rec.group == group and rec.response is not None
            ]
            got = ds.responses(question, group)
            assert got == scanned
            # callers get a copy; changing it leaves the dataset as it was
            got.append(0)
            assert ds.responses(question, group) == scanned
