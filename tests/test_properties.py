"""Property tests: each fast path against the slow oracle it replaced."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from randrule import (
    HarmScenario,
    SurveyDataset,
    SurveyRecord,
    brute_force_u,
    build_harm_game,
    find_pure_nash,
    is_nash,
    mann_whitney_u,
    solve_zero_sum,
    zero_sum_game,
)
from randrule.games import MAX_EXACT_ACTIONS

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


@st.composite
def payoff_matrices(draw, shape=None):
    """Integer (many ties), one-decimal or Gaussian payoffs within the exact solver's size limit."""
    if shape is None:
        rows = draw(st.integers(1, MAX_EXACT_ACTIONS - 1))
        shape = (rows, draw(st.integers(1, MAX_EXACT_ACTIONS - rows)))
    kind = draw(st.sampled_from(["integer", "one-decimal", "gaussian"]))
    if kind == "gaussian":
        return np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(shape)
    size = shape[0] * shape[1]
    cells = np.reshape(draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)), shape)
    return cells / 10 if kind == "one-decimal" else cells // 10


def linprog_value(a):
    from scipy.optimize import linprog

    # max v  s.t.  x^T A >= v for every column, sum x = 1, x >= 0
    rows, cols = a.shape
    lp = linprog(
        c=np.r_[np.zeros(rows), -1.0],
        A_ub=np.c_[-a.T, np.ones(cols)],
        b_ub=np.zeros(cols),
        A_eq=np.r_[np.ones(rows), 0.0].reshape(1, -1),
        b_eq=[1.0],
        bounds=[(0, None)] * rows + [(None, None)],
        method="highs",
    )
    assert lp.success, lp.message
    return -lp.fun


def indifference_solution(a):
    """The 2x2 closed form the kernels replaced: first pure saddle, else the indifference equations."""
    saddles = find_pure_nash(zero_sum_game(a))
    if saddles:
        i, j = saddles[0]
        return np.eye(2)[i], np.eye(2)[j], a[i, j]
    (p, q), (r, s) = a
    denom = (p - q) - r + s
    row, col = (s - r) / denom, (s - q) / denom
    return np.array([row, 1.0 - row]), np.array([col, 1.0 - col]), (p * s - q * r) / denom


@PROPERTY
@given(payoff_matrices())
def test_exact_solution_is_nash_with_the_linprog_value(a):
    pytest.importorskip("scipy.optimize")
    game = zero_sum_game(a)
    sol = solve_zero_sum(game)
    assert is_nash(game, sol.profile, 1e-9)
    assert abs(sol.value - linprog_value(a)) <= 1e-9


@PROPERTY
@given(payoff_matrices(shape=(2, 2)))
def test_2x2_solution_is_the_closed_form(a):
    sol = solve_zero_sum(zero_sum_game(a))
    row, col, value = indifference_solution(a)
    assert np.abs(sol.profile.row.probs - row).max() <= 1e-12
    assert np.abs(sol.profile.col.probs - col).max() <= 1e-12
    assert abs(sol.value - value) <= 1e-12


merits = st.floats(0.05, 5.0)
worths = st.floats(0.1, 10.0)


@PROPERTY
@given(merits, worths, merits, worths)
def test_harm_row_mix_is_exactly_the_closed_form(m_x, v_x, m_y, v_y):
    sol = solve_zero_sum(build_harm_game(HarmScenario(m_x, v_x, m_y, v_y)))
    assert sol.profile.row.probs[0] == (m_y * v_y) / (m_x * v_x + m_y * v_y)
