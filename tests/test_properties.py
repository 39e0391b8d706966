"""Property tests: each fast path against the slow oracle it replaced."""

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from randrule import (
    ClassComponent,
    CostMatrix,
    FrequencyExploiter,
    HarmScenario,
    InputError,
    IsotropicGaussian,
    MixedPolicy,
    MixedStrategy,
    Mixture,
    NormalFormGame,
    PurePolicy,
    SurveyDataset,
    SurveyRecord,
    UniformInterval,
    bayes_classifier,
    brute_force_u,
    build_harm_game,
    constant_classifier,
    expected_cost_of_classifier,
    expected_cost_of_decision,
    fictitious_play,
    find_pure_nash,
    is_nash,
    load_survey_csv,
    mann_whitney_u,
    randomized_bayes_classifier,
    run_repeated,
    solve_zero_sum,
    zero_sum_game,
)
from randrule.games import MAX_EXACT_ACTIONS
from randrule.rng import generator
from randrule.survey import CSV_HEADER

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


def row_by_row_load(path, category_count):
    """The survey loader before the columnar one: a ``SurveyRecord`` per row, then
    the per-record validation and index of the old ``SurveyDataset.__post_init__``.

    Returns (records, groups, index). Its dataset errors read ``{path}: ...``;
    here they name the record's line as the columnar loader does.
    """
    records, lines = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: no records (empty file)")
        if [h.strip() for h in header] != CSV_HEADER:
            raise InputError(f"{path}: header must be {','.join(CSV_HEADER)!r}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            respondent, group, question, raw = (field.strip() for field in row)
            if raw == "":
                response = None
            else:
                try:
                    response = int(raw)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: response {raw!r} is not an integer") from None
                if not 1 <= response <= category_count:
                    raise InputError(f"{path}:{lineno}: response {response} outside 1..{category_count}")
            records.append(SurveyRecord(respondent, group, question, response))
            lines.append(lineno)
    if not records:
        raise InputError(f"{path}: no records")
    seen, groups, index = set(), {}, {}
    for rec, lineno in zip(records, lines):
        if not rec.group:
            raise InputError(f"{path}:{lineno}: record {rec.respondent_id!r}/{rec.question!r} has an empty group")
        key = (rec.respondent_id, rec.question)
        if key in seen:
            raise InputError(f"{path}:{lineno}: duplicate response for respondent {key[0]!r}, question {key[1]!r}")
        seen.add(key)
        groups[rec.group] = None
        answers = index.setdefault(rec.question, {}).setdefault(rec.group, [])
        if rec.response is not None:
            answers.append(rec.response)
    return records, list(groups), index


# padded fields are stripped; a field with a comma is written quoted
PADDINGS = ["{}", "{}", "{}", " {}", "{} ", "{},x"]
wrong_width = st.lists(st.sampled_from(["r1", "g1", "q1", "3", ""]), min_size=1, max_size=6).filter(lambda r: len(r) != 4)


@st.composite
def survey_csv(draw, k):
    """A survey CSV: mostly valid rows, with blank rows, rows of the wrong width,
    empty groups, out-of-range and non-integer responses, and duplicates."""
    # valid codes in the spellings int() accepts, and responses a k-category survey rejects
    valid = ["", "1", "2", " 2 ", "02", "+2", "\uff12", str(k), f"0{k}", f"+{k}"]
    odd = ["x", "0", "2.5", str(k + 1), "-1", ""]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.sampled_from([",".join(CSV_HEADER)] * 10 + [" respondent_id , group,question ,response", "id,g,q,r"]))
    buf = io.StringIO(newline="")
    buf.write(header + newline)
    writer = csv.writer(buf, lineterminator=newline)
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["row"] * 20 + ["blank", "blank", "wide", "odd"]))
        if kind == "blank":
            writer.writerow([])
            continue
        if kind == "wide":
            writer.writerow(draw(wrong_width))
            continue
        respondent = draw(st.sampled_from(PADDINGS)).format(f"r{draw(st.integers(1, 25))}")
        group = draw(st.sampled_from(PADDINGS)).format(draw(st.sampled_from(["g1", "g2", "g3"])))
        question = draw(st.sampled_from(PADDINGS)).format(draw(st.sampled_from(["q1", "q2", "q3"])))
        response = draw(st.sampled_from(valid))
        if kind == "odd" and draw(st.booleans()):
            group = draw(st.sampled_from(["", " "]))
        elif kind == "odd":
            response = draw(st.sampled_from(odd))
        writer.writerow([respondent, group, question, response])
    return buf.getvalue()


@PROPERTY
@given(st.sampled_from([2, 5, 300]).flatmap(lambda k: st.tuples(st.just(k), survey_csv(k))))
def test_columnar_loader_matches_the_row_by_row_loader(survey):
    k, text = survey
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            expected = row_by_row_load(path, k)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                load_survey_csv(path, k)
            assert str(got.value) == str(exc)
            return
        ds = load_survey_csv(path, k)
    records, groups, index = expected
    assert len(ds.records) == len(records)
    for i, rec in enumerate(records):
        assert ds.records[i] == rec
    assert ds.groups() == groups
    assert ds.questions() == list(index)
    for question in index:
        for group in groups + ["g9"]:
            assert ds.responses(question, group) == index[question].get(group, [])


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
@given(payoff_matrices(), st.integers(0, 15))
def test_exact_solution_is_nash_with_the_linprog_value(a, k):
    # the equilibrium check is relative to the payoff scale, so 10^k-scaled games solve too
    pytest.importorskip("scipy.optimize")
    game = zero_sum_game(a * 10.0**k)
    sol = solve_zero_sum(game)
    assert is_nash(game, sol.profile, 1e-9)
    assert abs(sol.value / 10.0**k - linprog_value(a)) <= 1e-9


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


@st.composite
def mixtures_with_evidence(draw):
    """Interval mixtures on a one-decimal grid (many exact and rounding ties) or Gaussians in 1-3 D,
    with a random non-negative cost matrix and evidence points that have density."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    priors = rng.dirichlet(np.ones(k)) if draw(st.booleans()) else np.full(k, 1.0 / k)
    if draw(st.booleans()):
        lo = rng.integers(0, 10, size=k) / 10
        width = rng.integers(1, 10, size=k) / 10
        densities = [UniformInterval(float(l), float(l + w)) for l, w in zip(lo, width)]
        X = np.r_[lo, lo + width, lo + rng.random(k) * width].reshape(-1, 1)
    else:
        d = draw(st.integers(1, 3))
        means = rng.integers(-10, 11, size=(k, d)) / 5
        lam = float(rng.uniform(0.2, 2.0))
        densities = [IsotropicGaussian(m, lam) for m in means]
        X = np.r_[means, (means[:, None, :] + rng.normal(0.0, math.sqrt(lam), size=(k, 4, d))).reshape(-1, d)]
        X = np.r_[X, (means[:1] + means[1:2]) / 2]  # the midpoint of two means, a tie under 0-1 cost
    cost = rng.integers(0, 4, size=(k, k)) if draw(st.booleans()) else 1.0 - np.eye(k)
    mixture = Mixture([ClassComponent(float(p), dens) for p, dens in zip(priors / priors.sum(), densities)])
    return mixture, CostMatrix(cost), X


@PROPERTY
@given(mixtures_with_evidence())
def test_randomized_bayes_costs_exactly_the_minimum(case):
    """The paper's claim: the randomized rule is as good as the best deterministic decision at every x."""
    mixture, cost, X = case
    rules = [randomized_bayes_classifier(mixture, cost), bayes_classifier(mixture, cost)]
    constants = [constant_classifier(d, mixture.label_count) for d in range(mixture.label_count)]
    for x in X:
        best = min(expected_cost_of_decision(mixture, cost, x, d) for d in range(mixture.label_count))
        for rule in rules:
            assert abs(expected_cost_of_classifier(mixture, cost, rule, x) - best) <= 1e-12
        for rule in constants:
            assert expected_cost_of_classifier(mixture, cost, rules[0], x) <= (
                expected_cost_of_classifier(mixture, cost, rule, x) + 1e-12
            )


class _Agent:
    """The per-round policy dispatch that the array-drawn policies and the shared loop replaced."""

    def __init__(self, policy, n_opponent):
        self.policy = policy
        if isinstance(policy, MixedPolicy):
            self.cum = np.cumsum(policy.strategy.probs)
        elif isinstance(policy, FrequencyExploiter):
            counts = policy.virtual_counts
            counts = np.ones(n_opponent) if counts is None else np.asarray(counts, dtype=float)
            self.opponent_counts = counts.copy()

    def act(self, payoff_vs_opponent, u):
        if isinstance(self.policy, PurePolicy):
            return self.policy.action
        if isinstance(self.policy, MixedPolicy):
            return int(min(np.searchsorted(self.cum, u, side="right"), self.cum.size - 1))
        scores = payoff_vs_opponent @ self.opponent_counts
        ties = np.flatnonzero(scores == scores.max())
        return int(ties[int(u * ties.size)]) if ties.size > 1 else int(ties[0])

    def observe(self, opponent_action):
        if isinstance(self.policy, FrequencyExploiter):
            self.opponent_counts[opponent_action] += 1


def agent_loop(game, row, col, rounds, seed):
    """(row, col) actions of the match as the per-round agents played it."""
    row_agent = _Agent(row, game.col_actions)
    col_agent = _Agent(col, game.row_actions)
    u_row = generator(seed, 0).random(rounds)
    u_col = generator(seed, 1).random(rounds)
    BT = game.col_payoff.T.copy()
    actions = np.empty((2, rounds), dtype=np.int64)
    for t in range(rounds):
        i = row_agent.act(game.row_payoff, u_row[t])
        j = col_agent.act(BT, u_col[t])
        actions[:, t] = i, j
        row_agent.observe(j)
        col_agent.observe(i)
    return actions


def record_csv(game, actions) -> bytes:
    """The trace CSV as the per-round records wrote it: csv.writer over repr floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["round", "row_action", "col_action", "row_payoff", "col_payoff"])
    for t, (i, j) in enumerate(actions.T):
        writer.writerow([t, int(i), int(j), repr(float(game.row_payoff[i, j]) + 0.0),
                         repr(float(game.col_payoff[i, j]) + 0.0)])
    return buf.getvalue().encode()


def incremental_fp(game, iterations, tie_seed):
    """The fictitious-play loop with running score sums that the shared loop replaced."""
    A, B = game.row_payoff, game.col_payoff
    ties = generator(tie_seed).random(2 * iterations)
    row_scores, col_scores = A.sum(axis=1), B.sum(axis=0)
    row_counts = np.zeros(game.row_actions, dtype=np.int64)
    col_counts = np.zeros(game.col_actions, dtype=np.int64)
    total = 0.0
    for t in range(iterations):
        r, c = (np.flatnonzero(s == s.max()) for s in (row_scores, col_scores))
        i = r[int(ties[2 * t] * r.size)] if r.size > 1 else r[0]
        j = c[int(ties[2 * t + 1] * c.size)] if c.size > 1 else c[0]
        row_counts[i] += 1
        col_counts[j] += 1
        total += A[i, j]
        row_scores += A[:, j]
        col_scores += B[i, :]
    return row_counts, col_counts, total / iterations


@st.composite
def small_games(draw, kinds=("integer", "one-decimal", "general-sum")):
    """2-4 actions a side: payoffs in {-1, 0, 1} (many exact score ties), one-decimal payoffs (score sums that
    round) or general-sum one-decimal payoffs."""
    shape = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    A = rng.integers(-1, 2, size=shape).astype(float)
    if kind == "one-decimal":
        A = rng.integers(-30, 31, size=shape) / 10
    if kind == "general-sum":
        return NormalFormGame(A, rng.integers(-30, 31, size=shape) / 10)
    return zero_sum_game(A)


@st.composite
def policies(draw, n_actions, n_opponent):
    kind = draw(st.sampled_from(["pure", "mixed", "exploiter", "exploiter-counts"]))
    if kind == "pure":
        return PurePolicy(draw(st.integers(0, n_actions - 1)))
    if kind == "mixed":
        weights = np.array(draw(st.lists(st.integers(0, 5), min_size=n_actions, max_size=n_actions))) + 0.5
        return MixedPolicy(MixedStrategy(weights / weights.sum()))
    if kind == "exploiter":
        return FrequencyExploiter()
    counts = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]), min_size=n_opponent, max_size=n_opponent))
    return FrequencyExploiter(np.array(counts) + np.eye(n_opponent)[0])


@st.composite
def matches(draw):
    game = draw(small_games())
    row = draw(policies(game.row_actions, game.col_actions))
    col = draw(policies(game.col_actions, game.row_actions))
    return game, row, col, draw(st.integers(1, 300)), draw(st.integers(0, 2**64 - 1))


@PROPERTY
@given(matches())
def test_repeated_play_replays_the_agent_loop(match):
    game, row, col, rounds, seed = match
    trace, summary = run_repeated(game, row, col, rounds, seed)
    expected = agent_loop(game, row, col, rounds, seed)
    assert np.array_equal(trace.row_actions, expected[0])
    assert np.array_equal(trace.col_actions, expected[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.write_csv(path)
        assert path.read_bytes() == record_csv(game, expected)


@PROPERTY
@given(small_games(kinds=("integer",)), st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_fictitious_play_replays_the_incremental_loop_on_integer_payoffs(game, iterations, tie_seed):
    result = fictitious_play(game, iterations, tie_seed)
    row_counts, col_counts, value = incremental_fp(game, iterations, tie_seed)
    assert np.array_equal(result.profile.row.probs, row_counts / iterations)
    assert np.array_equal(result.profile.col.probs, col_counts / iterations)
    assert result.value_estimate.hex() == value.hex()
