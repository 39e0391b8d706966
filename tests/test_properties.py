"""Property tests: each fast path against the slow oracle it replaced."""

import csv
import io
import json
import math
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from randrule import (
    ClassComponent,
    CostMatrix,
    FrequencyExploiter,
    HarmScenario,
    InputError,
    IsotropicGaussian,
    MatchTrace,
    MixedPolicy,
    MixedStrategy,
    Mixture,
    NormalFormGame,
    OrdinalSample,
    PurePolicy,
    SurveyDataset,
    SurveyRecord,
    UniformInterval,
    bayes_classifier,
    bayes_risk,
    brute_force_u,
    build_harm_game,
    build_rock_paper_scissors,
    constant_classifier,
    descriptive_summary,
    expected_cost_of_classifier,
    expected_cost_of_decision,
    fictitious_play,
    find_pure_nash,
    is_nash,
    load_survey_csv,
    mann_whitney_u,
    monte_carlo_cost,
    randomized_bayes_classifier,
    run_repeated,
    solve_zero_sum,
    zero_sum_game,
)
from randrule import games, repeated, survey
from randrule.cli import main
from randrule.rng import generator, inverse_cdf
from randrule.survey import CSV_HEADER
from test_games import linprog_value
from test_survey import Routes, loaded

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


def midrank_mann_whitney_u(x, y):
    """The ``mann_whitney_u`` before the histogram kernel: midranks of the pooled
    values from one ``np.unique``. Returns (u_x, u_y, z, p, tie_corrected, degenerate)."""
    n, m = len(x), len(y)
    pooled = np.concatenate([x, y])
    _, inverse, tie_sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(tie_sizes)
    ranks = ((2 * ends - tie_sizes + 1) / 2.0)[inverse]
    u_x = float(ranks[:n].sum() - n * (n + 1) / 2.0)
    u_y = float(n * m - u_x)
    has_ties = bool(np.any(tie_sizes > 1))
    total = n + m
    tie_term = float((tie_sizes.astype(float) ** 3 - tie_sizes).sum())
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0.0:
        return u_x, u_y, float("nan"), 1.0, has_ties, True
    delta = u_x - n * m / 2.0
    z_abs = max(abs(delta) - 0.5, 0.0) / math.sqrt(variance)
    p = min(1.0, math.erfc(z_abs / math.sqrt(2.0)))
    return u_x, u_y, math.copysign(z_abs, delta), p, has_ties, False


def sorted_summary(values, category_count):
    """The ``descriptive_summary`` before histograms: (median, modes, counts) from
    ``np.sort`` and ``np.unique`` of the raw values."""
    median = float(np.sort(values)[(len(values) - 1) // 2])
    levels, freq = np.unique(values, return_counts=True)
    modes = tuple(float(v) for v, c in zip(levels, freq) if c == freq.max())
    counts = {float(code): 0 for code in range(1, (category_count or 0) + 1)}
    for v, c in zip(levels, freq):
        counts[float(v)] = int(c)
    return median, modes, counts


@st.composite
def sample_pairs(draw):
    """Two samples: coded with one k, coded against another k or uncoded, tied
    integers, or continuous floats."""
    kind = draw(st.sampled_from(["coded", "mixed", "tied", "continuous"]))
    if kind == "tied":
        return OrdinalSample(draw(tied_samples)), OrdinalSample(draw(tied_samples))
    if kind == "continuous":
        floats = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40)
        return OrdinalSample(draw(floats)), OrdinalSample(draw(floats))
    k = draw(st.integers(1, 7))
    x = OrdinalSample(draw(st.lists(st.integers(1, k), min_size=1, max_size=60)), k)
    if kind == "mixed":
        k = draw(st.integers(1, 7))
    y = draw(st.lists(st.integers(1, k), min_size=1, max_size=60))
    return x, OrdinalSample(y, draw(st.sampled_from([k, None])) if kind == "mixed" else k)


@PROPERTY
@given(sample_pairs())
def test_histogram_statistics_match_the_rank_and_sort_oracles(pair):
    x, y = pair
    r = mann_whitney_u(x, y)
    expected = midrank_mann_whitney_u(x.values, y.values)
    assert [v.hex() for v in (r.u_x, r.u_y, r.z, r.p_two_sided)] == [v.hex() for v in expected[:4]]
    assert (r.tie_corrected, r.degenerate) == expected[4:]
    assert (r.u_x, r.u_y) == brute_force_u(x, y)
    for s in (x, y):
        summary = descriptive_summary(s)
        assert (summary.median, summary.modes, summary.counts) == sorted_summary(s.values, s.category_count)
    if not r.degenerate:
        scipy_stats = pytest.importorskip("scipy.stats")
        ref = scipy_stats.mannwhitneyu(
            x.values, y.values, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert abs(r.p_two_sided - ref.pvalue) <= 1e-12


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
    here they name the record's line as the columnar loader does. A row the
    parse refuses stops the read, but a dataset error in an earlier record
    comes first in file order, so it wins.
    """
    records, lines, stop = [], [], None
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
                stop = InputError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                break
            respondent, group, question, raw = (field.strip() for field in row)
            if raw == "":
                response = None
            else:
                try:
                    response = int(raw)
                except ValueError:
                    stop = InputError(f"{path}:{lineno}: response {raw!r} is not an integer")
                    break
                if not 1 <= response <= category_count:
                    stop = InputError(f"{path}:{lineno}: response {response} outside 1..{category_count}")
                    break
            records.append(SurveyRecord(respondent, group, question, response))
            lines.append(lineno)
    if not records and stop is None:
        raise InputError(f"{path}: no records")
    seen, groups, index = set(), {}, {}
    for rec, lineno in zip(records, lines):
        if not rec.group:
            raise InputError(f"{path}:{lineno}: record {rec.respondent_id!r}/{rec.question!r} has an empty group")
        if not rec.question:
            raise InputError(f"{path}:{lineno}: record {rec.respondent_id!r} in group {rec.group!r} has an empty question")
        key = (rec.respondent_id, rec.question)
        if key in seen:
            raise InputError(f"{path}:{lineno}: duplicate response for respondent {key[0]!r}, question {key[1]!r}")
        seen.add(key)
        groups[rec.group] = None
        answers = index.setdefault(rec.question, {}).setdefault(rec.group, [])
        if rec.response is not None:
            answers.append(rec.response)
    if stop is not None:
        raise stop
    return records, list(groups), index


# padded fields are stripped; a field with a comma is written quoted
PADDINGS = ["{}", "{}", "{}", " {}", "{} ", "{},x"]
wrong_width = st.lists(st.sampled_from(["r1", "g1", "q1", "3", ""]), min_size=1, max_size=6).filter(lambda r: len(r) != 4)


@st.composite
def survey_csv(draw, k):
    """A survey CSV: mostly valid rows, with blank rows, rows of the wrong width,
    empty groups and questions, out-of-range and non-integer responses, and duplicates."""
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
            blank = draw(st.sampled_from(["group", "question", "both"]))
            if blank != "question":
                group = draw(st.sampled_from(["", " "]))
            if blank != "group":
                question = draw(st.sampled_from(["", " "]))
        elif kind == "odd":
            response = draw(st.sampled_from(odd))
        writer.writerow([respondent, group, question, response])
    return buf.getvalue()


@st.composite
def plain_survey_csv(draw, k):
    """Survey text for the byte route: unquoted ASCII, ``\n`` endings, codes up to k with
    or without leading zeros, blank rows, empty groups and questions, and duplicates. A row
    of the wrong width or a response the route does not read sends the file to the csv route."""
    lines = [",".join(CSV_HEADER)]
    padded = st.builds("{}{}".format, st.sampled_from(["", "", "0", "00"]), st.integers(1, k))
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["row"] * 20 + ["blank", "blank", "wide", "odd"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "wide":
            lines.append(",".join(draw(wrong_width)))
            continue
        respondent = f"r{draw(st.integers(1, 25))}"
        group = draw(st.sampled_from(["g1", "g2", "g3"]))
        question = draw(st.sampled_from(["q1", "q2", "q3"]))
        response = draw(st.sampled_from(["", str(k)]) | padded)
        if kind == "odd" and draw(st.booleans()):
            group, question = draw(st.sampled_from([("", question), (group, ""), ("", "")]))
        elif kind == "odd":
            response = draw(st.sampled_from(["0", "00", str(k + 1), "x", "-1", "1" * 19]))
        lines.append(",".join([respondent, group, question, response]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def any_survey_csv(k):
    return survey_csv(k) | plain_survey_csv(k)


def test_columnar_loader_matches_the_row_by_row_loader(monkeypatch):
    routes = Routes(monkeypatch)

    # twice the examples, so survey_csv draws as many files as it did alone
    @settings(PROPERTY, max_examples=400)
    @given(st.sampled_from([2, 5, 300]).flatmap(lambda k: st.tuples(st.just(k), any_survey_csv(k))))
    def check(survey_text):
        k, text = survey_text
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "survey.csv"
            path.write_text(text, encoding="utf-8", newline="")
            # the route load_survey_csv takes and the csv route agree on the same bytes
            got = loaded(load_survey_csv, path, k)
            assert got == loaded(survey._csv_rows, path, k)
            try:
                expected = row_by_row_load(path, k)
            except InputError as exc:
                assert got == str(exc)
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

    check()
    # 117 loads take the byte route; a silent fall back leaves none
    assert routes.byte >= 80


# a question field one character past the csv module's default field limit
LONG_FIELD = f"{','.join(CSV_HEADER)}\nr1,g1,q1,1\nr2,g2,{'q' * 131_073},2\n"


def test_any_survey_file_exits_0_or_2(monkeypatch):
    routes = Routes(monkeypatch)

    # 100 examples per kind of file, as before plain_survey_csv joined
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200).map(str.encode),
            st.text(max_size=200).map(lambda t: f"{','.join(CSV_HEADER)}\n{t}".encode()),
            st.sampled_from([2, 5, 300]).flatmap(survey_csv).map(str.encode),
            st.sampled_from([2, 5, 300]).flatmap(plain_survey_csv).map(str.encode),
            st.just(LONG_FIELD.encode()),
        ),
        st.sampled_from(["2", "5", "300", "1000000000"]),
    )
    def check(data, categories):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "survey.csv"
            path.write_bytes(data)
            argv = ["compare", "--data", str(path), "--question", "q1", "--groups", "g1,g2", "--categories", categories]
            assert main(argv) in (0, 2)

    check()
    # 89 files take the byte route; a silent fall back to the csv route leaves none
    assert routes.byte >= 60


FUZZ = settings(derandomize=True, max_examples=500, deadline=None)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))


@st.composite
def one_odd_value(draw, valid):
    """A valid document, or the same document with one value anywhere in it swapped for any JSON leaf."""
    doc = draw(valid)
    slots = []  # (container, key) of every value in the document
    stack = [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            slots.append((node, key))
            stack.append(value)
    if slots and draw(st.booleans()):
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(JSON_LEAVES)
    return doc


def documents(keys, valid):
    """Bytes of a JSON document file: random bytes, random JSON whose objects
    mostly use the loader's keys, or a valid document with at most one odd value."""
    key = st.sampled_from(keys) | st.text(max_size=3) if keys else st.text(max_size=3)
    values = st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(key, inner, max_size=4),
        max_leaves=12,
    )
    return st.one_of(st.binary(max_size=200), values, one_odd_value(valid)).map(
        lambda doc: doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    )


def exit_code_with_document(data, argv):
    """Run the CLI with ``{doc}`` in ``argv`` replaced by a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        path.write_bytes(data)
        return main([str(path) if a == "{doc}" else a for a in argv])


def matrices(rows, cols, entries=st.integers(-3, 3)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def valid_mixtures(draw):
    k, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    if d == 1 and draw(st.booleans()):
        lo = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        densities = [{"kind": "uniform", "lo": a, "hi": a + draw(st.integers(1, 3))} for a in lo]
    else:
        densities = [
            {"kind": "gaussian", "mean": draw(st.lists(st.floats(-2, 2), min_size=d, max_size=d)),
             "lambda": draw(st.floats(0.1, 3))}
            for _ in range(k)
        ]
    doc = {"components": [{"prior": 1 / k, "density": density} for density in densities]}
    if draw(st.booleans()):
        doc["dimension"] = d
    return doc


@st.composite
def valid_games(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = draw(matrices(rows, cols))
    if draw(st.booleans()):
        return {"row_payoff": row, "zero_sum": True}
    return {"row_payoff": row, "col_payoff": draw(matrices(rows, cols))}


MIXTURE_KEYS = ["dimension", "components", "prior", "density", "kind", "lo", "hi", "mean", "lambda"]
CLASSIFIERS = st.sampled_from(["bayes", "mr", "md", "constant:0", "constant:1"])


@FUZZ
@given(documents(MIXTURE_KEYS, valid_mixtures()), CLASSIFIERS)
def test_any_mixture_document_exits_0_or_2(data, classifier):
    argv = ["classify-demo", "--mixture", "{doc}", "--classifier", classifier, "--n", "10"]
    assert exit_code_with_document(data, argv) in (0, 2)


@FUZZ
@given(documents(["row_payoff", "col_payoff", "zero_sum"], valid_games()), st.sampled_from(["exact", "fp"]))
def test_any_game_document_exits_0_or_2(data, method):
    argv = ["solve-game", "--game", "{doc}", "--method", method, "--iters", "10"]
    assert exit_code_with_document(data, argv) in (0, 2)


@FUZZ
@given(documents([], st.integers(2, 3).flatmap(lambda k: matrices(k, k, st.integers(0, 3)))), CLASSIFIERS)
def test_any_cost_document_exits_0_or_2(data, classifier):
    mixture = json.dumps(
        {"components": [{"prior": 0.5, "density": {"kind": "uniform", "lo": lo, "hi": lo + 1.0}} for lo in (0.0, 0.5)]}
    )
    argv = ["classify-demo", "--mixture", mixture, "--cost", "{doc}", "--classifier", classifier, "--n", "10"]
    assert exit_code_with_document(data, argv) in (0, 2)


POLICIES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["exploiter", "pure:0", "pure:1", "pure:2", "mixed:0.5,0.5", "mixed:0.2,0.3,0.5"]),
    st.sampled_from(["pure:", "mixed:", "exploiter", ""]).flatmap(
        lambda head: st.lists(
            st.one_of(st.integers(-1, 3), st.sampled_from([0.5, 1 / 3, 0.0]), JSON_LEAVES).map(str), max_size=4
        ).map(lambda parts: head + ",".join(parts))
    ),
)


@FUZZ
@given(POLICIES, POLICIES, st.sampled_from(["mp", "rps"]))
def test_any_policy_string_exits_0_or_2(row, col, game):
    # --row=TEXT keeps a policy that starts with '-' from reading as a flag
    argv = ["simulate-repeated", "--game", game, f"--row={row}", f"--col={col}", "--rounds", "10"]
    assert main(argv) in (0, 2)


@st.composite
def payoff_matrices(draw, shape=None):
    """Integer (many ties), one-decimal or Gaussian payoffs, 1 to 8 rows and columns."""
    if shape is None:
        shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["integer", "one-decimal", "gaussian"]))
    if kind == "gaussian":
        return np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(shape)
    size = shape[0] * shape[1]
    cells = np.reshape(draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)), shape)
    return cells / 10 if kind == "one-decimal" else cells // 10


def indifference_solution(a):
    """The 2x2 closed form the exact solver replaced: first pure saddle, else the indifference equations."""
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
    a, b = Fraction(m_x * v_x), Fraction(m_y * v_y)
    assert sol.profile.row.probs[0] == float(b / (a + b))


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


@st.composite
def interval_mixtures(draw):
    """2-4 intervals on a one-decimal grid, disjoint ones included, with random priors of at
    least 1/16 and a random non-negative integer cost matrix."""
    k = draw(st.integers(2, 4))
    lo = draw(st.lists(st.integers(0, 10), min_size=k, max_size=k))
    width = draw(st.lists(st.integers(1, 10), min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)), dtype=float)
    cost = np.array(draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k)), dtype=float)
    densities = [UniformInterval(l / 10, (l + w) / 10) for l, w in zip(lo, width)]
    mixture = Mixture([ClassComponent(float(p), dens) for p, dens in zip(weights / weights.sum(), densities)])
    return mixture, CostMatrix(cost.reshape(k, k)), draw(st.integers(0, 2**32))


@PROPERTY
@given(interval_mixtures())
def test_bayes_risk_bounds_the_constant_rules_and_matches_monte_carlo(case):
    mixture, cost, seed = case
    risk = bayes_risk(mixture, cost)
    for d in range(mixture.label_count):
        assert risk <= mixture.priors @ cost.values[:, d] + 1e-12
    for rule in (bayes_classifier(mixture, cost), randomized_bayes_classifier(mixture, cost)):
        # the standard error is 0 when every decision costs the same
        est = monte_carlo_cost(mixture, cost, rule, 4000, seed)
        assert abs(est.mean_cost - risk) <= 4.0 * est.standard_error + 1e-12


@st.composite
def discrete_picks(draw):
    """(probs, uniforms): one shared (k,) distribution or one per uniform, zero entries and k = 1 included, and
    uniforms of 0.0, exactly a running sum, the largest double below 1, or anything in [0, 1)."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    shared = draw(st.booleans())
    rows = 1 if shared else n
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=rows * k, max_size=rows * k)), dtype=float)
    weights = weights.reshape(rows, k)
    weights[:, -1] += weights.sum(axis=1) == 0
    probs = weights / weights.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    below_one = float(np.nextafter(1.0, 0.0))
    uniforms = np.array([
        draw(st.sampled_from([0.0, below_one, *cum[0 if shared else i]]) | st.floats(0.0, 1.0, exclude_max=True))
        for i in range(n)
    ])
    return (probs[0] if shared else probs), uniforms


@PROPERTY
@given(discrete_picks())
def test_inverse_cdf_matches_the_capped_searchsorted(case):
    probs, uniforms = case
    cum = np.cumsum(np.broadcast_to(probs, (uniforms.size, probs.shape[-1])), axis=1)
    expected = [min(np.searchsorted(c, u, side="right"), c.size - 1) for c, u in zip(cum, uniforms)]
    picks = inverse_cdf(probs, uniforms)
    assert picks.dtype == np.int64 and picks.tolist() == expected


def rationals(M):
    """The payoff matrix as nested lists of exact :class:`fractions.Fraction`."""
    return [[Fraction(v) for v in row] for row in M.tolist()]


def exact_pick(scores, u):
    """Index of the maximal exact score; ties resolved by the uniform ``u``."""
    best = max(scores)
    ties = [k for k, s in enumerate(scores) if s == best]
    return ties[int(u * len(ties))]


class _Agent:
    """The per-round policy dispatch that the array-drawn policies and the shared routes replaced.

    An exploiter keeps the exact score of each of its actions against its opponent counts, which
    start at one per opponent action."""

    def __init__(self, policy, payoff_vs_opponent):
        self.policy = policy
        if isinstance(policy, MixedPolicy):
            self.cum = np.cumsum(policy.strategy.probs)
        elif isinstance(policy, FrequencyExploiter):
            self.payoff = rationals(payoff_vs_opponent)
            self.scores = [sum(row) for row in self.payoff]

    def act(self, u):
        if isinstance(self.policy, PurePolicy):
            return self.policy.action
        if isinstance(self.policy, MixedPolicy):
            return int(min(np.searchsorted(self.cum, u, side="right"), self.cum.size - 1))
        return exact_pick(self.scores, u)

    def observe(self, opponent_action):
        if isinstance(self.policy, FrequencyExploiter):
            self.scores = [s + row[opponent_action] for s, row in zip(self.scores, self.payoff)]


def agent_loop(game, row, col, rounds, seed):
    """(row, col) actions of the match as the per-round agents played it."""
    row_agent = _Agent(row, game.row_payoff)
    col_agent = _Agent(col, game.col_payoff.T)
    u_row = generator(seed, 0).random(rounds)
    u_col = generator(seed, 1).random(rounds)
    actions = np.empty((2, rounds), dtype=np.int64)
    for t in range(rounds):
        i = row_agent.act(u_row[t])
        j = col_agent.act(u_col[t])
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


def exact_mean(M, actions) -> float:
    """The mean of the per-round payoffs ``M[i_t, j_t]`` as a :class:`fractions.Fraction`, rounded once."""
    payoffs = Counter(M[actions[0], actions[1]].tolist())
    return float(sum(Fraction(v) * c for v, c in payoffs.items()) / actions.shape[1])


def incremental_fp(game, iterations, tie_seed):
    """The fictitious-play loop with running exact score sums that the shared routes replaced; returns
    the action counts and the exact average payoff."""
    A, BT = rationals(game.row_payoff), rationals(game.col_payoff.T)
    ties = generator(tie_seed).random(2 * iterations)
    row_scores, col_scores = [sum(row) for row in A], [sum(row) for row in BT]
    row_counts = np.zeros(game.row_actions, dtype=np.int64)
    col_counts = np.zeros(game.col_actions, dtype=np.int64)
    total = Fraction(0)
    for t in range(iterations):
        i = exact_pick(row_scores, ties[2 * t])
        j = exact_pick(col_scores, ties[2 * t + 1])
        row_counts[i] += 1
        col_counts[j] += 1
        total += A[i][j]
        row_scores = [s + row[j] for s, row in zip(row_scores, A)]
        col_scores = [s + row[i] for s, row in zip(col_scores, BT)]
    return row_counts, col_counts, total / iterations


@st.composite
def small_games(draw, kinds=("integer", "integer-general-sum", "one-decimal", "general-sum")):
    """2-4 actions a side: integer payoffs in {-1, 0, 1} (many exact score ties) or {-5..5}, zero-sum or
    general-sum, one-decimal payoffs (whose float score sums would round), general-sum one-decimal
    payoffs, or zero-sum eighths ("dyadic") or standard normal ("gaussian") payoffs."""
    shape = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from([1, 5]))
    A = rng.integers(-top, top + 1, size=shape).astype(float)
    if kind == "integer-general-sum":
        B = rng.integers(-top, top + 1, size=shape).astype(float)
        assume(not np.array_equal(B, -A))
        return NormalFormGame(A, B)
    if kind == "one-decimal":
        A = rng.integers(-30, 31, size=shape) / 10
    if kind == "dyadic":
        A = rng.integers(-40, 41, size=shape) / 8
    if kind == "gaussian":
        A = rng.normal(size=shape)
    if kind == "general-sum":
        return NormalFormGame(A, rng.integers(-30, 31, size=shape) / 10)
    return zero_sum_game(A)


@st.composite
def policies(draw, n_actions):
    kind = draw(st.sampled_from(["pure", "mixed", "exploiter"]))
    if kind == "pure":
        return PurePolicy(draw(st.integers(0, n_actions - 1)))
    if kind == "mixed":
        weights = np.array(draw(st.lists(st.integers(0, 5), min_size=n_actions, max_size=n_actions))) + 0.5
        return MixedPolicy(MixedStrategy(weights / weights.sum()))
    return FrequencyExploiter()


@st.composite
def matches(draw, max_rounds=300, stage_games=small_games()):
    game = draw(stage_games)
    row = draw(policies(game.row_actions))
    col = draw(policies(game.col_actions))
    return game, row, col, draw(st.integers(1, max_rounds)), draw(st.integers(0, 2**64 - 1))


def assert_replays_the_agent_loop(game, row, col, rounds, seed):
    trace, summary = run_repeated(game, row, col, rounds, seed)
    expected = agent_loop(game, row, col, rounds, seed)
    assert np.array_equal(trace.row_actions, expected[0])
    assert np.array_equal(trace.col_actions, expected[1])
    assert summary.avg_row_payoff.hex() == exact_mean(game.row_payoff, expected).hex()
    assert summary.avg_col_payoff.hex() == exact_mean(game.col_payoff, expected).hex()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.write_csv(path)
        assert path.read_bytes() == record_csv(game, expected)


@PROPERTY
@given(matches())
def test_repeated_play_replays_the_agent_loop(match):
    assert_replays_the_agent_loop(*match)


# every score ties every round on the zero games; the first two rows of TWIN_ROWS tie forever
ZERO_2X2, ZERO_3X3 = zero_sum_game(np.zeros((2, 2))), zero_sum_game(np.zeros((3, 3)))
TWIN_ROWS = zero_sum_game([[1, -1, 0], [1, -1, 0], [-1, 1, 2]])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(matches(max_rounds=10_000))
@example((ZERO_2X2, FrequencyExploiter(), FrequencyExploiter(), 10_000, 1))
@example((ZERO_3X3, FrequencyExploiter(), FrequencyExploiter(), 10_000, 2))
@example((TWIN_ROWS, FrequencyExploiter(), FrequencyExploiter(), 10_000, 3))
@example((TWIN_ROWS, FrequencyExploiter(), MixedPolicy(MixedStrategy(np.full(3, 1 / 3))), 10_000, 4))
def test_long_repeated_play_replays_the_agent_loop(match):
    game, row, col, rounds, seed = match
    assume(FrequencyExploiter() in (row, col))
    assert_replays_the_agent_loop(*match)


@PROPERTY
@given(matches(stage_games=small_games(kinds=("one-decimal", "dyadic", "gaussian", "general-sum"))))
def test_mean_payoffs_are_the_exact_means_rounded_once(match):
    # a float sum of these payoffs rounds, so a mean taken from it can miss the correctly rounded one
    game, row, col, rounds, seed = match
    assert_replays_the_agent_loop(*match)
    if game.zero_sum:
        assert_fp_replays_the_incremental_loop(game, rounds, seed)


@PROPERTY
@given(matches(), st.sampled_from([1, 2, 7, 64]))
def test_any_block_size_replays_the_agent_loop(match, block_rounds):
    with mock.patch.object(games, "_BLOCK_ROUNDS", block_rounds):
        assert_replays_the_agent_loop(*match)


UNIFORM_RPS = MixedPolicy(MixedStrategy(np.full(3, 1.0 / 3.0)))
RPS = build_rock_paper_scissors()
INTEGER_GENERAL_SUM = NormalFormGame([[3, -5, 0], [-2, 4, 1]], [[-1, 2, 5], [0, -4, 3]])


@pytest.mark.parametrize("rounds", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("game, row, col", [
    (RPS, PurePolicy(0), FrequencyExploiter()),
    (RPS, UNIFORM_RPS, FrequencyExploiter()),
    (RPS, FrequencyExploiter(), UNIFORM_RPS),
    (INTEGER_GENERAL_SUM, FrequencyExploiter(), FrequencyExploiter()),
], ids=["pure-exploiter", "mixed-exploiter", "exploiter-mixed", "exploiter-exploiter"])
def test_matches_across_the_block_boundary_replay_the_agent_loop(game, row, col, rounds):
    assert_replays_the_agent_loop(game, row, col, rounds, seed=rounds)


def assert_writes_the_records(game, actions, tmp_path):
    path = tmp_path / "trace.csv"
    MatchTrace(actions[0], actions[1], game, seed=0).write_csv(path)
    assert path.read_bytes() == record_csv(game, actions)


def random_actions(game, rounds, seed):
    rng = np.random.default_rng(seed)
    return np.array([rng.integers(game.row_actions, size=rounds), rng.integers(game.col_actions, size=rounds)])


@pytest.mark.parametrize("rounds", [0, 1, 9, 10, 99, 100, 9999, 10_000, 10_001, 100_001,
                                    repeated._CSV_BLOCK - 1, repeated._CSV_BLOCK, repeated._CSV_BLOCK + 1])
def test_trace_csv_at_digit_and_block_edges_writes_the_records(rounds, tmp_path):
    # 0 rounds writes the header alone
    assert_writes_the_records(RPS, random_actions(RPS, rounds, rounds), tmp_path)


def test_trace_csv_of_a_40x40_game_writes_the_records(tmp_path):
    game = zero_sum_game(np.random.default_rng(40).integers(-9, 10, size=(40, 40)) / 4)
    actions = random_actions(game, 20_000, 40)
    assert np.unique(actions[0] * 40 + actions[1]).size > 1500
    assert_writes_the_records(game, actions, tmp_path)


@pytest.mark.parametrize("game", [
    zero_sum_game([[0.0, 2.5e-310], [1e300, 1 / 3]]),
    NormalFormGame([[-0.0, 5e-324], [-1e300, 0.1]], [[1 / 3, -0.0], [2.5e-310, 1e300]]),
], ids=["zero-sum", "general-sum"])
def test_trace_csv_of_edge_payoffs_writes_the_records(game, tmp_path):
    # negative zeros, subnormals, a 1e300 and a repeating binary fraction
    assert_writes_the_records(game, random_actions(game, 5_000, 3), tmp_path)


def test_passes_count_the_jump_passes(monkeypatch):
    calls = []

    def run(*args, original=games._run):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(games, "_run", run)
    fp = fictitious_play(RPS, 20_000, 9)
    # one _run call per side and pass
    assert 0 < fp.passes < 20_000 // 10 and 2 * fp.passes == len(calls)
    calls.clear()
    _, mutual = run_repeated(INTEGER_GENERAL_SUM, FrequencyExploiter(), FrequencyExploiter(), 5_000, 3)
    assert mutual.passes > 0 and 2 * mutual.passes == len(calls)
    calls.clear()
    _, one_side = run_repeated(RPS, PurePolicy(0), FrequencyExploiter(), 5_000, 3)
    _, no_side = run_repeated(RPS, PurePolicy(0), UNIFORM_RPS, 5_000, 3)
    assert one_side.passes == no_side.passes == 0 and not calls


@pytest.mark.parametrize("scale", [0.1, 2.0**50], ids=["one-decimal", "past-2**53"])
@pytest.mark.parametrize("row, col, route", [
    (PurePolicy(0), FrequencyExploiter(), "_score_blocks"),
    (FrequencyExploiter(), UNIFORM_RPS, "_score_blocks"),
    (FrequencyExploiter(), FrequencyExploiter(), "_jump"),
], ids=["pure-exploiter", "exploiter-mixed", "exploiter-exploiter"])
def test_non_integer_and_huge_payoffs_take_the_exact_routes(scale, row, col, route):
    # one-decimal float scores round; float scores of 2**50 payoffs pass 2**53 within 8 rounds
    game = zero_sum_game(RPS.row_payoff * scale)
    with mock.patch.object(games, route, wraps=getattr(games, route)) as spy:
        assert_replays_the_agent_loop(game, row, col, 64, seed=11)
    assert spy.call_count == 1


def test_integer_payoffs_take_the_exact_routes():
    with mock.patch.object(games, "_pick", wraps=games._pick) as pick:
        run_repeated(RPS, PurePolicy(0), FrequencyExploiter(), 10_000, 3)
        assert pick.call_count == 0
        fictitious_play(RPS, 10_000, 3)
        assert pick.call_count < 10_000 // 10


@pytest.mark.parametrize("rounds", [2041, 2042], ids=["int64", "python-int"])
def test_scores_past_int64_take_python_ints(rounds):
    # 2**52 * (2042 rounds + 6 actions) = 2**63, the smallest score bound that int64 cannot hold
    game = zero_sum_game([[0, -2**52, 1], [2**52, 0, -1], [-1, 1, 0]])
    dtype = np.dtype(np.int64) if rounds < 2042 else np.dtype(object)
    made = {}

    def integers(M, length, original=games._integers):
        N, g, den = original(M, length)
        made.setdefault(length, []).append(N.dtype)
        return N, g, den

    with mock.patch.object(games, "_integers", integers):
        assert_replays_the_agent_loop(game, PurePolicy(0), FrequencyExploiter(), rounds, seed=5)
        assert_replays_the_agent_loop(game, FrequencyExploiter(), FrequencyExploiter(), rounds, seed=5)
        assert_fp_replays_the_incremental_loop(game, rounds, 5)
    # the scores take rounds + 6 as their length, the tallies of both sides' means the rounds:
    # 2**52 * 2042 < 2**63, so every tally sums in int64
    assert made == {rounds + 6: [dtype] * 5, rounds: [np.dtype(np.int64)] * 6}


def assert_fp_replays_the_incremental_loop(game, iterations, tie_seed):
    result = fictitious_play(game, iterations, tie_seed)
    row_counts, col_counts, value = incremental_fp(game, iterations, tie_seed)
    assert np.array_equal(result.profile.row.probs, row_counts / iterations)
    assert np.array_equal(result.profile.col.probs, col_counts / iterations)
    assert result.value_estimate.hex() == float(value).hex()


@PROPERTY
@given(small_games(kinds=("integer",)), st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_fictitious_play_replays_the_incremental_loop_on_integer_payoffs(game, iterations, tie_seed):
    assert_fp_replays_the_incremental_loop(game, iterations, tie_seed)


@PROPERTY
@given(small_games(kinds=("one-decimal",)), st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_fictitious_play_replays_the_incremental_loop_on_one_decimal_payoffs(game, iterations, tie_seed):
    assert_fp_replays_the_incremental_loop(game, iterations, tie_seed)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_games(kinds=("integer", "one-decimal")), st.integers(1, 10_000), st.integers(0, 2**64 - 1))
@example(ZERO_2X2, 10_000, 5)
@example(ZERO_3X3, 10_000, 6)
@example(TWIN_ROWS, 10_000, 7)
def test_long_fictitious_play_replays_the_incremental_loop(game, iterations, tie_seed):
    assert_fp_replays_the_incremental_loop(game, iterations, tie_seed)


def test_rps_fictitious_play_at_20000_iterations_replays_the_incremental_loop():
    assert_fp_replays_the_incremental_loop(RPS, 20_000, 9)


# c * v is exact for v in {-1, 0, 1} and any c, and for any v when c is a power of two
ANY_SCALE = [0.1, 0.3, 0.7, 3.0, 2.0**-30, 2.0**40]
POWER_OF_TWO_SCALE = [0.5, 4.0, 2.0**-30, 2.0**40]


@st.composite
def scaled_matches(draw):
    """A match on a small integer game, and a positive c whose c-scaled payoffs are exact."""
    game, row, col, rounds, seed = draw(matches(2_000, small_games(kinds=("integer", "integer-general-sum"))))
    small = max(np.abs(game.row_payoff).max(), np.abs(game.col_payoff).max()) <= 1
    return game, row, col, rounds, seed, draw(st.sampled_from(ANY_SCALE if small else POWER_OF_TWO_SCALE))


@PROPERTY
@given(scaled_matches())
def test_scaling_the_payoffs_changes_no_action(case):
    game, row, col, rounds, seed, c = case
    scaled = NormalFormGame(game.row_payoff * c, game.col_payoff * c)
    trace, _ = run_repeated(game, row, col, rounds, seed)
    scaled_trace, _ = run_repeated(scaled, row, col, rounds, seed)
    assert np.array_equal(scaled_trace.row_actions, trace.row_actions)
    assert np.array_equal(scaled_trace.col_actions, trace.col_actions)
    if game.zero_sum:
        fp, scaled_fp = fictitious_play(game, rounds, seed), fictitious_play(scaled, rounds, seed)
        assert np.array_equal(scaled_fp.profile.row.probs, fp.profile.row.probs)
        assert np.array_equal(scaled_fp.profile.col.probs, fp.profile.col.probs)


def test_one_decimal_rps_fictitious_play_plays_as_rps():
    game = zero_sum_game(RPS.row_payoff * 0.1)
    rps, scaled = fictitious_play(RPS, 20_000, 5), fictitious_play(game, 20_000, 5)
    assert np.array_equal(scaled.profile.row.probs, rps.profile.row.probs)
    assert np.array_equal(scaled.profile.col.probs, rps.profile.col.probs)
    assert_fp_replays_the_incremental_loop(game, 20_000, 5)
    # a float sum of the per-round payoffs gave 0x1.797cc39ffd602p-13
    assert scaled.value_estimate.hex() == "0x1.797cc39ffd60fp-13"
