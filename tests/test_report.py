import csv
import io

import numpy as np
import pytest

from randrule import InputError, OrdinalSample, SurveyDataset, SurveyRecord, load_survey_csv, run_report


def build_dataset(groups=("g1", "g2"), questions=("q1", "q2", "q3"), n=10, separated=True):
    records = []
    for gi, group in enumerate(groups):
        for q in questions:
            for i in range(n):
                code = (1 + i % 2) if (separated and gi == 0) else (4 + i % 2)
                records.append(SurveyRecord(f"{group}-{i}", group, q, code))
    return SurveyDataset(tuple(records), category_count=5)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestBundleShape:
    def test_two_groups_three_questions(self, tmp_path):
        bundle = run_report(build_dataset(), out_dir=tmp_path)
        assert len(bundle.questions) == 3
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert svgs == ["q1.svg", "q2.svg", "q3.svg"]
        rows = csv_rows(bundle.comparisons_csv)
        assert rows[0] == ["question", "group_a", "group_b", "u", "p", "significant"]
        assert len(rows) == 1 + 3  # one pair per question
        assert (tmp_path / "comparisons.csv").read_text() == bundle.comparisons_csv

    def test_three_groups_give_three_pairs_per_question(self):
        bundle = run_report(build_dataset(groups=("a", "b", "c"), questions=("q1",)))
        assert len(bundle.questions[0].comparisons) == 3

    def test_summaries_cover_every_group(self):
        bundle = run_report(build_dataset())
        assert set(bundle.questions[0].summaries) == {"g1", "g2"}


class TestVerdicts:
    def test_separated_groups_all_significant(self):
        bundle = run_report(build_dataset(separated=True))
        for row in csv_rows(bundle.comparisons_csv)[1:]:
            assert row[5] == "true"

    def test_identical_groups_not_significant(self):
        bundle = run_report(build_dataset(separated=False))
        for row in csv_rows(bundle.comparisons_csv)[1:]:
            assert row[5] == "false"

    def test_significance_column_matches_p_below_alpha(self):
        bundle = run_report(build_dataset(), alpha=0.05)
        for row in csv_rows(bundle.comparisons_csv)[1:]:
            assert row[5] == ("true" if float(row[4]) < 0.05 else "false")


class TestNotes:
    def test_single_respondent_groups_run_with_low_n_note(self):
        records = (
            SurveyRecord("a", "g1", "q1", 1),
            SurveyRecord("b", "g2", "q1", 5),
        )
        bundle = run_report(SurveyDataset(records, category_count=5))
        notes = bundle.questions[0].notes
        assert any("low-n" in note and "'g1'" in note for note in notes)
        assert any("low-n" in note and "'g2'" in note for note in notes)

    def test_categorical_questions_get_grouped_charts_and_no_tests(self):
        bundle = run_report(build_dataset(questions=("q1", "q22")), categorical={"q22"})
        by_question = {rep.question: rep for rep in bundle.questions}
        assert by_question["q22"].comparisons == ()
        assert by_question["q22"].summaries == {}
        assert any("categorical" in note for note in by_question["q22"].notes)
        assert "<svg" in by_question["q22"].chart_svg
        assert len(by_question["q1"].comparisons) == 1
        rows = csv_rows(bundle.comparisons_csv)[1:]
        assert all(row[0] != "q22" for row in rows)


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        ds = build_dataset()
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        b1 = run_report(ds, out_dir=first)
        b2 = run_report(ds, out_dir=second)
        assert b1.comparisons_csv == b2.comparisons_csv
        for name in ("comparisons.csv", "q1.svg", "q2.svg", "q3.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_report_reads_histograms_and_sorts_nothing(monkeypatch, tmp_path):
    path = tmp_path / "survey.csv"
    rows = [f"{r.respondent_id},{r.group},{r.question},{r.response}\n" for r in build_dataset(("a", "b", "c")).records]
    path.write_text("respondent_id,group,question,response\n" + "".join(rows))
    dataset = load_survey_csv(path)
    expected = run_report(dataset, categorical={"q3"})

    def refuse(*args, **kwargs):
        raise AssertionError("the report path sorted its values")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "union1d", refuse)
    bundle = run_report(dataset, categorical={"q3"}, out_dir=tmp_path / "out")
    assert bundle.comparisons_csv == expected.comparisons_csv
    assert [q.chart_svg for q in bundle.questions] == [q.chart_svg for q in expected.questions]


def test_each_cell_sample_is_built_once(monkeypatch):
    built = []
    post_init = OrdinalSample.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    dataset = build_dataset(("a", "b", "c", "d"))
    monkeypatch.setattr(OrdinalSample, "__post_init__", counting)
    bundle = run_report(dataset, categorical={"q3"})
    assert len(built) == 3 * 4
    assert sum(len(q.comparisons) for q in bundle.questions) == 2 * 6


class TestValidation:
    def test_label_count_must_match(self):
        with pytest.raises(InputError):
            run_report(build_dataset(), category_labels=("a", "b"))

    def test_questions_sharing_a_chart_file_are_refused_before_writing(self, tmp_path):
        records = [SurveyRecord(f"{g}{i}", g, q, 1 + i % 3) for q in ("q 1", "q_1") for g in ("a", "b") for i in range(4)]
        out_dir = tmp_path / "out"
        with pytest.raises(InputError, match="questions 'q 1' and 'q_1' would both be written to q_1.svg"):
            run_report(SurveyDataset(records), out_dir=out_dir)
        assert not out_dir.exists()
        # without files to write both questions are reported
        assert [q.question for q in run_report(SurveyDataset(records)).questions] == ["q 1", "q_1"]

    def test_unknown_question_propagates(self):
        with pytest.raises(InputError):
            run_report(build_dataset(), questions=["zzz"])
