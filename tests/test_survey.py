import pytest

from randrule import (
    InputError,
    SurveyDataset,
    SurveyRecord,
    compare_groups,
    load_survey_csv,
)


def write_csv(path, rows):
    lines = ["respondent_id,group,question,response"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def separated_rows(question="q1", n=10, m=10):
    rows = [(f"a{i}", "teachers", question, 1) for i in range(n)]
    rows += [(f"b{i}", "academics", question, 5) for i in range(m)]
    return rows


class TestLoading:
    def test_three_valid_rows(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", [("r1", "g1", "q1", 3), ("r2", "g1", "q1", 4), ("r1", "g1", "q2", 5)])
        ds = load_survey_csv(path)
        assert len(ds.records) == 3
        assert ds.groups() == ["g1"]
        assert ds.questions() == ["q1", "q2"]

    def test_out_of_range_response_names_the_line(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", [("r1", "g1", "q1", 3), ("r2", "g1", "q1", 7)])
        with pytest.raises(InputError, match=r":3"):
            load_survey_csv(path, category_count=5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="no records"):
            load_survey_csv(path)

    def test_header_only_counts_as_no_records(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("respondent_id,group,question,response\n")
        with pytest.raises(InputError, match="no records"):
            load_survey_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("id,grp,q,resp\nr1,g1,q1,3\n")
        with pytest.raises(InputError, match="header"):
            load_survey_csv(path)

    def test_field_count_error_names_the_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("respondent_id,group,question,response\nr1,g1,q1,3\nr2,g1\n")
        with pytest.raises(InputError, match=r":3"):
            load_survey_csv(path)

    def test_non_integer_response_rejected(self, tmp_path):
        path = write_csv(tmp_path / "n.csv", [("r1", "g1", "q1", "x")])
        with pytest.raises(InputError, match="not an integer"):
            load_survey_csv(path)

    def test_duplicate_respondent_question_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [("r1", "g1", "q1", 3), ("r1", "g1", "q1", 4)])
        with pytest.raises(InputError, match=r":3: duplicate"):
            load_survey_csv(path)

    def test_empty_group_names_the_line(self, tmp_path):
        path = write_csv(tmp_path / "g.csv", [("r1", "g1", "q1", 3), ("r2", " ", "q1", 4)])
        with pytest.raises(InputError, match=r"g\.csv:3: record 'r2'/'q1' has an empty group"):
            load_survey_csv(path)

    def test_byte_order_mark_and_crlf_line_endings(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffrespondent_id,group,question,response\r\nr1,g1,q1,3\r\n\r\nr2,g1,q1,\r\n".encode())
        ds = load_survey_csv(path)
        assert len(ds.records) == 2
        assert ds.records[1] == SurveyRecord("r2", "g1", "q1", None)
        assert ds.responses("q1", "g1") == [3]
        path.write_bytes(path.read_bytes() + b"r1,g1,q1,4\r\n")
        with pytest.raises(InputError, match=r"excel\.csv:5: duplicate"):
            load_survey_csv(path)

    def test_missing_responses_preserved(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", [("r1", "g1", "q1", 3), ("r2", "g1", "q1", "")])
        ds = load_survey_csv(path)
        assert ds.records[1].response is None
        assert ds.responses("q1", "g1") == [3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_survey_csv(tmp_path / "absent.csv")


class TestDatasetValidation:
    def test_empty_group_name_rejected(self):
        with pytest.raises(InputError, match="empty group"):
            SurveyDataset((SurveyRecord("r1", "", "q1", 3),))

    def test_response_range_checked(self):
        with pytest.raises(InputError):
            SurveyDataset((SurveyRecord("r1", "g1", "q1", 9),), category_count=5)
        # 0 is a code outside 1..k, not a missing response
        with pytest.raises(InputError, match="response 0 for respondent 'r2' outside 1..5"):
            SurveyDataset((SurveyRecord("r1", "g1", "q1", None), SurveyRecord("r2", "g1", "q1", 0)))

    def test_non_integer_response_rejected(self):
        with pytest.raises(InputError, match="integers"):
            SurveyDataset((SurveyRecord("r1", "g1", "q1", 3), SurveyRecord("r2", "g1", "q1", 2.5)))


def test_a_cell_sample_is_built_once_and_shared(tmp_path):
    ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows()))
    sample = ds.sample("q1", "teachers")
    assert ds.sample("q1", "teachers") is sample
    assert not sample.values.flags.writeable and not sample.counts.flags.writeable
    assert ds.sample("q1", "academics") is not sample


class TestCompareGroups:
    def test_separated_groups_are_significant(self, tmp_path):
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows()))
        comp = compare_groups(ds, "q1", "teachers", "academics", alpha=0.05)
        assert comp.result.u_x == 0.0
        assert comp.significant
        assert comp.result.p_two_sided < 1e-4

    def test_identical_distributions_are_null(self, tmp_path):
        rows = [(f"a{i}", "teachers", "q1", 1 + i % 5) for i in range(10)]
        rows += [(f"b{i}", "academics", "q1", 1 + i % 5) for i in range(10)]
        ds = load_survey_csv(write_csv(tmp_path / "n.csv", rows))
        comp = compare_groups(ds, "q1", "teachers", "academics")
        assert comp.result.p_two_sided == 1.0
        assert not comp.significant

    def test_significance_is_exactly_p_below_alpha(self, tmp_path):
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows()))
        comp = compare_groups(ds, "q1", "teachers", "academics", alpha=0.05)
        assert comp.significant == (comp.result.p_two_sided < 0.05)

    def test_alpha_is_validated(self, tmp_path):
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows()))
        for alpha in (0.0, 1.0):
            with pytest.raises(InputError, match="alpha"):
                compare_groups(ds, "q1", "teachers", "academics", alpha=alpha)

    def test_unknown_question_and_group(self, tmp_path):
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows()))
        with pytest.raises(InputError, match="unknown question"):
            compare_groups(ds, "q9", "teachers", "academics")
        with pytest.raises(InputError, match="unknown group"):
            compare_groups(ds, "q1", "teachers", "visitors")

    def test_group_without_responses_for_the_question(self, tmp_path):
        rows = separated_rows() + [("c1", "visitors", "q2", 3)]
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", rows))
        with pytest.raises(InputError, match="no responses"):
            compare_groups(ds, "q1", "teachers", "visitors")

    def test_categorical_questions_are_refused(self, tmp_path):
        ds = load_survey_csv(write_csv(tmp_path / "s.csv", separated_rows("q22")))
        with pytest.raises(InputError, match="categorical"):
            compare_groups(ds, "q22", "teachers", "academics", categorical={"q22"})
