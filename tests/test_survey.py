import csv

import pytest

from randrule import (
    InputError,
    SurveyDataset,
    SurveyRecord,
    compare_groups,
    load_survey_csv,
)
from randrule import survey


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

    def test_empty_question_names_the_line(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", [("r1", "g1", "q1", 3), ("r2", "g2", " ", 4), ("r3", "", "", 4)])
        with pytest.raises(InputError, match=r"q\.csv:3: record 'r2' in group 'g2' has an empty question"):
            load_survey_csv(path)

    def test_empty_group_wins_over_empty_question_in_one_record(self, tmp_path):
        path = write_csv(tmp_path / "gq.csv", [("r1", "g1", "q1", 3), ("r2", "", "", 4)])
        with pytest.raises(InputError, match=r"gq\.csv:3: record 'r2'/'' has an empty group"):
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


class Routes:
    """Counts the files each loading route reads: the byte route only counts the
    files it takes, the csv route every file it is handed."""

    def __init__(self, monkeypatch):
        self.byte = self.csv = 0
        byte_columns, csv_rows = survey._byte_columns, survey._csv_rows

        def count_byte(path, category_count):
            parsed = byte_columns(path, category_count)
            self.byte += parsed is not None
            return parsed

        def count_csv(path, category_count):
            self.csv += 1
            return csv_rows(path, category_count)

        monkeypatch.setattr(survey, "_byte_columns", count_byte)
        monkeypatch.setattr(survey, "_csv_rows", count_csv)


def loaded(load, path, category_count=5):
    """The ``InputError`` text of loading ``path``, or every column of the dataset with its dtype."""
    try:
        columns = load(path, category_count).records
    except InputError as exc:
        return str(exc)
    codes = (columns.respondent, columns.group, columns.question, columns.response)
    return columns.respondents, columns.groups, columns.questions, [(c.dtype, c.tolist()) for c in codes]


HEADER = "respondent_id,group,question,response\n"
ROWS = "r1,g1,q1,3\nr2,g2,q1,\nr1,g1,q2,5\n"
# one field past the csv module's default field limit, and one at it
LIMIT = 131_072


def one_long_id(width, rows=1000):
    """A valid file of ``rows`` rows whose middle respondent id is ``width`` characters."""
    return HEADER + "".join(f"{'x' * width if i == rows // 2 else f'r{i}'},g{i % 2},q1,{1 + i % 5}\n" for i in range(rows))


def long_questions(width, rows):
    """A valid file of ``rows`` rows, every one asking a question named by ``width`` characters."""
    return HEADER + "".join(f"r{i},g1,{'q' * width},2\n" for i in range(rows))


@pytest.mark.parametrize(
    "data, route, expected",
    [
        (HEADER + f"r1,g1,{'q' * (LIMIT + 1)},2\n", "csv", "{path}:2: field larger than field limit (131072)"),
        # a name longer than its column's row count, and than 64, is not worth one pass per byte
        (HEADER + f"r1,g1,{'q' * LIMIT},2\n", "csv", None),
        (long_questions(64, rows=40), "byte", None),
        (long_questions(65, rows=40), "csv", None),
        (long_questions(100, rows=100), "byte", None),
        (long_questions(101, rows=100), "csv", None),
        (one_long_id(50_000), "csv", None),
        # fewer passes than rows, but a key matrix larger than the file
        (one_long_id(900), "csv", None),
        (one_long_id(12), "byte", None),
        ("\ufeff" + HEADER + ROWS, "byte", None),
        ("\ufeff" + HEADER + ROWS + "r1,g1,q1,4\n", "byte", "{path}:5: duplicate response for respondent 'r1', question 'q1'"),
        (" respondent_id , group,question ,response\n" + ROWS, "csv", None),
        (HEADER.replace("\n", "\r\n") + ROWS.replace("\n", "\r\n"), "csv", None),
        (HEADER + "\n" + ROWS.replace("\n", "\n\n", 1) + "\n\n", "byte", None),
        (HEADER + "\n" + ROWS.replace("\n", "\n\n", 1) + "\nr3,,q1,1\n\n", "byte", "{path}:8: record 'r3'/'q1' has an empty group"),
        (HEADER + ROWS.rstrip("\n"), "byte", None),
        (HEADER + ROWS + "r3,g1,q1,02\n", "byte", None),
        (HEADER + ROWS + "r3,g1,q1,005\n", "byte", None),
        (HEADER + ROWS + "r3,g1,q1,0\n", "csv", "{path}:5: response 0 outside 1..5"),
        (HEADER + ROWS + "r3,g1,q1,00\n", "csv", "{path}:5: response 0 outside 1..5"),
        # both routes read a response with int(), so a sign or a digit separator is the same code on either
        (HEADER + ROWS + "r3,g1,q1,+3\n", "byte", None),
        (HEADER + ROWS + "r3,g1,q1,1_0\n", "csv", "{path}:5: response 10 outside 1..5"),
        # one row, so the key matrix of a long code stays smaller than the file
        ((HEADER + "r1,g1,q1,1234567890123456789\n", 10**25), "byte", None),
        ((HEADER + "r1,g1,q1,99999999999999999999\n", 10**25), "byte", None),
        (HEADER, "csv", "{path}: no records"),
        (HEADER.rstrip("\n"), "csv", "{path}: no records"),
        (HEADER + ROWS + "r3,caf\u00e9,q1,2\n", "csv", None),
        ((HEADER + ROWS + "r3,caf\u00e9,q1,2\n").encode("latin-1"), "csv", "cannot read survey file {path}: 'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["past-field-limit", "at-field-limit", "64-of-40-rows", "65-of-40-rows", "100-of-100-rows", "101-of-100-rows", "long-id", "long-id-many-rows", "short-ids",
         "bom", "bom-duplicate", "padded-header", "crlf",
         "blank-rows", "blank-rows-empty-group", "no-final-newline", "zero-padded", "zero-padded-k", "zero", "zeros",
         "plus-sign", "digit-separator", "19-digits-huge-k", "past-int64-huge-k",
         "header-only", "header-only-no-newline",
         "non-ascii", "latin-1"],
)
def test_each_route_guard_gives_what_the_csv_route_gives(monkeypatch, tmp_path, data, route, expected):
    # data: the file's text or bytes, or (text, category count) for a count other than 5
    data, category_count = data if isinstance(data, tuple) else (data, 5)
    path = tmp_path / "s.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    want = loaded(survey._csv_rows, path, category_count)
    routes = Routes(monkeypatch)
    assert loaded(load_survey_csv, path, category_count) == want
    assert (routes.byte, routes.csv) == ((1, 0) if route == "byte" else (0, 1))
    if expected is None:
        assert not isinstance(want, str)
    else:
        assert want.startswith(expected.format(path=path))


def test_a_lowered_field_limit_holds_on_both_routes(monkeypatch, tmp_path):
    # a name short enough for the byte route can still pass a caller's lower csv limit
    path = tmp_path / "s.csv"
    path.write_text(HEADER + "".join(f"{'x' * 14 if i == 50 else f'id{i:08d}'},g1,q1,1\n" for i in range(100)))
    previous = csv.field_size_limit(13)
    try:
        want = loaded(survey._csv_rows, path)
        routes = Routes(monkeypatch)
        assert loaded(load_survey_csv, path) == want
    finally:
        csv.field_size_limit(previous)
    assert want == f"{path}:52: field larger than field limit (13)"
    assert (routes.byte, routes.csv) == (0, 1)


class TestDatasetValidation:
    def test_empty_group_name_rejected(self):
        with pytest.raises(InputError, match="empty group"):
            SurveyDataset((SurveyRecord("r1", "", "q1", 3),))

    def test_empty_question_rejected(self):
        with pytest.raises(InputError, match="record 'r1' in group 'g1' has an empty question"):
            SurveyDataset((SurveyRecord("r1", "g1", "", 3),))

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
