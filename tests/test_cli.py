import csv
import io
import json
import math
import time

import pytest

from randrule.charts import MAX_CATEGORIES
from randrule.cli import build_parser, main

OVERLAP_MIXTURE = {
    "dimension": 1,
    "components": [
        {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.0, "hi": 1.0}},
        {"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
    ],
}


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps(OVERLAP_MIXTURE))
    return str(path)


@pytest.fixture
def survey_file(tmp_path):
    lines = ["respondent_id,group,question,response"]
    lines += [f"a{i},teachers,q1,{1 + i % 2}" for i in range(10)]
    lines += [f"b{i},academics,q1,{4 + i % 2}" for i in range(10)]
    path = tmp_path / "survey.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_out(text):
    return list(csv.reader(io.StringIO(text)))


class TestClassifyDemo:
    def test_md_reports_cost_near_analytic(self, capsys, mixture_file):
        code, out, _ = run(
            capsys,
            "classify-demo",
            "--mixture", mixture_file,
            "--classifier", "md",
            "--n", "20000",
            "--seed", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_out(out)
        assert rows[0] == ["classifier", "n", "seed", "mean_cost", "std_error", "analytic"]
        mean = float(rows[1][3])
        assert rows[1][5] == "0.25"
        assert abs(mean - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 20000)

    def test_inline_json_and_randomized_rule(self, capsys):
        code, out, _ = run(
            capsys,
            "classify-demo",
            "--mixture", json.dumps(OVERLAP_MIXTURE),
            "--classifier", "mr",
            "--n", "5000",
            "--format", "csv",
        )
        assert code == 0
        assert csv_out(out)[1][0] == "randomized-bayes"
        assert csv_out(out)[1][5] == "0.25"

    def test_randomized_rule_equals_bayes_on_gaussians(self, capsys):
        # ties have probability zero under Gaussians, so mr is Bayes almost surely
        gaussians = {
            "components": [
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [0.0, 0.0], "lambda": 1.0}},
                {"prior": 0.3, "density": {"kind": "gaussian", "mean": [1.0, 0.5], "lambda": 1.0}},
                {"prior": 0.2, "density": {"kind": "gaussian", "mean": [-0.5, 1.0], "lambda": 1.0}},
            ]
        }
        for cost in ("zero-one", "[[0, 1, 4], [2, 0, 1], [1, 3, 0]]"):
            printed = {}
            for name in ("bayes", "mr"):
                code, out, _ = run(
                    capsys,
                    "classify-demo",
                    "--mixture", json.dumps(gaussians),
                    "--cost", cost,
                    "--classifier", name,
                    "--n", "20000",
                    "--format", "csv",
                )
                assert code == 0
                printed[name] = csv_out(out)[1][3:5]
            assert printed["mr"] == printed["bayes"]

    @pytest.mark.parametrize("classifier", ["bayes", "mr"])
    def test_bayes_rules_run_on_an_800_dimensional_mixture(self, capsys, classifier):
        # these cases' densities lie below the smallest double
        mixture = {
            "components": [
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [0.0] * 800, "lambda": 1.0}},
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [0.1] * 800, "lambda": 1.0}},
            ]
        }
        argv = ["--mixture", json.dumps(mixture), "--classifier", classifier, "--n", "100", "--format", "csv"]
        code, out, err = run(capsys, "classify-demo", *argv)
        assert (code, err) == (0, "")
        # the Bayes error here is Phi(-sqrt(2)) = 0.079
        assert float(csv_out(out)[1][3]) < 0.25

    def test_constant_classifier_has_analytic_value(self, capsys, mixture_file):
        code, out, _ = run(
            capsys,
            "classify-demo",
            "--mixture", mixture_file,
            "--classifier", "constant:0",
            "--n", "5000",
            "--format", "csv",
        )
        assert code == 0
        assert csv_out(out)[1][5] == "0.5"

    def test_md_requires_the_overlap_shape(self, capsys):
        gaussians = {
            "components": [
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [0.0], "lambda": 1.0}},
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [1.0], "lambda": 1.0}},
            ]
        }
        code, _, err = run(
            capsys,
            "classify-demo",
            "--mixture", json.dumps(gaussians),
            "--classifier", "md",
        )
        assert code == 2
        assert "md needs the two-uniform overlap mixture" in err

    def test_unknown_classifier_is_an_input_error(self, capsys, mixture_file):
        code, _, err = run(
            capsys, "classify-demo", "--mixture", mixture_file, "--classifier", "oracle"
        )
        assert code == 2
        assert "unknown classifier" in err
        code, _, err = run(
            capsys, "classify-demo", "--mixture", mixture_file, "--classifier", "constant:x"
        )
        assert code == 2
        assert "'x' is not an integer" in err

    @pytest.mark.parametrize("classifier", ["bayes", "mr"])
    def test_bayes_rules_print_the_exact_risk_of_an_interval_mixture(self, capsys, classifier):
        three_class = {
            "components": [
                {"prior": 0.2, "density": {"kind": "uniform", "lo": 0.0, "hi": 2.0}},
                {"prior": 0.5, "density": {"kind": "uniform", "lo": 1.0, "hi": 3.0}},
                {"prior": 0.3, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
            ]
        }
        cost = "[[0, 1, 4], [2, 0, 1], [1, 3, 0]]"
        argv = ["--mixture", json.dumps(three_class), "--cost", cost, "--classifier", classifier, "--seed", "9"]
        code, out, _ = run(capsys, "classify-demo", *argv, "--n", "20000", "--format", "csv")
        assert code == 0
        _, _, _, mean, se, analytic = csv_out(out)[1]
        assert analytic == "0.525"
        assert abs(float(mean) - 0.525) <= 4.0 * float(se)

    def test_analytic_column_is_blank_where_no_exact_cost_applies(self, capsys, mixture_file):
        # md costs the Bayes risk only under 0-1 cost, and Gaussians have no exact risk here
        gaussians = json.dumps({
            "components": [
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [0.0], "lambda": 1.0}},
                {"prior": 0.5, "density": {"kind": "gaussian", "mean": [1.0], "lambda": 1.0}},
            ]
        })
        for mixture, cost, classifier in [
            (mixture_file, "[[0, 2], [1, 0]]", "md"),
            (gaussians, "zero-one", "bayes"),
            (gaussians, "zero-one", "mr"),
        ]:
            argv = ["--mixture", mixture, "--cost", cost, "--classifier", classifier, "--n", "1000"]
            code, out, _ = run(capsys, "classify-demo", *argv, "--format", "csv")
            assert code == 0
            assert csv_out(out)[1][5] == ""


class TestSolveGame:
    def test_harm_scenario(self, capsys):
        code, out, _ = run(capsys, "solve-game", "--harm", "1,2,1,6", "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["row"] == "0.75 0.25"
        assert rows["value"] == "-1.5"
        assert rows["is_nash(tol=1e-09)"] == "true"

    @pytest.mark.parametrize("scale", ["1e6", "1e9", "1e15"])
    def test_large_payoff_harm_scenarios_solve(self, capsys, scale):
        code, out, _ = run(capsys, "solve-game", "--harm", f"{scale},3,{scale},7", "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["row"] == "0.7 0.3"
        assert rows["is_nash(tol=1e-09)"] == "true"

    def test_matching_pennies_shortcut(self, capsys):
        code, out, _ = run(capsys, "solve-game", "--game", "mp", "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["row"] == "0.5 0.5"
        assert rows["value"] == "0"

    def test_fictitious_play_on_rps(self, capsys):
        code, out, _ = run(
            capsys, "solve-game", "--game", "rps", "--method", "fp", "--iters", "5000", "--format", "csv"
        )
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert abs(float(rows["value"])) < 0.05

    def test_game_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"row_payoff": [[3, 0], [1, 2]], "zero_sum": True}))
        code, out, _ = run(capsys, "solve-game", "--game", str(path), "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["value"] == "1.5"
        assert rows["row"] == "0.25 0.75"

    def test_exact_method_solves_3x3_games(self, capsys):
        code, out, _ = run(capsys, "solve-game", "--game", "rps", "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["row"] == rows["col"] == "0.333333 0.333333 0.333333"
        assert rows["value"] == "0"
        game = json.dumps({"row_payoff": [[3, -1, 0], [-2, 4, 1], [0, 1, -3]], "zero_sum": True})
        code, out, _ = run(capsys, "solve-game", "--game", game, "--format", "csv")
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert rows["value"] == "0.5"
        assert rows["is_nash(tol=1e-09)"] == "true"

    def test_exact_method_solves_games_of_any_size(self, capsys):
        game = json.dumps({"row_payoff": [[0] * 5] * 6, "zero_sum": True})
        code, out, _ = run(capsys, "solve-game", "--game", game)
        assert code == 0
        assert "is_nash(tol=1e-09)  true" in out

    @pytest.mark.parametrize("flag", ['"no"', "1", "null"])
    def test_non_boolean_zero_sum_is_an_input_error(self, capsys, flag):
        game = '{"row_payoff": [[1,0],[0,1]], "zero_sum": %s}' % flag
        code, out, err = run(capsys, "solve-game", "--game", game)
        assert code == 2
        assert out == ""
        assert "zero_sum" in err

    def test_bad_harm_spec(self, capsys):
        code, _, err = run(capsys, "solve-game", "--harm", "1,2,3")
        assert code == 2

    def test_missing_game(self, capsys):
        code, _, err = run(capsys, "solve-game")
        assert code == 2


class TestSimulateRepeated:
    def test_pure_vs_exploiter_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "simulate-repeated",
            "--game", "mp",
            "--row", "pure:0",
            "--col", "exploiter",
            "--rounds", "500",
            "--seed", "1",
            "--trace", str(trace_path),
            "--format", "csv",
        )
        assert code == 0
        rows = {r[0]: r[1] for r in csv_out(out)[1:]}
        assert float(rows["avg_col_payoff"]) >= 0.9
        with open(trace_path, newline="") as fh:
            trace_rows = list(csv.reader(fh))
        assert len(trace_rows) == 501

    def test_unwritable_trace_path_is_an_input_error(self, capsys, tmp_path):
        trace_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "simulate-repeated", "--game", "mp", "--row", "pure:0", "--col", "pure:0",
            "--trace", str(trace_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write trace file {trace_path}: ")

    def test_mixed_policy_parsing(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate-repeated",
            "--game", "rps",
            "--row", "mixed:0.333333333333,0.333333333333,0.333333333334",
            "--col", "pure:2",
            "--rounds", "300",
            "--format", "csv",
        )
        assert code == 0

    def test_bad_policy_string(self, capsys):
        for policy, message in (
            ("tit-for-tat", "unknown policy"),
            ("pure:x", "'x' is not an integer"),
            ("mixed:0.5,x", "'x' is not a number"),
            ("mixed:nan,0.5", "finite"),
        ):
            code, _, err = run(
                capsys, "simulate-repeated", "--game", "mp", "--row", policy, "--col", "pure:0"
            )
            assert code == 2, policy
            assert message in err, policy


class TestMwu:
    def test_reference_statistics(self, capsys):
        code, out, _ = run(capsys, "mwu", "--x", "19,22,16,29,24", "--y", "20,11,17,12", "--format", "csv")
        assert code == 0
        row = csv_out(out)[1]
        assert row[0] == "17"
        assert row[1] == "3"

    def test_empty_sample_is_input_error(self, capsys):
        code, _, err = run(capsys, "mwu", "--x", "", "--y", "1,2")
        assert code == 2


class TestCompare:
    def test_separated_groups(self, capsys, survey_file):
        code, out, _ = run(
            capsys,
            "compare",
            "--data", survey_file,
            "--question", "q1",
            "--groups", "teachers,academics",
            "--format", "csv",
        )
        assert code == 0
        row = csv_out(out)[1]
        assert row[0] == "q1"
        assert row[3] == "0"
        assert row[5] == "true"

    def test_needs_exactly_two_groups(self, capsys, survey_file):
        code, _, err = run(
            capsys, "compare", "--data", survey_file, "--question", "q1", "--groups", "teachers"
        )
        assert code == 2

    def test_a_group_listed_twice_is_refused(self, capsys, survey_file):
        argv = ["compare", "--data", survey_file, "--question", "q1", "--groups", "teachers,teachers"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: group 'teachers' is listed more than once\n"

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "compare",
            "--data", str(tmp_path / "none.csv"),
            "--question", "q1",
            "--groups", "a,b",
        )
        assert code == 2

    def test_a_huge_category_count_costs_what_the_data_costs(self, capsys, survey_file):
        argv = ["compare", "--data", survey_file, "--question", "q1", "--groups", "teachers,academics"]
        code, out, _ = run(capsys, *argv, "--categories", "1000000000")
        assert code == 0
        assert out == run(capsys, *argv, "--categories", "5")[1]

    def test_a_large_code_costs_what_the_data_costs(self, capsys, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text("respondent_id,group,question,response\nr1,g1,q1,999999999\nr2,g2,q1,1\nr3,g2,q1,2\n")
        argv = ["compare", "--data", str(path), "--question", "q1", "--groups", "g1,g2", "--format", "csv"]
        code, out, err = run(capsys, *argv, "--categories", "1000000000")
        assert (code, err) == (0, "")
        assert csv_out(out)[1][3] == "2"

    def test_a_code_past_int64_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(f"respondent_id,group,question,response\nr1,g1,q1,{10**20}\nr2,g2,q1,1\n")
        argv = ["compare", "--data", str(path), "--question", "q1", "--groups", "g1,g2"]
        code, out, err = run(capsys, *argv, "--categories", str(10**30))
        assert (code, out) == (2, "")
        assert err == "error: category codes must be integers in 1..9007199254740991\n"

    @pytest.mark.parametrize("categories", ["-3", "0", "1"])
    def test_a_category_count_below_2_blames_the_argument(self, capsys, survey_file, categories):
        argv = ["compare", "--data", survey_file, "--question", "q1", "--groups", "teachers,academics"]
        code, out, err = run(capsys, *argv, "--categories", categories)
        assert (code, out) == (2, "")
        assert err == f"error: category count must be >= 2, got {categories}\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["r1,,q1,3", "r2,g1,q1"], "2: record 'r1'/'q1' has an empty group"),
            (["r1,g1,q1,3", "r1,g1,q1,2", "r3,g1,q1,9"], "3: duplicate response for respondent 'r1', question 'q1'"),
        ],
    )
    def test_a_bad_record_before_a_row_the_parse_refuses_is_reported_first(self, capsys, tmp_path, rows, message):
        path = tmp_path / "survey.csv"
        path.write_text("\n".join(["respondent_id,group,question,response", *rows]) + "\n")
        code, out, err = run(capsys, "compare", "--data", str(path), "--question", "q1", "--groups", "g1,g2")
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{message}\n"

    def test_categorical_question_is_refused(self, capsys, survey_file):
        code, _, err = run(
            capsys,
            "compare",
            "--data", survey_file,
            "--question", "q1",
            "--groups", "teachers,academics",
            "--categorical", "q1",
        )
        assert code == 2
        assert "categorical" in err


class TestUnreadableInput:
    def test_latin1_survey_csv(self, capsys, tmp_path):
        # past the first decoded chunk, so the bad byte turns up while rows stream
        lines = ["respondent_id,group,question,response"] + [f"r{i},teachers,q1,1" for i in range(1000)]
        path = tmp_path / "survey.csv"
        path.write_bytes(("\n".join(lines) + "\nx,caf\xe9,q1,2\n").encode("latin-1"))
        code, _, err = run(capsys, "compare", "--data", str(path), "--question", "q1", "--groups", "a,b")
        assert code == 2
        assert f"cannot read survey file {path}:" in err

    def test_field_past_the_csv_field_limit(self, capsys, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(f"respondent_id,group,question,response\nr1,a,q1,1\nr2,a,{'q' * 200_000},2\n")
        code, _, err = run(capsys, "compare", "--data", str(path), "--question", "q1", "--groups", "a,b")
        assert code == 2
        assert f"{path}:3: field larger than field limit" in err

    def test_a_bad_response_before_an_overlong_field_is_reported_first(self, capsys, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(f"respondent_id,group,question,response\nr1,a,q1,abc\n\nr2,a,{'q' * 200_000},2\n")
        code, _, err = run(capsys, "compare", "--data", str(path), "--question", "q1", "--groups", "a,b")
        assert code == 2
        assert f"{path}:2: response 'abc' is not an integer" in err

    def test_overlong_field_in_the_header(self, capsys, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(f"respondent_id,group,question,{'r' * 200_000}\nr1,a,q1,1\n")
        code, _, err = run(capsys, "compare", "--data", str(path), "--question", "q1", "--groups", "a,b")
        assert code == 2
        assert f"{path}:1: field larger than field limit" in err

    def test_latin1_mixture_json(self, capsys, tmp_path):
        path = tmp_path / "mixture.json"
        path.write_bytes(json.dumps({**OVERLAP_MIXTURE, "note": "caf\xe9"}, ensure_ascii=False).encode("latin-1"))
        code, _, err = run(capsys, "classify-demo", "--mixture", str(path), "--classifier", "bayes")
        assert code == 2
        assert f"cannot read mixture file {path}:" in err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["compare", "--data", "{dir}", "--question", "q1", "--groups", "a,b"], "survey"),
            (["classify-demo", "--mixture", "{dir}", "--classifier", "bayes"], "mixture"),
            (["solve-game", "--game", "{dir}"], "game"),
        ],
    )
    def test_directory_given_as_a_file(self, capsys, tmp_path, argv, what):
        code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 2
        assert f"cannot read {what} file {tmp_path}:" in err


GAME_FILE_HOLDING_5 = "{tmp}/five.json"
TWO_UNIFORMS = '"components": [{"prior": 0.5, "density": {"kind": "uniform", "lo": 0, "hi": 1}}, ' \
    '{"prior": 0.5, "density": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}]'


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--game", '{"row_payoff": "ab", "zero_sum": true}'], "game document's row_payoff is not a numeric matrix"),
            (["--game", '{"row_payoff": [[1, 0], [0, 1]], "col_payoff": [[1, [2]], [0, 1]]}'],
             "game document's col_payoff is not a numeric matrix"),
            (["--game", GAME_FILE_HOLDING_5], "game document must be a JSON object with a row_payoff matrix"),
            (["--game", f"[{'1' * 5000}]"], "invalid game JSON"),
        ],
        ids=["string-matrix", "ragged-matrix", "file-holding-5", "overlong-integer"],
    )
    def test_game(self, capsys, tmp_path, argv, message):
        (tmp_path / "five.json").write_text("5")
        code, out, err = run(capsys, "solve-game", *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"components": [{"prior": "x", "density": {"kind": "uniform", "lo": 0, "hi": 1}}]}',
             "malformed mixture document: could not convert string to float: 'x'"),
            ('{"components": [{"prior": 0.5, "density": {"kind": "uniform", "lo": 0, "hi": "q"}}]}',
             "malformed mixture document: could not convert string to float: 'q'"),
            ('{"components": [{"prior": 0.5, "density": []}]}', "malformed mixture document"),
            ('{"dimension": "x", %s}' % TWO_UNIFORMS, "declared dimension 'x' != component dimension 1"),
            ('{"dimension": 1.5, %s}' % TWO_UNIFORMS, "declared dimension 1.5 != component dimension 1"),
            ("[1, 2]", "mixture document must be a JSON object, got list"),
            ('{"components": [{"prior": 0.5, "density": {"kind": "uniform", "lo": -1e308, "hi": 1e308}}, '
             '{"prior": 0.5, "density": {"kind": "uniform", "lo": 0, "hi": 1}}]}',
             "interval [-1e+308, 1e+308] is wider than a double can hold"),
        ],
        ids=["string-prior", "string-bound", "list-density", "string-dimension", "fractional-dimension", "list",
             "infinite-width"],
    )
    def test_mixture(self, capsys, document, message):
        code, out, err = run(capsys, "classify-demo", "--mixture", document, "--classifier", "bayes", "--n", "10")
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "cost, message",
        [
            ('[[0, "a"], [1, 0]]', "cost document is not a numeric matrix: could not convert string to float: 'a'"),
            ('{"x": 1}', "cost document is not a numeric matrix"),
            ("[[0, 1, 1], [1, 0, 1], [1, 1, 0]]", "cost matrix is 3x3 but the mixture has 2 classes"),
            ("[[0, 1e308], [1e308, 0]]", "cost magnitude 1e+308 over n=10 cases could overflow"),
        ],
        ids=["string-entry", "object", "wrong-size", "overflowing"],
    )
    def test_cost(self, capsys, mixture_file, cost, message):
        for classifier in ("bayes", "md"):
            code, out, err = run(
                capsys, "classify-demo", "--mixture", mixture_file, "--cost", cost, "--classifier", classifier, "--n", "10"
            )
            assert (code, out) == (2, ""), classifier
            assert message in err, classifier


class TestReport:
    def test_writes_files(self, capsys, survey_file, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run(
            capsys, "report", "--data", survey_file, "--out-dir", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "comparisons.csv").exists()
        assert (out_dir / "q1.svg").exists()
        assert "wrote" in out

    def test_a_huge_category_count_is_refused_before_any_work(self, capsys, survey_file, tmp_path):
        out_dir = tmp_path / "report"
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--data", survey_file, "--out-dir", str(out_dir), "--categories", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: 1000000000 categories are more than a chart can draw (at most {MAX_CATEGORIES})\n"
        assert not out_dir.exists()
        code = run(capsys, "report", "--data", survey_file, "--out-dir", str(out_dir), "--categories", str(MAX_CATEGORIES))[0]
        assert code == 0

    def test_out_dir_that_is_a_file_is_an_input_error(self, capsys, survey_file, tmp_path):
        blocker = tmp_path / "report"
        blocker.write_text("")
        code, out, err = run(capsys, "report", "--data", survey_file, "--out-dir", str(blocker))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write the report to {blocker}: ")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("r1,g\x01x,q1,3", "chart text 'g\\x01x' holds a character that XML cannot hold"),
            ("r1,teachers,,3", "record 'r1' in group 'teachers' has an empty question"),
        ],
        ids=["group-outside-xml", "empty-question"],
    )
    def test_a_record_that_would_make_a_broken_file_is_refused(self, capsys, survey_file, tmp_path, row, message):
        data = tmp_path / "survey.csv"
        data.write_text(open(survey_file).read() + row + "\n")
        out_dir = tmp_path / "report"
        code, out, err = run(capsys, "report", "--data", str(data), "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--groups", "teachers", "--alpha", "5"], "alpha must lie strictly between 0 and 1, got 5.0"),
            (["--categorical", "q1", "--alpha", "-1"], "alpha must lie strictly between 0 and 1, got -1.0"),
            (["--groups", "teachers,nobody"], "unknown group 'nobody' (available: teachers, academics)"),
            (["--questions", "nope"], "unknown question 'nope'"),
            (["--questions", "q1,q1"], "question 'q1' is listed more than once"),
            (["--groups", "academics,teachers,academics"], "group 'academics' is listed more than once"),
        ],
        ids=["alpha-5", "alpha-negative-categorical", "unknown-group", "unknown-question", "repeated-question",
             "repeated-group"],
    )
    def test_arguments_are_checked_before_any_work(self, capsys, survey_file, tmp_path, argv, message):
        out_dir = tmp_path / "report"
        code, out, err = run(capsys, "report", "--data", survey_file, "--out-dir", str(out_dir), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not out_dir.exists()


def test_alpha_outside_the_open_unit_interval_exits_2(capsys, survey_file, tmp_path):
    compare = ["compare", "--data", survey_file, "--question", "q1", "--groups", "teachers,academics"]
    report = ["report", "--data", survey_file, "--out-dir", str(tmp_path)]
    mwu = ["mwu", "--x", "1", "--y", "2"]
    # compare and report validate alpha; mwu no longer takes it
    for argv in (compare + ["--alpha", "0"], report + ["--alpha", "1"], mwu + ["--alpha", "0.5"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "alpha" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-game", "--game", "rps", "--method", "fp", "--iters", "10"],
        ["classify-demo", "--mixture", json.dumps(OVERLAP_MIXTURE), "--classifier", "mr", "--n", "10"],
        ["simulate-repeated", "--game", "mp", "--row", "pure:0", "--col", "exploiter", "--rounds", "10"],
    ],
)
def test_seed_outside_64_bits_exits_2(capsys, argv):
    for seed in ("-1", str(2**64), "x"):
        code, _, err = run(capsys, *argv, "--seed", seed)
        assert code == 2
        assert "--seed" in err
    code, _, _ = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mwu", "--x", "1,2", "--y", "3"], ["--seed", "5"]),
        (["mwu", "--x", "1,2", "--y", "3"], ["--out-dir", "out"]),
        (["compare", "--data", "{survey}", "--question", "q1", "--groups", "teachers,academics"], ["--seed", "5"]),
        (["compare", "--data", "{survey}", "--question", "q1", "--groups", "teachers,academics"], ["--out-dir", "out"]),
        (["report", "--data", "{survey}", "--out-dir", "{tmp}"], ["--seed", "5"]),
    ],
    ids=["mwu-seed", "mwu-out-dir", "compare-seed", "compare-out-dir", "report-seed"],
)
def test_flags_a_subcommand_does_not_read_are_refused(capsys, survey_file, tmp_path, argv, flag):
    code, out, err = run(capsys, *(a.format(survey=survey_file, tmp=tmp_path) for a in argv + flag))
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err


# 2**1013 * (1020 rounds + 4 actions) = 2**1023: the smallest score bound that is refused
EDGE_PAYOFF, EDGE_ROUNDS = 2.0**1013, "1020"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-game", "--method", "fp", "--iters", EDGE_ROUNDS],
        ["simulate-repeated", "--row", "pure:0", "--col", "exploiter", "--rounds", EDGE_ROUNDS],
        ["simulate-repeated", "--row", "mixed:0.5,0.5", "--col", "mixed:0.5,0.5", "--rounds", EDGE_ROUNDS],
    ],
    ids=["fp", "pure-vs-exploiter", "mixed-vs-mixed"],
)
def test_payoffs_whose_sums_could_overflow_are_refused(capsys, argv):
    def game(p):
        return json.dumps({"row_payoff": [[p, -p], [-p, p]], "zero_sum": True})

    for payoff in (1e308, EDGE_PAYOFF):
        code, out, err = run(capsys, *argv, "--game", game(payoff))
        assert (code, out) == (2, "")
        assert f"payoff magnitude {payoff:g} over {EDGE_ROUNDS} " in err
    code, out, err = run(capsys, *argv, "--game", game(math.nextafter(EDGE_PAYOFF, 0.0)))
    assert (code, err) == (0, "")
    assert "inf" not in out and "nan" not in out


# numpy refuses arrays this long before it allocates anything
UNALLOCATABLE = str(10**20)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["classify-demo", "--mixture", json.dumps(OVERLAP_MIXTURE), "--classifier", "md", "--n"], "cases"),
        (["classify-demo", "--mixture", json.dumps(OVERLAP_MIXTURE), "--classifier", "mr", "--n"], "cases"),
        (["solve-game", "--game", "rps", "--method", "fp", "--iters"], "iterations"),
        (["simulate-repeated", "--game", "rps", "--row", "pure:0", "--col", "exploiter", "--rounds"], "rounds"),
        (["simulate-repeated", "--game", "rps", "--row", "exploiter", "--col", "exploiter", "--rounds"], "rounds"),
    ],
    ids=["md", "mr", "fp", "pure-vs-exploiter", "exploiter-vs-exploiter"],
)
def test_a_size_that_cannot_be_allocated_exits_2(capsys, argv, what):
    code, out, err = run(capsys, *argv, UNALLOCATABLE)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot allocate arrays for {UNALLOCATABLE} {what}: ")


class TestParser:
    def test_one_parser_serves_every_call_without_carrying_state(self, capsys):
        assert build_parser() is not build_parser()
        assert run(capsys, "solve-game", "--game", "rps")[0] == 0
        code, out, err = run(capsys, "solve-game")
        assert (code, out) == (2, "")
        assert "no game given" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["solve-game", "--help"]) == 0
